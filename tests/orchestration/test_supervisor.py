"""Supervised execution through the fleet: deadline, retry, quarantine,
exit-code taxonomy.

These tests spawn real worker processes (the unit of isolation is a process
-- a hung engine cannot be un-hung from inside, and a worker past its
deadline SIGKILLs itself).  Runs are kept tiny and deadlines tight so the
suite stays fast.
"""

from __future__ import annotations

import time

import pytest

from repro.orchestration import (
    EXIT_CODES,
    ChaosConfig,
    ResultCache,
    RunFailure,
    CheckpointPolicy,
    execute_request,
    failures_path,
    load_failures,
    load_quarantine,
    quarantine_report,
    run_fleet,
    run_worker,
    sweep_exit_code,
    write_failures,
)
from repro.orchestration import fleet
from repro.orchestration.claims import DEFAULT_LEASE_TTL, ClaimBoard
from repro.orchestration.request import RunRequest, canonical_json

REQUEST = RunRequest(scenario="als_streaming", mode="als", cycles=120)

#: Conservative mode reaches a safe point at every committed cycle, so a
#: chaos trigger cycle always lands on one -- the right workload for tests
#: that must *guarantee* an injected kill or hang fires.
KILLABLE = RunRequest(scenario="single_master", mode="conservative", cycles=120)

#: The catalog's deterministic-degradation recipe: total loss with a small
#: give-up threshold degrades the channel on the first conservative drive,
#: identically on every attempt.
DEGRADING = RunRequest(
    scenario="mixed",
    mode="als",
    cycles=200,
    channel_faults={"loss_rate": 1.0, "max_attempts": 3},
)


def _canonical(record):
    return canonical_json(record.as_dict())


# ---------------------------------------------------------------------------
# Failure record plumbing (no worker processes).
# ---------------------------------------------------------------------------

def test_run_failure_roundtrip_and_exit_codes():
    failure = RunFailure(
        request_id="ab" * 6,
        label="p=0.9",
        scenario="mixed",
        mode="als",
        kind="timeout",
        attempts=3,
        message="deadline blown",
        detail=[{"attempt": 0, "status": "timeout"}],
    )
    assert failure.exit_code == EXIT_CODES["timeout"] == 10
    assert RunFailure.from_dict(failure.as_dict()) == failure
    with pytest.raises(ValueError, match="unknown failure kind"):
        RunFailure(
            request_id="x", label="", scenario="s", mode="als",
            kind="mystery", attempts=1, message="",
        )
    with pytest.raises(ValueError, match="schema"):
        RunFailure.from_dict({"kind": "timeout"})


def test_exit_codes_are_distinct_and_nonzero():
    codes = list(EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert all(code not in (0, 1, 2) for code in codes)  # clear of argparse/errors


def test_sweep_exit_code_picks_most_severe():
    def failure(kind):
        return RunFailure(
            request_id="x", label="", scenario="s", mode="als",
            kind=kind, attempts=1, message="",
        )

    assert sweep_exit_code([]) == 0
    assert sweep_exit_code([failure("degraded")]) == EXIT_CODES["degraded"]
    assert sweep_exit_code([failure("degraded"), failure("timeout")]) == EXIT_CODES["timeout"]
    assert (
        sweep_exit_code([failure("timeout"), failure("poison"), failure("crash")])
        == EXIT_CODES["poison"]
    )


def test_failures_sidecar_roundtrip(tmp_path):
    store_path = tmp_path / "runs.jsonl"
    sidecar = failures_path(store_path)
    assert sidecar.name == "runs.jsonl.failures"
    failures = [
        RunFailure(
            request_id="ab" * 6, label="a", scenario="s", mode="als",
            kind="poison", attempts=3, message="boom",
        ),
        RunFailure(
            request_id="cd" * 6, label="b", scenario="s", mode="als",
            kind="degraded", attempts=1, message="gave up",
        ),
    ]
    write_failures(sidecar, failures)
    assert load_failures(sidecar) == failures
    report = quarantine_report(failures)
    assert report["total"] == 2
    assert report["by_kind"] == {"degraded": 1, "poison": 1}
    # Empty list removes the sidecar (a healthy re-run cleans up after an
    # earlier failed one).
    write_failures(sidecar, [])
    assert not sidecar.exists()
    assert load_failures(sidecar) == []


# ---------------------------------------------------------------------------
# Supervised execution (fleet worker processes).
# ---------------------------------------------------------------------------

def _supervise(request, root, **options):
    """One supervised request: its record, or its quarantine failure."""
    records, stats = run_fleet([request], root, workers=1, **options)
    failures = load_quarantine(root, stats.sweep_id)
    assert len(records) + len(failures) == 1
    return (records or failures)[0], stats


@pytest.mark.parametrize("options", [
    {"deadline": 0}, {"deadline": -1.0}, {"max_retries": -1},
])
def test_supervision_settings_are_validated(tmp_path, options):
    with pytest.raises(ValueError):
        run_fleet([REQUEST], tmp_path, workers=1, **options)
    with pytest.raises(ValueError):
        run_worker(tmp_path, requests=[REQUEST], **options)


def test_supervised_success_matches_plain_execution(tmp_path):
    outcome, _ = _supervise(REQUEST, tmp_path)
    assert _canonical(outcome) == _canonical(execute_request(REQUEST))


def test_supervised_retry_resumes_after_chaos_kill(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0)  # SIGKILL mid-run, once
    started = time.monotonic()
    outcome, stats = _supervise(
        KILLABLE,
        tmp_path,
        checkpoint=CheckpointPolicy(every_cycles=25),
        chaos=chaos,
    )
    assert _canonical(outcome) == _canonical(execute_request(KILLABLE))
    assert stats.restarts == 1
    assert stats.total("resumed") == 1  # the retry started from the snapshot
    # The driver closed the dead worker's attempt and released its lease:
    # the retry did not wait out the lease TTL.
    assert time.monotonic() - started < DEFAULT_LEASE_TTL


def test_supervised_poison_after_exhausted_retries(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)  # every attempt
    outcome, _ = _supervise(KILLABLE, tmp_path, chaos=chaos, max_retries=2)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"
    assert outcome.attempts == 3
    assert outcome.exit_code == EXIT_CODES["poison"]
    assert [d["attempt"] for d in outcome.detail] == [0, 1, 2]
    assert all(d["status"] == "crash" for d in outcome.detail)  # SIGKILLed


def test_supervised_zero_retries_keeps_underlying_kind(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)
    outcome, _ = _supervise(KILLABLE, tmp_path, chaos=chaos, max_retries=0)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "crash"  # not escalated to poison: no retry burned
    assert outcome.attempts == 1


def test_supervised_timeout_kills_a_hung_run(tmp_path):
    chaos = ChaosConfig(
        seed=0, hang_probability=1.0, hang_seconds=60.0, once=False
    )
    started = time.monotonic()
    outcome, _ = _supervise(
        KILLABLE,
        tmp_path,
        deadline=1.5,
        max_retries=1,
        checkpoint=CheckpointPolicy(every_cycles=10),
        chaos=chaos,
    )
    assert time.monotonic() - started < 30.0  # killed, not slept out
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"  # retried, hung again, quarantined
    assert all(d["status"] == "timeout" for d in outcome.detail)
    # The latest snapshot says how far the hung run got.
    assert all(d["last_committed"] is not None for d in outcome.detail)


def test_supervised_degradation_is_never_retried(tmp_path):
    outcome, _ = _supervise(DEGRADING, tmp_path, max_retries=3)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "degraded"
    assert outcome.attempts == 1  # deterministic: retrying cannot help
    assert "channel degraded" in outcome.message
    assert outcome.exit_code == EXIT_CODES["degraded"]


class _Clock:
    """Stand-in for the fleet module's ``time``: a monotonic clock that
    advances ``step`` seconds per reading (``0`` = frozen)."""

    sleep = staticmethod(time.sleep)

    def __init__(self, step):
        self.now = 1000.0
        self.step = step

    def monotonic(self):
        self.now += self.step
        return self.now

    perf_counter = monotonic


def test_supervised_failure_record_is_deterministic(tmp_path, monkeypatch):
    chaos = ChaosConfig(seed=3, kill_probability=1.0, once=False)

    def quarantine(subdir, clock_step):
        # Forked workers inherit the patched clock, so anything a worker
        # reported on its own clock would differ between the two quarantines.
        monkeypatch.setattr(fleet, "time", _Clock(clock_step))
        outcome, _ = _supervise(
            KILLABLE,
            tmp_path / subdir,
            chaos=chaos,
            max_retries=1,
            checkpoint=CheckpointPolicy(every_cycles=10),
        )
        assert isinstance(outcome, RunFailure)
        assert all(d["last_committed"] is not None for d in outcome.detail)
        return canonical_json(outcome.as_dict())

    # Wall-clock free by design: a frozen and a racing clock agree.
    assert quarantine("a", 0.0) == quarantine("b", 60.0)


def test_open_attempts_are_charged_only_when_their_owner_is_known_dead(tmp_path):
    ledger = fleet.attempts_dir(tmp_path, "sweep") / "r1"
    # A stalled worker's attempt, its lease since stolen by a worker that
    # then died mid-attempt, holding the lease.
    fleet._begin_attempt(ledger, 0, "stalled")
    dead = ClaimBoard(fleet.claims_dir(tmp_path), owner="dead")
    assert dead.try_claim("r1")
    fleet._begin_attempt(ledger, 1, "dead")
    assert fleet._read_attempts(ledger) == []  # both may still be running

    # The stalled owner holds no lease: nothing to close on its behalf.
    assert fleet._close_dead_attempts(tmp_path, "sweep", "stalled") == 0
    assert fleet._close_dead_attempts(tmp_path, "sweep", "dead") == 1
    history = fleet._read_attempts(ledger)
    assert [(d["attempt"], d["status"]) for d in history] == [(0, "crash")]
    # The dead worker's replacement, restarted under its name, takes the
    # lease over at once.
    successor = ClaimBoard(fleet.claims_dir(tmp_path), owner="dead")
    assert successor.try_acquire("r1") == "stolen"
    assert successor.stats.stolen == 1


# ---------------------------------------------------------------------------
# Grid supervision.
# ---------------------------------------------------------------------------

def test_batch_partitions_grid_into_records_and_failures(tmp_path):
    healthy = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    requests = [healthy, DEGRADING, REQUEST]
    records, stats = run_fleet(requests, tmp_path, workers=2, max_retries=1)
    failures = load_quarantine(tmp_path, stats.sweep_id)
    assert [r.request_id for r in records] == [
        healthy.request_id, REQUEST.request_id
    ]  # grid order, failure excised
    assert [f.request_id for f in failures] == [DEGRADING.request_id]
    assert failures[0].kind == "degraded"
    serial = [execute_request(healthy), execute_request(REQUEST)]
    assert [_canonical(r) for r in records] == [_canonical(r) for r in serial]


def test_batch_cache_hits_bypass_supervision_and_fresh_runs_fill_it(tmp_path):
    cache = ResultCache(tmp_path)
    warm = execute_request(REQUEST)
    cache.put(warm)
    records, stats = run_fleet([REQUEST], tmp_path, workers=1)
    assert stats.total("executed") == 0
    assert stats.total("deduped") == 1
    assert _canonical(records[0]) == _canonical(warm)

    other = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    run_fleet([other], tmp_path, workers=1)
    assert ResultCache(tmp_path).get(other) is not None  # fresh success stored
