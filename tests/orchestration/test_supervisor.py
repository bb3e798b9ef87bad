"""Supervised execution: watchdog, retry, quarantine, exit-code taxonomy.

These tests spawn real child processes (the supervisor's unit of isolation
is a process -- a hung engine cannot be un-hung from inside).  Runs are kept
tiny and deadlines tight so the suite stays fast.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.orchestration import (
    EXIT_CODES,
    ChaosConfig,
    ResultCache,
    RunFailure,
    SupervisorPolicy,
    CheckpointPolicy,
    execute_request,
    failures_path,
    load_failures,
    quarantine_report,
    run_supervised,
    run_supervised_batch,
    sweep_exit_code,
    write_failures,
)
from repro.orchestration import supervisor
from repro.orchestration.request import RunRecord, RunRequest, canonical_json

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
# Policy and failure record plumbing (no child processes).
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(deadline=0)
    with pytest.raises(ValueError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(poll_interval=0)


def test_policy_backoff_is_exponential_and_capped():
    policy = SupervisorPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(10) == pytest.approx(0.5)  # capped


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
# Supervised execution (child processes).
# ---------------------------------------------------------------------------

def test_supervised_success_matches_plain_execution(tmp_path):
    outcome = run_supervised(REQUEST, tmp_path)
    assert isinstance(outcome, RunRecord)
    assert _canonical(outcome) == _canonical(execute_request(REQUEST))


def test_supervised_retry_resumes_after_chaos_kill(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0)  # SIGKILL mid-run, once
    outcome = run_supervised(
        KILLABLE,
        tmp_path / "snaps",
        policy=SupervisorPolicy(checkpoint=CheckpointPolicy(every_cycles=25)),
        chaos=chaos,
        chaos_state_dir=tmp_path / "chaos",
    )
    assert isinstance(outcome, RunRecord)
    assert _canonical(outcome) == _canonical(execute_request(KILLABLE))


def test_supervised_poison_after_exhausted_retries(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)  # every attempt
    outcome = run_supervised(
        KILLABLE,
        tmp_path / "snaps",
        policy=SupervisorPolicy(max_retries=2),
        chaos=chaos,
        chaos_state_dir=tmp_path / "chaos",
    )
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"
    assert outcome.attempts == 3
    assert outcome.exit_code == EXIT_CODES["poison"]
    assert [d["attempt"] for d in outcome.detail] == [0, 1, 2]
    assert all(d["exit_code"] == -9 for d in outcome.detail)  # SIGKILLed


def test_supervised_zero_retries_keeps_underlying_kind(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)
    outcome = run_supervised(
        KILLABLE,
        tmp_path / "snaps",
        policy=SupervisorPolicy(max_retries=0),
        chaos=chaos,
        chaos_state_dir=tmp_path / "chaos",
    )
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "crash"  # not escalated to poison: no retry burned
    assert outcome.attempts == 1


def test_supervised_timeout_kills_a_hung_run(tmp_path):
    chaos = ChaosConfig(
        seed=0, hang_probability=1.0, hang_seconds=60.0, once=False
    )
    outcome = run_supervised(
        KILLABLE,
        tmp_path / "snaps",
        policy=SupervisorPolicy(
            deadline=1.5, max_retries=1, checkpoint=CheckpointPolicy(every_cycles=10)
        ),
        chaos=chaos,
        chaos_state_dir=tmp_path / "chaos",
    )
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"  # retried, hung again, quarantined
    assert all(d["status"] == "timeout" for d in outcome.detail)
    # The latest snapshot says how far the hung run got.
    assert all(d["last_committed"] is not None for d in outcome.detail)


def test_supervised_degradation_is_never_retried(tmp_path):
    outcome = run_supervised(
        DEGRADING, tmp_path, policy=SupervisorPolicy(max_retries=3)
    )
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "degraded"
    assert outcome.attempts == 1  # deterministic: retrying cannot help
    assert "channel degraded" in outcome.message
    assert outcome.exit_code == EXIT_CODES["degraded"]


class _Clock:
    """Stand-in for the supervisor module's ``time``: a monotonic clock that
    advances ``step`` seconds per reading (``0`` = frozen)."""

    sleep = staticmethod(time.sleep)

    def __init__(self, step):
        self.now = 1000.0
        self.step = step

    def monotonic(self):
        self.now += self.step
        return self.now


def test_supervised_failure_record_is_deterministic(tmp_path, monkeypatch):
    chaos = ChaosConfig(seed=3, kill_probability=1.0, once=False)
    # Forked children inherit the patched clock, so anything the child
    # reports on its own clock would differ between the two quarantines.
    policy = SupervisorPolicy(
        max_retries=1, checkpoint=CheckpointPolicy(every_cycles=10), mp_context="fork"
    )

    def quarantine(subdir, clock_step):
        monkeypatch.setattr(supervisor, "time", _Clock(clock_step))
        outcome = run_supervised(
            KILLABLE,
            tmp_path / subdir / "snaps",
            policy=policy,
            chaos=chaos,
            chaos_state_dir=tmp_path / subdir / "chaos",
        )
        assert isinstance(outcome, RunFailure)
        assert all(d["last_committed"] is not None for d in outcome.detail)
        return canonical_json(outcome.as_dict())

    # Wall-clock free by design: a frozen and a racing clock agree.
    assert quarantine("a", 0.0) == quarantine("b", 60.0)


# ---------------------------------------------------------------------------
# Batch supervision.
# ---------------------------------------------------------------------------

def test_batch_partitions_grid_into_records_and_failures(tmp_path):
    healthy = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    requests = [healthy, DEGRADING, REQUEST]
    records, failures = run_supervised_batch(
        requests, tmp_path, policy=SupervisorPolicy(max_retries=1), jobs=2
    )
    assert [r.request_id for r in records] == [
        healthy.request_id, REQUEST.request_id
    ]  # grid order, failure excised
    assert [f.request_id for f in failures] == [DEGRADING.request_id]
    assert failures[0].kind == "degraded"
    serial = [execute_request(healthy), execute_request(REQUEST)]
    assert [_canonical(r) for r in records] == [_canonical(r) for r in serial]


def test_batch_cache_hits_bypass_supervision_and_fresh_runs_fill_it(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    warm = execute_request(REQUEST)
    cache.put(warm)
    hits_before = cache.stats.hits
    records, failures = run_supervised_batch([REQUEST], tmp_path / "snaps", cache=cache)
    assert not failures
    assert cache.stats.hits == hits_before + 1
    assert _canonical(records[0]) == _canonical(warm)

    other = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    records, _ = run_supervised_batch([other], tmp_path / "snaps", cache=cache)
    assert cache.get(other) is not None  # fresh success written back
