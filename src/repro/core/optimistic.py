"""The optimistic (prediction packetizing) co-emulation engine.

This module implements the paper's contribution: the pair of channel
wrappers that let one verification domain (the *leader*) run ahead of the
other (the *lagger*) by predicting the values it would otherwise read over
the channel, buffering its own outputs in the Leader Output Buffer and
flushing them as one burst transfer.

The behaviour follows the channel-wrapper state machine of Figure 3.  Each
per-cycle pass through the state machine takes one of six paths; the engine
records which path each domain took so traces can be compared against the
paper's Table 1:

* **C-path** (conservative): conventional cycle-by-cycle synchronisation.
* **P-path** (prediction): the leader's run-ahead cycles.  The first P-path
  cycle of a transition registers a state store and still runs
  conservatively (states P-5 / P-6 in the paper).
* **S-path** (synchronisation): the leader flushes the LOB and waits for the
  lagger's report; on a reported misprediction it stores the actual response
  and requests a state restore.
* **L-path** (lagger): the lagger's follow-up cycles, each checking one
  prediction.
* **R-path** (report): the lagger reports that every prediction was correct.
* **F-path** (roll-forth): the leader re-executes committed cycles after a
  rollback.

Relation to the transition steps (Table 1): RA = leader on P-path while the
lagger sits on L/R/C; FU = leader on S-path, lagger on L-path; RB = the state
restore triggered from the S-path; RF = leader on F-path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..ahb.bus import DriveValues
from ..ahb.half_bus import drives_functionally_equal, merge_boundary_drives
from ..ahb.signals import AddressPhase, BusCycleRecord, DataPhaseResult, HTrans
from ..ahb.transaction import CompletedBeat
from ..sim.component import Domain
from .coemulation import CoEmulationConfig, CoEmulationEngineBase, CoEmulationResult
from .domain import DomainHost
from .lob import LeaderOutputBuffer, LobEntry
from .modes import ModeDecision, OperatingMode, policy_for_mode
from .prediction import PredictionStats
from .transition import TransitionOutcome, TransitionRecord


_INF = float("inf")


class CwPath(str, Enum):
    """The six operation paths of the channel wrapper (Figure 3)."""

    CONSERVATIVE = "C"
    PREDICTION = "P"
    SYNCHRONIZATION = "S"
    LAGGER = "L"
    REPORT = "R"
    ROLL_FORTH = "F"


@dataclass
class PathTraceEntry:
    """One unit-cycle operation of one channel wrapper."""

    domain: Domain
    cycle: int
    path: CwPath


@dataclass
class OptimisticRunTrace:
    """Optional per-cycle path trace (kept only when enabled)."""

    enabled: bool = False
    entries: List[PathTraceEntry] = field(default_factory=list)

    def record(self, domain: Domain, cycle: int, path: CwPath) -> None:
        if self.enabled:
            self.entries.append(PathTraceEntry(domain=domain, cycle=cycle, path=path))

    def paths_for(self, domain: Domain) -> List[CwPath]:
        return [entry.path for entry in self.entries if entry.domain is domain]


class OptimisticCoEmulation(CoEmulationEngineBase):
    """Prediction-and-rollback synchronisation between the topology domains.

    One domain leads; every other domain is a lagger.  With two domains this
    is exactly the paper's scheme; with N domains the leader predicts the
    merged boundary values of all laggers, flushes the LOB to each of them,
    and the laggers replay the buffered cycles in lock step among themselves.

    This is the scalar reference loop.  The registered ``optimistic`` engine
    (:class:`~repro.core.batch.OptimisticBatchCoEmulation`) batches its two
    inner loops and must match it bit for bit.
    """

    def __init__(
        self,
        partition,
        acc_hbm=None,
        config: Optional[CoEmulationConfig] = None,
        trace_paths: bool = False,
    ) -> None:
        super().__init__(partition, acc_hbm, config)
        config = self.config
        if config.mode is OperatingMode.CONSERVATIVE:
            raise ValueError(
                "OptimisticCoEmulation requires an optimistic mode (SLA / ALS / AUTO); "
                "use ConventionalCoEmulation for the conservative baseline"
            )
        self.policy = policy_for_mode(config.mode, topology=self.topology)
        self.lob = LeaderOutputBuffer(config.lob_depth)
        self.trace = OptimisticRunTrace(enabled=trace_paths)

    # -- top level -----------------------------------------------------------------
    def run(self) -> CoEmulationResult:
        """Run ``config.total_cycles`` committed target cycles."""
        total = self.config.total_cycles
        while self.ledger.committed_cycles < total:
            self._safe_point()
            if self.config.stop_when_workload_done and self._workload_done():
                break
            decision = self._decide_mode()
            if not decision.optimistic:
                self._traced_conservative_cycle()
                continue
            leader = self.host_for(decision.leader)
            self._run_transition(leader, remaining=total - self.ledger.committed_cycles)
        prediction = self._combined_prediction_stats()
        return self._build_result(self.config.mode, prediction=prediction, lob=self.lob.stats.as_dict())

    # -- mode decision -----------------------------------------------------------------
    def _decide_mode(self) -> ModeDecision:
        if len(self._host_list) == 1:
            # No laggers, no channel: optimism could only add checkpoint
            # overhead, so a single-domain topology always runs conservative.
            return ModeDecision(
                optimistic=False,
                reason="single-domain topology has no remote values to predict",
            )
        candidates: Dict[Domain, bool] = {}
        for domain, host in self.hosts.items():
            candidates[domain] = (
                host.predictor.can_predict(host.needed_fields())
                if host.predictor is not None
                else False
            )
        return self.policy.decide(candidates)

    def _traced_conservative_cycle(self) -> None:
        if self.trace.enabled:
            cycle = self._host_list[0].current_cycle
            for host in self._host_list:
                self.trace.record(host.domain, cycle, CwPath.CONSERVATIVE)
        self.run_conservative_cycle()

    # -- one transition ------------------------------------------------------------------
    def _run_transition(self, leader: DomainHost, remaining: int) -> TransitionRecord:
        laggers = self.peer_hosts(leader)
        predictor = leader.predictor
        assert predictor is not None
        record = self.transitions.new_record(leader.domain, leader.current_cycle)

        # First P-path cycle: register the state store and run conservatively
        # (paper states P-5 / P-6).  The stored state is the leader state
        # *after* this cycle completes.
        self.trace.record(leader.domain, leader.current_cycle, CwPath.PREDICTION)
        for lagger in laggers:
            self.trace.record(lagger.domain, lagger.current_cycle, CwPath.CONSERVATIVE)
        self.run_conservative_cycle()
        remaining -= 1
        leader.store_checkpoint(label=f"transition_{record.index}")

        # Run-Ahead step: leader proceeds, predicting the laggers' values.
        run_ahead_budget = min(self.config.lob_depth, max(remaining, 0))
        entries = self._run_ahead(leader, predictor, record, run_ahead_budget)
        if not entries:
            # Degenerate transition: the leader could not predict even one
            # cycle.  The state store was wasted overhead (paper footnote 6).
            leader.discard_checkpoint()
            record.outcome = TransitionOutcome.DEGENERATE
            return record

        # Synchronisation: flush the LOB to every lagger as one burst access
        # per sync channel.
        flush_words = self._flush_lob(leader, laggers, entries, record)
        record.flush_words = flush_words

        # Follow-Up step: the laggers replay the buffered cycles in lock
        # step, checking each prediction.
        failure_index, failure_reason, injected, actual_drive, actual_response = (
            self._follow_up(laggers, predictor, entries)
        )

        if failure_index is None:
            self._finish_success(leader, laggers, record, entries)
        else:
            self._finish_misprediction(
                leader,
                laggers,
                record,
                entries,
                failure_index,
                failure_reason,
                injected,
                actual_drive,
                actual_response,
            )
        return record

    # -- RA step ------------------------------------------------------------------------------
    def _run_ahead(
        self,
        leader: DomainHost,
        predictor,
        record: TransitionRecord,
        budget: int,
    ) -> List[LobEntry]:
        ra_cycles = 0
        # Hot loop: bind the per-cycle collaborators once (every attribute
        # lookup in here runs tens of thousands of times per second), and
        # inline the DomainHost.execute_cycle wrapper -- run the half bus
        # cycle directly, then advance the clock and charge execution time
        # exactly as execute_cycle would.
        lob = self.lob
        entries: List[LobEntry] = []
        entries_append = entries.append
        depth = lob.depth
        needed_fields = leader.hbm.needed_fields
        can_predict = predictor.can_predict
        predict = predictor.predict
        observe = predictor.observe
        run_cycle = leader.hbm.run_local_cycle
        clock = leader.clock
        execution = leader.execution
        buckets = self.ledger.buckets
        category = execution.category
        seconds_per_cycle = execution._seconds_per_cycle
        trace = self.trace if self.trace.enabled else None
        # Clock and execution-time bookkeeping are accumulated locally and
        # written back once after the loop.  The float additions happen in
        # exactly the per-cycle order (bucket += spc each iteration), so the
        # modelled times stay bit-identical to per-cycle charging.
        cycle = clock.cycle
        bucket_acc = buckets[category]
        while ra_cycles < budget:
            needed = needed_fields()
            if not can_predict(needed):
                predictor.record_unpredictable()
                break
            prediction = predict(cycle, needed)
            remote_drive, remote_response = prediction.as_boundary_values(cycle)
            local_drive, local_response, _ = run_cycle(cycle, remote_drive, remote_response)
            bucket_acc += seconds_per_cycle
            # Chain the prediction state: subsequent predictions extrapolate
            # from what was just predicted.
            observe(remote_drive, remote_response)
            entries_append(
                LobEntry(
                    cycle=cycle,
                    leader_drive=local_drive,
                    leader_response=local_response,
                    prediction=prediction,
                )
            )
            if trace is not None:
                trace.record(leader.domain, cycle, CwPath.PREDICTION)
            cycle += 1
            ra_cycles += 1
            if ra_cycles >= depth:
                break
        clock.cycle = cycle
        clock.total_executed += ra_cycles
        buckets[category] = bucket_acc
        execution.cycles_charged += ra_cycles
        record.run_ahead_cycles = ra_cycles
        if not ra_cycles:
            return []
        lob.adopt(entries)
        return lob.flush()

    # -- flush (S-path, leader side) ---------------------------------------------------------------
    def _flush_lob(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        entries: List[LobEntry],
        record: TransitionRecord,
    ) -> int:
        # The flush is charged from the exact word counts the packetizer
        # would produce; the burst itself is never materialised (the laggers
        # consume the LOB entries in-process).  Each lagger receives its own
        # burst over its sync channel with the leader.  The per-entry counts
        # inline BoundaryPacketizer.cycle_word_count's arithmetic (header +
        # 2-word address phase + write data + response + read data);
        # tests/core/test_flush_words.py pins this copy to the packetizer
        # across every field combination.
        n_words = 0
        for entry in entries:
            drive = entry.leader_drive
            words = 1
            if drive.address_phase is not None:
                words += 2
            if drive.hwdata is not None:
                words += 1
            response = entry.leader_response
            if response is not None:
                words += 2 if response.hrdata is not None else 1
                words += 1  # response packet header
            prediction = entry.prediction
            if prediction is not None:
                words += 1
                if prediction.address_phase is not None:
                    words += 2
                if prediction.hwdata is not None:
                    words += 1
                predicted_response = prediction.response
                if predicted_response is not None:
                    words += 2 if predicted_response.hrdata is not None else 1
            n_words += words
        self.trace.record(leader.domain, leader.current_cycle, CwPath.SYNCHRONIZATION)
        for lagger in laggers:
            self._charge_channel(leader, lagger, n_words, purpose="lob_flush", cycle=entries[0].cycle)
        return n_words

    # -- FU step (L-path / R-path, lagger side) ---------------------------------------------------------
    def _follow_up(self, laggers: List[DomainHost], predictor, entries: List[LobEntry]):
        if not laggers:
            # Single-domain topology: nothing external was predicted, so the
            # whole run-ahead window commits unchecked.
            return None, "", False, None, None
        if len(laggers) == 1:
            return self._follow_up_single(laggers[0], predictor, entries)
        return self._follow_up_group(laggers, predictor, entries)

    def _follow_up_single(self, lagger: DomainHost, predictor, entries: List[LobEntry]):
        failure_index: Optional[int] = None
        failure_reason = ""
        injected = False
        actual_drive = None
        actual_response = None
        execute_cycle = lagger.execute_cycle
        trace = self.trace if self.trace.enabled else None
        for index, entry in enumerate(entries):
            cycle = lagger.current_cycle
            lag_drive, lag_response, _ = execute_cycle(
                entry.leader_drive, entry.leader_response
            )
            if trace is not None:
                trace.record(lagger.domain, cycle, CwPath.LAGGER)
            if entry.prediction is None:
                continue
            matched, reason = entry.prediction.check(lag_drive, lag_response)
            predictor.record_check(matched, entry.prediction.forced_failure)
            if not matched:
                failure_index = index
                failure_reason = reason
                injected = entry.prediction.forced_failure
                actual_drive = lag_drive
                actual_response = lag_response
                break
        return failure_index, failure_reason, injected, actual_drive, actual_response

    def _follow_up_group(self, laggers: List[DomainHost], predictor, entries: List[LobEntry]):
        """Multi-lagger follow-up: the laggers replay the buffered cycles in
        lock step among themselves, exchanging their own boundary values
        pairwise (conservatively) while the leader's contribution comes from
        the LOB.  The leader's prediction is checked against the *merged*
        lagger values -- exactly what the leader consumed during run-ahead.

        With sync gating enabled the pairwise exchange is both *activity
        gated* (a lagger whose drive is unchanged since it last shipped
        contributes nothing that entry) and *batched*: the changed drives of
        the whole transition travel as one burst access per ordered lagger
        pair, charged when the replay window closes -- mirroring how the
        leader's own LOB flush amortises the channel startup cost."""
        failure_index: Optional[int] = None
        failure_reason = ""
        injected = False
        actual_drive = None
        actual_response = None
        packetizer = self.packetizer
        gating = self._sync_gating
        last_broadcast = self._last_broadcast
        batched_words: Dict[Domain, int] = {}
        trace = self.trace if self.trace.enabled else None
        last_cycle = laggers[0].current_cycle
        slave_ids_of = self._slave_ids_of
        buckets = self.ledger.buckets
        quiet_until = self._quiet_until
        master_home = self._master_home
        for index, entry in enumerate(entries):
            cycle = last_cycle = laggers[0].current_cycle
            first_core = laggers[0].hbm.core
            lock_info = first_core.data_phase_info()
            if gating:
                # Quiet-lagger drive reuse under stable arbitration (same
                # reasoning as the gated conservative cycle).
                effective_grant = first_core.arbiter.current_grant
                grant_stable = effective_grant == self._last_grant
                self._last_grant = effective_grant
                owner_host = (
                    master_home.get(lock_info.owner_master_id)
                    if lock_info.active
                    else None
                )
                drive_list = []
                for src in laggers:
                    domain = src.domain
                    if (
                        grant_stable
                        and src is not owner_host
                        and quiet_until.get(domain, -1.0) == _INF
                        and not src.hbm._tick_active
                    ):
                        drive_list.append(last_broadcast[domain])
                        continue
                    drive = src.hbm.drive_phase(cycle)
                    drive_list.append(drive)
                    last = last_broadcast.get(domain)
                    if last is not None and drives_functionally_equal(drive, last):
                        continue
                    last_broadcast[domain] = drive
                    quiet_until[domain] = -1.0
                    batched_words[domain] = batched_words.get(domain, 0) + (
                        packetizer.drive_word_count(drive)
                    )
            else:
                drive_list = [lagger.hbm.drive_phase(cycle) for lagger in laggers]
                for src_index, src in enumerate(laggers):
                    words = packetizer.drive_word_count(drive_list[src_index])
                    for dst in laggers:
                        if dst is not src:
                            self._charge_channel(
                                src, dst, words, purpose="followup_exchange", cycle=cycle
                            )
            # In lock step every lagger commits the *same* merged values:
            # build the union of the leader's entry and every lagger's drive
            # once and share the resulting DriveValues across all commits
            # (master ownership is disjoint; at most one domain drives an
            # address phase / write data; committed values are read-only).
            global_drive = merge_boundary_drives([entry.leader_drive] + drive_list)
            global_phase = global_drive.address_phase
            merged = DriveValues(
                requests=global_drive.requests,
                address_phase=(
                    global_phase
                    if global_phase is not None
                    else AddressPhase.idle_phase(first_core.arbiter.current_grant)
                ),
                hwdata=global_drive.hwdata,
                interrupts=global_drive.interrupts,
            )
            # Only the domain owning the active data-phase slave can answer;
            # dispatch the response step straight to it (first lagger in
            # order, matching the ungated first-non-None rule).
            lagger_response = None
            if lock_info.active:
                slave_id = lock_info.slave_id
                for lagger in laggers:
                    if slave_id in slave_ids_of[lagger.domain]:
                        lagger_response = lagger.hbm.response_phase(cycle, merged).response
                        break
            commit_response = lagger_response or entry.leader_response or DataPhaseResult.okay()
            # Shared commit objects (see _run_conservative_cycle_gated): the
            # laggers' replicated cores all commit the same values.
            shared_record = BusCycleRecord(
                cycle=cycle,
                granted_master=first_core.arbiter.current_grant,
                address_phase=merged.address_phase,
                data_phase=first_core.data_phase,
                hwdata=merged.hwdata,
                response=commit_response,
                requests=merged.requests,
            )
            shared_beat = None
            if lock_info.active and commit_response.hready:
                phase = lock_info.address_phase
                shared_beat = CompletedBeat(
                    cycle=cycle,
                    master_id=phase.master_id,
                    address=phase.haddr,
                    write=phase.hwrite,
                    data=merged.hwdata if phase.hwrite else commit_response.hrdata,
                    hresp=commit_response.hresp,
                    hburst=phase.hburst,
                    hsize=phase.hsize,
                    first_beat=phase.htrans is HTrans.NONSEQ,
                )
            for lagger in laggers:
                lagger.hbm.commit_lockstep(
                    cycle, merged, commit_response, shared_record, shared_beat
                )
                clock = lagger.clock
                clock.cycle += 1
                clock.total_executed += 1
                execution = lagger.execution
                buckets[execution.category] += execution._seconds_per_cycle
                execution.cycles_charged += 1
                if trace is not None:
                    trace.record(lagger.domain, cycle, CwPath.LAGGER)
            if entry.prediction is None:
                continue
            merged_drive = merge_boundary_drives(drive_list)
            matched, reason = entry.prediction.check(merged_drive, lagger_response)
            predictor.record_check(matched, entry.prediction.forced_failure)
            if not matched:
                failure_index = index
                failure_reason = reason
                injected = entry.prediction.forced_failure
                actual_drive = merged_drive
                actual_response = lagger_response
                break
        if gating:
            # Charge the batched exchange: one burst access per ordered
            # lagger pair carrying every changed drive of this transition.
            for src in laggers:
                words = batched_words.get(src.domain, 0)
                if not words:
                    continue
                for dst in laggers:
                    if dst is not src:
                        self._charge_channel(
                            src, dst, words, purpose="followup_exchange", cycle=last_cycle
                        )
        return failure_index, failure_reason, injected, actual_drive, actual_response

    # -- transition epilogue -----------------------------------------------------------------------------
    def _finish_success(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        record: TransitionRecord,
        entries: List[LobEntry],
    ) -> None:
        # R-path: each lagger reports success (one channel access per sync
        # channel).  The reply carries the lagger's current boundary outputs,
        # mirroring the conventional read the leader skipped on its final
        # run-ahead cycle.
        report_words = self.packetizer.cycle_word_count()
        for lagger in laggers:
            self.trace.record(lagger.domain, lagger.current_cycle, CwPath.REPORT)
            self._charge_channel(
                lagger, leader, report_words, purpose="followup_success", cycle=lagger.current_cycle
            )
        leader.discard_checkpoint()
        if self._sync_gating and entries:
            # The flush shipped the leader's drives: the channels now
            # remember the last consumed entry.
            self._last_broadcast[leader.domain] = entries[-1].leader_drive
            self._quiet_until[leader.domain] = -1.0
        committed = len(entries)
        self.ledger.commit_cycles(committed)
        record.committed_cycles = committed
        record.outcome = TransitionOutcome.SUCCESS

    def _finish_misprediction(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        record: TransitionRecord,
        entries: List[LobEntry],
        failure_index: int,
        failure_reason: str,
        injected: bool,
        actual_drive,
        actual_response,
    ) -> None:
        predictor = leader.predictor
        assert predictor is not None
        # L-5 / L-6: each lagger reports the prediction failure together with
        # the actual values for the failed cycle (one channel access per sync
        # channel; with several laggers the merged report is a conservative
        # upper bound on each link's payload).
        report_words = self.packetizer.drive_word_count(actual_drive)
        report_words += self.packetizer.response_word_count(actual_response)
        for lagger in laggers:
            self._charge_channel(
                lagger, leader, report_words, purpose="followup_failure", cycle=lagger.current_cycle
            )
        # S-5 / S-6 then RB step: leader stores the reported response and
        # rolls back to the checkpoint taken at the start of the transition.
        self.trace.record(leader.domain, leader.current_cycle, CwPath.SYNCHRONIZATION)
        if self._sync_gating:
            # The laggers consumed the flushed burst up to the failed entry;
            # the channels remember that drive (speculative values already
            # shipped stay shipped -- the gate state is never rolled back).
            self._last_broadcast[leader.domain] = entries[failure_index].leader_drive
            self._quiet_until[leader.domain] = -1.0
        leader.restore_checkpoint()
        # RF step (F-path): the leader re-executes the cycles the lagger has
        # already committed.  For the validated prefix the (correct)
        # predictions are re-used; the failed cycle uses the actual values
        # reported by the lagger.
        for index in range(failure_index + 1):
            entry = entries[index]
            if index < failure_index:
                remote_drive, remote_response = entry.prediction.as_boundary_values(entry.cycle)
            else:
                remote_drive, remote_response = actual_drive, actual_response
            leader.execute_cycle(remote_drive, remote_response)
            predictor.observe(remote_drive, remote_response)
            self.trace.record(leader.domain, entry.cycle, CwPath.ROLL_FORTH)
        committed = failure_index + 1
        self.ledger.commit_cycles(committed)
        record.committed_cycles = committed
        record.roll_forth_cycles = committed
        record.outcome = TransitionOutcome.MISPREDICTION
        record.failure_position = failure_index
        record.failure_reason = failure_reason
        record.forced_failure = injected

    # -- reporting ------------------------------------------------------------------------------------------
    def _combined_prediction_stats(self) -> PredictionStats:
        combined = PredictionStats()
        for host in self._host_list:
            if host.predictor is None:
                continue
            stats = host.predictor.stats
            combined.predictions_made += stats.predictions_made
            combined.predictions_checked += stats.predictions_checked
            combined.predictions_correct += stats.predictions_correct
            combined.real_failures += stats.real_failures
            combined.injected_failures += stats.injected_failures
            combined.unpredictable_cycles += stats.unpredictable_cycles
        return combined
