"""Batched inner loops of the registered ``optimistic`` engine.

The scalar :class:`~repro.core.optimistic.OptimisticCoEmulation` pays one
full Python dispatch round per target cycle even when the modelled system is
provably quiescent (every master parked, no data phase in flight,
predictions at their all-idle fixed point).  The engine here detects such
stretches and advances them as one batched step:

* the *quiescence detector* (:meth:`HalfBusModel.idle_stationary` plus the
  per-master :meth:`~repro.ahb.master.AhbMaster.next_activity_cycle` horizon)
  proves that ``k`` upcoming cycles are identical all-idle fixed-point
  cycles;
* the *fast-forward* applies exactly the state transitions the ``k`` scalar
  cycles would have applied -- same cycle records, same channel accesses in
  the same order, same float-accumulation sequences (via
  :mod:`repro.sim.batchmath`), same RNG draw order -- without re-entering
  per-cycle dispatch.

The engine is bit-identical to the scalar reference on every modelled
quantity; the golden regression digests and the engine-vs-reference
equivalence suites enforce this.  The conservative counterpart (idle
fast-forward plus trace replay) lives in :mod:`repro.core.trace`.
"""

from __future__ import annotations

from typing import List, Optional

from ..ahb.half_bus import _NO_INTERRUPTS, BoundaryDrive
from ..ahb.signals import AddressPhase, BusCycleRecord, DataPhaseResult
from ..sim.batchmath import repeat_add
from .domain import DomainHost
from .engine import register_engine
from .lob import LobEntry
from .modes import OperatingMode
from .optimistic import OptimisticCoEmulation
from .prediction import PredictionRecord


@register_engine(
    "optimistic",
    modes=(OperatingMode.SLA, OperatingMode.ALS, OperatingMode.AUTO),
    description="prediction-and-rollback engine (SLA / ALS / AUTO leaders)",
)
class OptimisticBatchCoEmulation(OptimisticCoEmulation):
    """Prediction-and-rollback engine with fused multi-cycle inner loops.

    The transition structure (mode decisions, checkpoints, LOB flushes,
    reports, rollback / roll-forth) is inherited unchanged from
    :class:`OptimisticCoEmulation`; only the two per-cycle inner loops are
    batched:

    * **Run-Ahead**: when the leader bus is at its structural idle fixed
      point and the predictor at its all-idle fixed point, ``k`` predicted
      cycles (up to the local-activity horizon and the LOB budget) are
      committed as one segment -- shared value-identical prediction records
      and drive objects, per-cycle forced-failure RNG draws in scalar order,
      one batched record adoption and one bit-exact batched time charge.
    * **Follow-Up** (single lagger): a run of all-idle LOB entries against an
      idle-stationary lagger replays as one segment with the per-entry
      prediction checks folded into closed-form counter updates (every check
      in such a run provably matches).

    Path-trace-enabled runs fall back to the scalar loops entirely (the trace
    is inherently per-cycle).
    """

    # -- RA step (batched) -------------------------------------------------------
    def _run_ahead(
        self,
        leader: DomainHost,
        predictor,
        record,
        budget: int,
    ) -> List[LobEntry]:
        if self.trace.enabled:
            return super()._run_ahead(leader, predictor, record, budget)
        lob = self.lob
        entries: List[LobEntry] = []
        entries_append = entries.append
        depth = lob.depth
        hbm = leader.hbm
        needed_fields = hbm.needed_fields
        can_predict = predictor.can_predict
        predict = predictor.predict
        observe = predictor.observe
        run_cycle = hbm.run_local_cycle
        clock = leader.clock
        execution = leader.execution
        buckets = self.ledger.buckets
        category = execution.category
        seconds_per_cycle = execution._seconds_per_cycle
        idle_stationary = hbm.idle_stationary
        is_idle_fixed_point = predictor.is_idle_fixed_point
        cycle = clock.cycle
        bucket_acc = buckets[category]
        ra_cycles = 0
        # The scalar loop runs while ``ra_cycles < budget`` with a secondary
        # ``>= depth`` break; ``budget <= depth`` always holds (the caller
        # clamps to the LOB depth), so one combined bound is exact.
        limit = budget if budget < depth else depth
        while ra_cycles < limit:
            needed = needed_fields()
            if not can_predict(needed):
                predictor.record_unpredictable()
                break
            if idle_stationary() and is_idle_fixed_point(needed):
                k = limit - ra_cycles
                horizon = hbm.next_local_activity(cycle)
                if horizon - cycle < k:
                    k = int(horizon - cycle)
                if k > 1 and self._run_ahead_idle_segment(
                    leader, predictor, needed, cycle, k, entries_append
                ):
                    # One batched charge replicating k sequential += adds.
                    bucket_acc = repeat_add(bucket_acc, seconds_per_cycle, k)
                    cycle += k
                    ra_cycles += k
                    continue
            prediction = predict(cycle, needed)
            remote_drive, remote_response = prediction.as_boundary_values(cycle)
            local_drive, local_response, _ = run_cycle(cycle, remote_drive, remote_response)
            bucket_acc += seconds_per_cycle
            observe(remote_drive, remote_response)
            entries_append(
                LobEntry(
                    cycle=cycle,
                    leader_drive=local_drive,
                    leader_response=local_response,
                    prediction=prediction,
                )
            )
            cycle += 1
            ra_cycles += 1
        clock.cycle = cycle
        clock.total_executed += ra_cycles
        buckets[category] = bucket_acc
        execution.cycles_charged += ra_cycles
        record.run_ahead_cycles = ra_cycles
        if not ra_cycles:
            return []
        lob.adopt(entries)
        return lob.flush()

    def _run_ahead_idle_segment(
        self,
        leader: DomainHost,
        predictor,
        needed,
        cycle: int,
        count: int,
        entries_append,
    ) -> bool:
        """Commit ``count`` all-idle run-ahead cycles as one batched segment.

        Preconditions (established by the caller): the leader bus is
        :meth:`~repro.ahb.half_bus.HalfBusModel.idle_stationary`, the
        predictor is at its all-idle fixed point for ``needed``, and every
        local master stays inactive for ``count`` cycles.  Under those
        conditions each scalar iteration produces value-identical objects --
        an all-idle prediction (``predict`` returns the remembered inactive
        remote phase itself, cycle after cycle), an all-idle local drive (the
        parked granted master returns its interned idle phase without side
        effects) and an idle commit whose ``observe`` call is a state no-op
        -- so the segment shares one prediction record and one drive object
        across its LOB entries, draws the forced-failure RNG per cycle in
        scalar order, and adopts the committed records in one step.

        Returns ``False`` (leaving no state modified) when a structural
        sanity guard fails; the caller then runs the scalar cycle.
        """
        hbm = leader.hbm
        core = hbm.core
        granted = core.arbiter.current_grant
        local_requests = {mid: drive_req(cycle) for mid, drive_req in hbm._request_drivers}
        if any(local_requests.values()):
            return False
        granted_master = hbm.local_masters.get(granted)
        local_phase = (
            granted_master.drive_address_phase(cycle, granted=True)
            if granted_master is not None
            else None
        )
        if local_phase is not None and local_phase.is_active:
            return False
        pred_requests = dict(predictor._last_requests) if needed.needs_remote_requests else None
        pred_phase = (
            predictor._last_remote_phase if needed.needs_remote_address_phase else None
        )
        shared_prediction = PredictionRecord(
            cycle=cycle, requests=pred_requests, address_phase=pred_phase
        )
        shared_drive = BoundaryDrive(
            cycle=cycle,
            requests=local_requests,
            address_phase=local_phase,
            hwdata=None,
            interrupts=_NO_INTERRUPTS,
        )
        # The merged commit values every scalar iteration would build:
        # template + local + predicted requests (all False), the local idle
        # phase (or the predicted inactive remote phase), the interned OKAY.
        merged_requests = hbm._request_template.copy()
        merged_requests.update(local_requests)
        if pred_requests:
            merged_requests.update(pred_requests)
        merged_phase = local_phase if local_phase is not None else pred_phase
        if merged_phase is None:
            merged_phase = AddressPhase.idle_phase(granted)
        okay = DataPhaseResult.okay()
        records = [
            BusCycleRecord(
                cycle=cycle + offset,
                granted_master=granted,
                address_phase=merged_phase,
                data_phase=None,
                hwdata=None,
                response=okay,
                requests=merged_requests,
            )
            for offset in range(count)
        ]
        forced = predictor.forced_accuracy
        if forced is not None and forced.accuracy < 1.0:
            # One RNG draw per prediction, in scalar order; an injected
            # failure gets its own record (the follow-up must see the flag).
            should_fail = forced.should_fail
            for offset in range(count):
                prediction = shared_prediction
                if should_fail():
                    prediction = PredictionRecord(
                        cycle=cycle + offset,
                        requests=pred_requests,
                        address_phase=pred_phase,
                        forced_failure=True,
                    )
                entries_append(
                    LobEntry(
                        cycle=cycle + offset,
                        leader_drive=shared_drive,
                        leader_response=None,
                        prediction=prediction,
                    )
                )
        else:
            for offset in range(count):
                entries_append(
                    LobEntry(
                        cycle=cycle + offset,
                        leader_drive=shared_drive,
                        leader_response=None,
                        prediction=shared_prediction,
                    )
                )
        predictor.stats.predictions_made += count
        hbm.adopt_idle_records(records, merged_requests)
        return True

    # -- FU step (batched, single lagger) -----------------------------------------
    def _follow_up_single(self, lagger: DomainHost, predictor, entries: List[LobEntry]):
        if self.trace.enabled:
            return super()._follow_up_single(lagger, predictor, entries)
        failure_index: Optional[int] = None
        failure_reason = ""
        injected = False
        actual_drive = None
        actual_response = None
        execute_cycle = lagger.execute_cycle
        n = len(entries)
        index = 0
        while index < n:
            run = self._idle_followup_run(lagger, entries, index)
            if run > 1 and self._replay_followup_idle(lagger, predictor, entries, index, run):
                index += run
                continue
            entry = entries[index]
            lag_drive, lag_response, _ = execute_cycle(
                entry.leader_drive, entry.leader_response
            )
            prediction = entry.prediction
            if prediction is not None:
                matched, reason = prediction.check(lag_drive, lag_response)
                predictor.record_check(matched, prediction.forced_failure)
                if not matched:
                    failure_index = index
                    failure_reason = reason
                    injected = prediction.forced_failure
                    actual_drive = lag_drive
                    actual_response = lag_response
                    break
            index += 1
        return failure_index, failure_reason, injected, actual_drive, actual_response

    @staticmethod
    def _entry_is_idle(entry: LobEntry) -> bool:
        """Cheap per-entry test: does this LOB entry carry only idle values?

        A qualifying entry has a non-forced prediction whose populated fields
        are all at their idle values (so its check against the lagger's idle
        actuals provably matches) and a leader contribution that commits as
        an idle cycle on the lagger's replicated core.
        """
        prediction = entry.prediction
        if prediction is None or prediction.forced_failure:
            return False
        if prediction.response is not None or prediction.hwdata is not None:
            return False
        if prediction.interrupts is not None:
            return False
        requests = prediction.requests
        if requests is not None and any(requests.values()):
            return False
        phase = prediction.address_phase
        if phase is not None and phase.is_active:
            return False
        drive = entry.leader_drive
        if (
            entry.leader_response is not None
            or drive.hwdata is not None
            or drive.interrupts
        ):
            return False
        if any(drive.requests.values()):
            return False
        drive_phase = drive.address_phase
        if drive_phase is not None and drive_phase.is_active:
            return False
        return True

    def _idle_followup_run(self, lagger: DomainHost, entries: List[LobEntry], index: int) -> int:
        """Length of the all-idle replay run starting at ``entries[index]``.

        A run qualifies when every entry passes :meth:`_entry_is_idle` and
        the lagger bus is idle-stationary with every local master inactive
        for the run's whole span.  The per-entry field tests come first so a
        busy entry -- the common case in dense traffic -- costs a few
        attribute reads, not a bus-state probe.
        """
        entry_is_idle = self._entry_is_idle
        if not entry_is_idle(entries[index]):
            return 0
        hbm = lagger.hbm
        if not hbm.idle_stationary():
            return 0
        cycle = lagger.clock.cycle
        horizon = hbm.next_local_activity(cycle)
        if horizon <= cycle:
            return 0
        limit = len(entries) - index
        span = horizon - cycle
        if span < limit:
            limit = int(span)
        run = 0
        for entry in entries[index : index + limit]:
            if not entry_is_idle(entry):
                break
            run += 1
        return run if run > 1 else 0

    def _replay_followup_idle(
        self,
        lagger: DomainHost,
        predictor,
        entries: List[LobEntry],
        index: int,
        count: int,
    ) -> bool:
        """Replay ``count`` all-idle LOB entries on the lagger in one step.

        Applies exactly what ``count`` scalar follow-up iterations would:
        idle commits on the lagger core (same per-cycle records, same merged
        phase selection), the per-cycle clock / execution-time bookkeeping
        (bit-exact batched float adds) and the closed-form outcome of the
        per-entry prediction checks (every check in a qualifying run
        matches).  Returns ``False``, leaving no state modified, when a
        structural sanity guard fails.
        """
        hbm = lagger.hbm
        core = hbm.core
        clock = lagger.clock
        cycle = clock.cycle
        granted = core.arbiter.current_grant
        local_requests = {mid: drive_req(cycle) for mid, drive_req in hbm._request_drivers}
        if any(local_requests.values()):
            return False
        granted_master = hbm.local_masters.get(granted)
        local_phase = (
            granted_master.drive_address_phase(cycle, granted=True)
            if granted_master is not None
            else None
        )
        if local_phase is not None and local_phase.is_active:
            return False
        shared_requests = hbm._request_template.copy()
        okay = DataPhaseResult.okay()
        records = []
        for offset, entry in enumerate(entries[index : index + count]):
            merged_phase = local_phase
            if merged_phase is None:
                merged_phase = entry.leader_drive.address_phase
                if merged_phase is None:
                    merged_phase = AddressPhase.idle_phase(granted)
            records.append(
                BusCycleRecord(
                    cycle=cycle + offset,
                    granted_master=granted,
                    address_phase=merged_phase,
                    data_phase=None,
                    hwdata=None,
                    response=okay,
                    requests=shared_requests,
                )
            )
        hbm.adopt_idle_records(records, shared_requests)
        clock.cycle += count
        clock.total_executed += count
        execution = lagger.execution
        buckets = self.ledger.buckets
        buckets[execution.category] = repeat_add(
            buckets[execution.category], execution._seconds_per_cycle, count
        )
        execution.cycles_charged += count
        stats = predictor.stats
        stats.predictions_checked += count
        stats.predictions_correct += count
        return True
