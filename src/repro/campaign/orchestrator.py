"""The campaign loop: dispatch, fault dropping, checkpoint/resume, events.

Error-targeted test generation is embarrassingly parallel per error.  One
loop (:meth:`CampaignOrchestrator._dispatch`) keeps up to ``jobs`` errors
in flight, folds each completion into the report in submission order,
emits structured events (:mod:`repro.campaign.events`), appends each
completed error to a JSONL checkpoint (:mod:`repro.campaign.checkpoint`),
and — when error simulation is enabled — simulates every finished test
against the **not-yet-dispatched tail** of the work list (the drop step).

Where an error runs is the only thing ``jobs`` changes.  ``jobs=1`` runs
it in the coordinator, on the coordinator campaign's own generator.
``jobs>1`` ships it to a ``multiprocessing`` worker pool: each worker
rebuilds the processor model once (pool initializer), runs the same
TG → realize → ISA-check pipeline and returns the :class:`ErrorOutcome`
plus the serialized realized test.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import CampaignEvent, EventStream
from repro.campaign.runner import (
    CampaignBase,
    CampaignReport,
    DlxCampaign,
    ErrorOutcome,
    MiniCampaign,
    TG_COUNTERS,
    outcome_from_dict,
)
from repro.campaign.serialize import (
    clause_records_from_wire,
    clause_records_to_wire,
    report_to_dict,
)
from repro.errors.models import DesignError

_CAMPAIGNS = {cls.target: cls for cls in (DlxCampaign, MiniCampaign)}
CAMPAIGN_TARGETS = tuple(_CAMPAIGNS)


def build_campaign(target: str, deadline_seconds: float) -> CampaignBase:
    """The campaign driver for a named test vehicle."""
    if target in _CAMPAIGNS:
        return _CAMPAIGNS[target](deadline_seconds=deadline_seconds)
    raise ValueError(
        f"unknown campaign target {target!r} (expected one of "
        f"{', '.join(CAMPAIGN_TARGETS)})"
    )


@dataclass(frozen=True)
class OrchestratorConfig:
    """Everything a campaign run needs, picklable and JSON-friendly."""

    target: str = "dlx"
    jobs: int = 1
    deadline_seconds: float = 20.0
    error_simulation: bool = False
    checkpoint_path: str | None = None
    resume: bool = False
    #: Emit per-error ``error-profile`` events (TG phase timings) and one
    #: aggregated ``profile-summary`` into the event stream / JSON report.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.target not in CAMPAIGN_TARGETS:
            raise ValueError(f"unknown campaign target {self.target!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume requires a checkpoint path")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# Per-worker-process campaign, built once by the pool initializer.  The
# processor model is deliberately NOT pickled across the process boundary;
# every worker rebuilds it from scratch.
_WORKER_CAMPAIGN: CampaignBase | None = None


def _worker_init(target: str, deadline_seconds: float) -> None:
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = build_campaign(target, deadline_seconds)


def _worker_run(item: tuple[int, DesignError, list]):
    """Run one error in the worker; pool refutation certificates both
    ways.

    The coordinator ships every certificate it knows with the task; the
    worker merges them (idempotent) before searching, and returns only
    what it learned locally since its last report (``export_records``
    drains the fresh list; merged foreign records never re-export).
    """
    index, error, clause_records = item
    clauses = _WORKER_CAMPAIGN.generator.clauses
    clauses.merge_records(clause_records_from_wire(clause_records))
    outcome, realized = _WORKER_CAMPAIGN._run_error_with_test(error)
    test = None
    if realized is not None:
        test = _WORKER_CAMPAIGN.serialize_realized(realized)
    learned = clause_records_to_wire(clauses.export_records())
    return index, vars(outcome).copy(), test, learned


class _InProcess:
    """``jobs=1``: each error runs in the coordinator at submit time, on
    the coordinator campaign's own generator, so no certificates are
    shipped.  Its exceptions propagate out of the run."""

    def __init__(self, campaign: CampaignBase, serialize: bool) -> None:
        self.campaign = campaign
        self.serialize = serialize

    def submit(self, index: int, error: DesignError) -> Future:
        outcome, realized = self.campaign._run_error_with_test(error)
        test = None
        if realized is not None and self.serialize:
            test = self.campaign.serialize_realized(realized)
        future: Future = Future()
        future.set_result((outcome, realized, test))
        return future

    def result(self, future: Future, error: DesignError):
        """``(outcome, realized, serialized test)`` of a finished error."""
        return future.result()

    def close(self) -> None:
        pass


class _Pool:
    """``jobs>1``: a worker pool.  Refutation certificates pool in the
    coordinator campaign's generator and fan back out with each
    dispatch."""

    def __init__(self, config: OrchestratorConfig,
                 campaign: CampaignBase) -> None:
        self.campaign = campaign
        self.error_simulation = config.error_simulation
        self.executor = ProcessPoolExecutor(
            max_workers=config.jobs,
            initializer=_worker_init,
            initargs=(config.target, config.deadline_seconds),
        )

    def submit(self, index: int, error: DesignError) -> Future:
        known = clause_records_to_wire(
            self.campaign.generator.clauses.all_records()
        )
        return self.executor.submit(_worker_run, (index, error, known))

    def result(self, future: Future, error: DesignError):
        """``(outcome, realized, serialized test)`` of a finished error;
        ``realized`` is rebuilt only when the drop step needs it.  A lost
        worker aborts the error, not the campaign."""
        try:
            _, outcome_dict, test, clauses = future.result()
        except Exception:
            outcome = ErrorOutcome(
                error=error.describe(), detected=False,
                failure_stage="worker",
            )
            return outcome, None, None
        self.campaign.generator.clauses.merge_records(
            clause_records_from_wire(clauses)
        )
        realized = None
        if test is not None and self.error_simulation:
            realized = self.campaign.deserialize_realized(test)
        return outcome_from_dict(outcome_dict), realized, test

    def close(self) -> None:
        self.executor.shutdown()


def campaign_run_to_dict(
    config: OrchestratorConfig,
    report: CampaignReport,
    events: Sequence[CampaignEvent] = (),
) -> dict[str, Any]:
    """Machine-readable record of a whole run (the CLI ``--json`` report)."""
    return {
        "kind": "campaign-run",
        "config": config.to_dict(),
        "report": report_to_dict(report),
        "events": [event.to_dict() for event in events],
    }


class CampaignOrchestrator:
    """Run a campaign over an error list, serial or sharded.

    Parameters
    ----------
    config:
        The run configuration (target, jobs, checkpointing, ...).
    events:
        Optional :class:`EventStream`; subscribe renderers/loggers before
        calling :meth:`run`.  A fresh private stream is created otherwise.
    campaign:
        Optional pre-built campaign driver for the coordinator process
        (error enumeration + coordinator-side fault dropping); built from
        ``config`` when omitted.
    """

    def __init__(
        self,
        config: OrchestratorConfig,
        events: EventStream | None = None,
        campaign: CampaignBase | None = None,
    ) -> None:
        self.config = config
        self.events = events if events is not None else EventStream()
        self.campaign = campaign or build_campaign(
            config.target, config.deadline_seconds
        )
        self._stop = threading.Event()

    def default_errors(self, **kwargs) -> list[DesignError]:
        return self.campaign.default_errors(**kwargs)

    def interrupt(self) -> None:
        """Request a cooperative stop (thread- and signal-safe).

        The run finishes the error(s) currently in flight, checkpoints
        them as usual, emits one ``campaign-interrupted`` event, and
        returns a report with ``interrupted=True`` covering the completed
        prefix — nothing the workers finished is lost, and a checkpointed
        run resumes with ``--resume``.
        """
        self._stop.set()

    @property
    def interrupt_requested(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, errors: Sequence[DesignError]) -> CampaignReport:
        config = self.config
        start = time.monotonic()
        report = CampaignReport()
        completed = self._load_resumed(errors, report)
        pending = [
            (index, error)
            for index, error in enumerate(errors)
            if error.describe() not in completed
        ]
        self.events.emit(
            "campaign-started",
            target=config.target,
            n_errors=len(errors),
            jobs=config.jobs,
            error_simulation=config.error_simulation,
            resumed=len(errors) - len(pending),
        )
        checkpoint = None
        if config.checkpoint_path:
            checkpoint = CampaignCheckpoint(config.checkpoint_path)
        unattempted = 0
        try:
            if pending:
                unattempted = self._dispatch(pending, report, checkpoint)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        report.total_seconds = time.monotonic() - start
        if self._stop.is_set():
            report.interrupted = True
            self.events.emit(
                "campaign-interrupted",
                completed=len(report.outcomes),
                remaining=unattempted,
                resumable=checkpoint is not None,
            )
        if config.profile:
            self._emit_profile_summary(report)
        self.events.emit(
            "campaign-finished",
            n_errors=report.n_errors,
            n_detected=report.n_detected,
            n_aborted=report.n_aborted,
            backtracks=report.backtracks_total,
            wall_seconds=report.total_seconds,
        )
        return report

    def _load_resumed(
        self, errors: Sequence[DesignError], report: CampaignReport
    ) -> set[str]:
        """Seed ``report`` with checkpointed outcomes; return their keys.

        Last record wins per error.  This release writes one record per
        error; earlier releases could append a second one for a retried
        error, and that retry is the outcome to keep.
        """
        if not self.config.resume:
            return set()
        wanted = {error.describe() for error in errors}
        positions: dict[str, int] = {}
        for record in CampaignCheckpoint.load(self.config.checkpoint_path):
            name = record.outcome.error
            if name not in wanted:
                continue
            if name in positions:
                report.outcomes[positions[name]] = record.outcome
            else:
                report.outcomes.append(record.outcome)
                positions[name] = len(report.outcomes) - 1
        return set(positions)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        pending: list[tuple[int, DesignError]],
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> int:
        """Run ``pending`` with up to ``jobs`` errors in flight; return how
        many were never dispatched.

        The stop flag is polled before each dispatch: an interrupt lets
        the in-flight errors finish and checkpoint, and leaves the queued
        tail unattempted.
        """
        config = self.config
        queue: deque[tuple[int, DesignError]] = deque(pending)
        in_flight: dict[Future, tuple[int, DesignError]] = {}
        if config.jobs == 1:
            workers = _InProcess(self.campaign, checkpoint is not None)
        else:
            workers = _Pool(config, self.campaign)
        try:
            while True:
                while (queue and len(in_flight) < config.jobs
                       and not self._stop.is_set()):
                    index, error = queue.popleft()
                    self.events.emit(
                        "error-started", error=error.describe(), index=index
                    )
                    in_flight[workers.submit(index, error)] = (index, error)
                if not in_flight:
                    return len(queue)
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                # Completions are folded in submission order.
                for future in sorted(done, key=lambda f: in_flight[f][0]):
                    index, error = in_flight.pop(future)
                    outcome, realized, test = workers.result(future, error)
                    self._complete(
                        index, outcome, realized, test, queue, report,
                        checkpoint,
                    )
        finally:
            workers.close()

    def _complete(
        self,
        index: int,
        outcome: ErrorOutcome,
        realized,
        test: dict[str, Any] | None,
        queue: deque,
        report: CampaignReport,
        checkpoint: CampaignCheckpoint | None,
    ) -> None:
        """Record one finished error, then drop from ``queue`` every error
        its test also detects (the drop step; its time is charged to the
        outcome before ``error-finished`` reports it)."""
        report.outcomes.append(outcome)
        dropped: list[ErrorOutcome] = []
        if self.config.error_simulation and realized is not None and queue:
            drop_start = time.monotonic()
            verdicts = self.campaign.detects_realized_batch(
                realized, [other for _, other in queue]
            )
            survivors = []
            for (other_index, other), hit in zip(queue, verdicts):
                if hit:
                    dropped.append(self.campaign.dropped_outcome(
                        other, realized, outcome.error
                    ))
                else:
                    survivors.append((other_index, other))
            queue.clear()
            queue.extend(survivors)
            report.outcomes.extend(dropped)
            drop_seconds = time.monotonic() - drop_start
            outcome.seconds += drop_seconds
        self._emit_finished(outcome, index)
        self._write_checkpoint(checkpoint, outcome, test)
        if dropped:
            self.events.emit(
                "test-dropped-others",
                error=outcome.error,
                dropped=[record.error for record in dropped],
                seconds=drop_seconds,
            )
            for record in dropped:
                self._write_checkpoint(checkpoint, record, None)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _emit_finished(self, outcome: ErrorOutcome, index: int) -> None:
        self.events.emit(
            "error-finished",
            error=outcome.error,
            index=index,
            detected=outcome.detected,
            failure_stage=outcome.failure_stage,
            test_length=outcome.test_length,
            backtracks=outcome.backtracks,
            final_backtracks=outcome.final_backtracks,
            attempts=outcome.attempts,
            seconds=outcome.seconds,
            cpu_seconds=outcome.cpu_seconds,
        )
        if self.config.profile:
            self.events.emit(
                "error-profile",
                error=outcome.error,
                index=index,
                phase_seconds=dict(outcome.phase_seconds),
                **{name: getattr(outcome, name) for name in TG_COUNTERS},
                deadline_hit=outcome.deadline_hit,
            )

    def _emit_profile_summary(self, report: CampaignReport) -> None:
        phase_seconds: dict[str, float] = {}
        for outcome in report.outcomes:
            for phase, seconds in outcome.phase_seconds.items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        self.events.emit(
            "profile-summary",
            phase_seconds=phase_seconds,
            **{
                name: sum(getattr(o, name) for o in report.outcomes)
                for name in TG_COUNTERS
            },
        )

    def _write_checkpoint(
        self,
        checkpoint: CampaignCheckpoint | None,
        outcome: ErrorOutcome,
        test: dict[str, Any] | None,
    ) -> None:
        if checkpoint is None:
            return
        checkpoint.append(outcome, test)
        self.events.emit(
            "checkpoint-written",
            path=checkpoint.path,
            records=checkpoint.n_written,
            error=outcome.error,
        )
