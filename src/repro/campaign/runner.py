"""Campaign driver: run TG over an error list and report Table-1 statistics.

An error counts as **detected** only when the whole chain succeeds: TG finds
a test, the test realizes as an instruction program, and the program
distinguishes the erroneous implementation from the ISA specification by
co-simulation.  Everything else is **aborted** — the same accounting as the
paper's Table 1.

This module holds the per-error pipeline and the vehicle hooks.  The
campaign loop itself (dispatch, fault dropping, events, checkpoints) is
:class:`repro.campaign.orchestrator.CampaignOrchestrator`, which
:meth:`CampaignBase.run` drives with ``jobs=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

from repro.core import clock
from repro.core.tg import TestGenerator, TGStatus
from repro.errors.models import DesignError
from repro.model.processor import Processor


@dataclass
class ErrorOutcome:
    """Per-error campaign record."""

    error: str
    detected: bool
    test_length: int = 0
    nontrivial_instructions: int = 0
    backtracks: int = 0
    final_backtracks: int = 0
    attempts: int = 0
    seconds: float = 0.0
    failure_stage: str = ""  # "", "tg", "realize", "isa-check", "worker"
    #: Set when error simulation (fault dropping) detected this error with
    #: a test generated for another error, skipping TG entirely.
    dropped_by: str = ""
    #: CPU seconds per TG engine phase (dptrace/ctrljust/dprelax/cosim).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Golden-trace cache traffic during this error's exposure checks.
    golden_hits: int = 0
    golden_misses: int = 0
    #: Exposure checks screened by a cone fork / decided without a full
    #: bad-machine co-simulation (see ``repro.datapath.faultsim``).
    exposure_forks: int = 0
    exposure_fork_decided: int = 0
    #: Search-accelerator traffic (see ``repro.core.nogoods``): memoized
    #: justification answers, path-set cache hits/misses, and full C/O
    #: sweeps the incremental DPTRACE avoided.
    justify_cache_hits: int = 0
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    dptrace_sweeps_avoided: int = 0
    #: CDCL refuter activity (see ``repro.core.clauses``): conflicts
    #: analyzed, 1-UIP clauses learned, non-chronological backjumps,
    #: certificate hits from the clause DB, and windows proven
    #: unjustifiable (refuted instead of search-exhausted).
    conflicts: int = 0
    learned_clauses: int = 0
    backjumps: int = 0
    clause_hits: int = 0
    refuted_unjustifiable: int = 0
    #: CPU seconds this error actually consumed (:mod:`repro.core.clock`
    #: delta around TG + realization + ISA check), next to the wall-clock
    #: ``seconds``.
    cpu_seconds: float = 0.0
    #: The TG abort was forced by the CPU deadline: the outcome is
    #: time-bound (taint) and nothing was learned from it.
    deadline_hit: bool = False


_OUTCOME_FIELDS = frozenset(f.name for f in fields(ErrorOutcome))


def outcome_from_dict(data: dict[str, Any]) -> ErrorOutcome:
    """Rebuild an outcome from its ``vars()`` dictionary (checkpoint
    lines, run reports, worker replies).

    Keys that are not outcome fields are dropped: checkpoints and reports
    written by earlier releases carry counters of retired search layers,
    and they must still load and resume.
    """
    return ErrorOutcome(**{
        key: value for key, value in data.items() if key in _OUTCOME_FIELDS
    })


@dataclass
class CampaignReport:
    """Aggregate campaign statistics in the shape of Table 1."""

    outcomes: list[ErrorOutcome] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Set when the run was stopped cooperatively (SIGINT, service drain)
    #: before the error list was exhausted; the outcomes cover only the
    #: completed prefix.
    interrupted: bool = False

    @property
    def n_errors(self) -> int:
        return len(self.outcomes)

    @property
    def n_detected(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def n_aborted(self) -> int:
        return self.n_errors - self.n_detected

    @property
    def detection_rate(self) -> float:
        return self.n_detected / self.n_errors if self.n_errors else 0.0

    @property
    def avg_test_length(self) -> float:
        lengths = [o.test_length for o in self.outcomes if o.detected]
        return sum(lengths) / len(lengths) if lengths else 0.0

    @property
    def backtracks_detected(self) -> int:
        """Backtracks of the successful searches only, summed over the
        detected errors — the paper's Table 1 accounting (their 50)."""
        return sum(o.final_backtracks for o in self.outcomes if o.detected)

    @property
    def backtracks_total(self) -> int:
        """All backtracks spent, including failed exploration rounds."""
        return sum(o.backtracks for o in self.outcomes)

    @property
    def cpu_minutes(self) -> float:
        return self.total_seconds / 60.0

    def table1(self, title: str = "Test generation for bus SSL errors") -> str:
        """Render the campaign in the paper's Table 1 format."""
        rows = [
            ("No. of errors", f"{self.n_errors}"),
            ("No. of errors detected", f"{self.n_detected}"),
            ("No. of errors aborted", f"{self.n_aborted}"),
            ("Average test sequence length", f"{self.avg_test_length:.1f}"),
            (
                "No. of backtracks (detected errors only)",
                f"{self.backtracks_detected}",
            ),
            ("CPU time [minutes]", f"{self.cpu_minutes:.1f}"),
        ]
        width = max(len(r[0]) for r in rows) + 2
        lines = [title, "-" * (width + 8)]
        lines += [f"{name:<{width}}{value:>6}" for name, value in rows]
        return "\n".join(lines)


#: TG statistics that travel from ``TGResult`` onto ``ErrorOutcome`` and
#: into the ``error-profile`` / ``profile-summary`` events, in payload order.
TG_COUNTERS = (
    "golden_hits", "golden_misses", "exposure_forks", "exposure_fork_decided",
    "backtracks", "justify_cache_hits", "path_cache_hits",
    "path_cache_misses", "dptrace_sweeps_avoided",
    "conflicts", "learned_clauses", "backjumps", "clause_hits",
    "refuted_unjustifiable",
)


def _outcome_from_result(error: DesignError, result) -> ErrorOutcome:
    """The (not-yet-detected) outcome skeleton carrying TG's statistics."""
    return ErrorOutcome(
        error=error.describe(),
        detected=False,
        final_backtracks=result.final_backtracks,
        attempts=result.attempts,
        phase_seconds=dict(result.phase_seconds),
        deadline_hit=result.deadline_hit,
        **{name: getattr(result, name) for name in TG_COUNTERS},
    )


class CampaignBase:
    """Shared campaign machinery over a concrete test vehicle.

    The per-error pipeline (:meth:`_run_error_with_test`) is shared;
    subclasses provide the vehicle hooks it and the orchestrator need:
    realizing a TG test as a program, re-checking a realized test against
    an error (ISA check and fault dropping) and (de)serializing realized
    tests so they can cross a process boundary or land in a checkpoint.
    """

    #: The orchestrator target name (``OrchestratorConfig.target``).
    target: str
    processor: Processor
    generator: TestGenerator

    def default_errors(self, **kwargs) -> list[DesignError]:
        raise NotImplementedError

    def _realize(self, test):
        """The realized program for a TG test, or None when it does not
        realize."""
        raise NotImplementedError

    def _run_error_with_test(self, error: DesignError):
        """Run TG + realization + ISA check; return ``(outcome, realized)``
        where ``realized`` is the realized test when detected, else None."""
        start = time.monotonic()
        cpu_start = clock.cpu_time()
        result = self.generator.generate(error)
        outcome = _outcome_from_result(error, result)
        realized = None
        if result.status is not TGStatus.DETECTED:
            outcome.failure_stage = "tg"
        else:
            realized = self._realize(result.test)
            if realized is None:
                outcome.failure_stage = "realize"
            elif self.detects_realized(realized, error):
                outcome.detected = True
                outcome.test_length = len(realized.program)
                outcome.nontrivial_instructions = self.nontrivial_count(
                    realized.program
                )
            else:
                outcome.failure_stage = "isa-check"
                realized = None
        outcome.cpu_seconds = clock.cpu_time() - cpu_start
        outcome.seconds = time.monotonic() - start
        return outcome, realized

    def detects_realized(self, realized, error: DesignError) -> bool:
        """Does an already-realized test also detect ``error``?"""
        raise NotImplementedError

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        """``[self.detects_realized(realized, e) for e in errors]``.

        Vehicles with a batch fault simulator override this to run the
        fault-free trace once and cone-fork all errors against it; the
        base implementation just loops.
        """
        return [self.detects_realized(realized, e) for e in errors]

    def nontrivial_count(self, program) -> int:
        """Instructions in ``program`` other than NOP."""
        raise NotImplementedError

    def serialize_realized(self, realized) -> dict[str, Any]:
        raise NotImplementedError

    def deserialize_realized(self, data: dict[str, Any]):
        raise NotImplementedError

    def run_error(self, error: DesignError) -> ErrorOutcome:
        outcome, _ = self._run_error_with_test(error)
        return outcome

    def dropped_outcome(self, other: DesignError, realized,
                        dropper: str) -> ErrorOutcome:
        """The record for an error detected by another error's test."""
        return ErrorOutcome(
            error=other.describe(),
            detected=True,
            test_length=len(realized.program),
            nontrivial_instructions=self.nontrivial_count(realized.program),
            dropped_by=dropper,
        )

    def run(
        self,
        errors: Sequence[DesignError],
        error_simulation: bool = False,
    ) -> CampaignReport:
        """Run the campaign in this process (the orchestrator's loop with
        ``jobs=1``).

        With ``error_simulation`` enabled (the paper's stated future
        improvement: "no error simulation was used in this preliminary
        implementation"), every test that detects its target error is also
        simulated against the remaining errors, and the ones it detects are
        dropped from the TG work list.
        """
        from repro.campaign.orchestrator import (
            CampaignOrchestrator,
            OrchestratorConfig,
        )

        config = OrchestratorConfig(
            target=self.target,
            deadline_seconds=self.generator.deadline_seconds,
            error_simulation=error_simulation,
        )
        return CampaignOrchestrator(config, campaign=self).run(errors)


class DlxCampaign(CampaignBase):
    """Table-1 campaign on the DLX (bus SSL errors in EX/MEM/WB)."""

    target = "dlx"

    def __init__(
        self,
        processor: Processor | None = None,
        deadline_seconds: float = 20.0,
    ) -> None:
        from repro.dlx import build_dlx
        from repro.dlx.env import dlx_exposure_comparator

        self.processor = processor or build_dlx()
        self.generator = TestGenerator(
            self.processor,
            deadline_seconds=deadline_seconds,
            exposure_comparator=dlx_exposure_comparator,
        )

    def default_errors(
        self, max_bits_per_net: int | None = 4
    ) -> list[DesignError]:
        """Bus SSL errors in the execute, memory and write-back stages.

        With the default bit sampling (3 low bits + MSB per net, both
        polarities) the campaign size lands near the paper's 298 errors;
        ``max_bits_per_net=None`` enumerates every bit.
        """
        from repro.dlx.datapath import STAGE_EX, STAGE_MEM, STAGE_WB
        from repro.errors.models import enumerate_bus_ssl

        return enumerate_bus_ssl(
            self.processor.datapath,
            stages={STAGE_EX, STAGE_MEM, STAGE_WB},
            max_bits_per_net=max_bits_per_net,
        )

    def _realize(self, test):
        from repro.dlx.realize import RealizationError, realize

        try:
            return realize(self.processor, test)
        except RealizationError:
            return None

    def detects_realized(self, realized, error: DesignError) -> bool:
        from repro.dlx import detects

        return detects(
            self.processor, realized.program, error,
            realized.init_regs, realized.init_memory,
        )

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        from repro.dlx.env import batch_detects

        return batch_detects(
            self.processor, realized.program, errors,
            realized.init_regs, realized.init_memory,
        )

    def nontrivial_count(self, program) -> int:
        from repro.dlx.isa import NOP

        return sum(1 for i in program if i != NOP)

    def serialize_realized(self, realized) -> dict[str, Any]:
        from repro.campaign.serialize import realized_dlx_to_dict

        return realized_dlx_to_dict(realized)

    def deserialize_realized(self, data: dict[str, Any]):
        from repro.campaign.serialize import realized_dlx_from_dict

        return realized_dlx_from_dict(data)


class MiniCampaign(CampaignBase):
    """The same campaign on MiniPipe (execute/write-back stages)."""

    target = "mini"

    def __init__(
        self,
        processor: Processor | None = None,
        deadline_seconds: float = 10.0,
    ) -> None:
        from repro.mini import build_minipipe

        self.processor = processor or build_minipipe()
        self.generator = TestGenerator(
            self.processor, deadline_seconds=deadline_seconds
        )

    def default_errors(
        self, max_bits_per_net: int | None = None
    ) -> list[DesignError]:
        from repro.errors.models import enumerate_bus_ssl

        return enumerate_bus_ssl(
            self.processor.datapath,
            stages={1, 2},
            max_bits_per_net=max_bits_per_net,
        )

    def _realize(self, test):
        from repro.mini.realize import RealizationError, realize

        try:
            return realize(test)
        except RealizationError:
            return None

    def detects_realized(self, realized, error: DesignError) -> bool:
        from repro.mini import detects

        return detects(
            self.processor, realized.program, error, realized.init_regs
        )

    def detects_realized_batch(
        self, realized, errors: Sequence[DesignError]
    ) -> list[bool]:
        from repro.mini.spec import batch_detects

        return batch_detects(
            self.processor, realized.program, errors, realized.init_regs
        )

    def nontrivial_count(self, program) -> int:
        from repro.mini.isa import NOP

        return sum(1 for i in program if i != NOP)

    def serialize_realized(self, realized) -> dict[str, Any]:
        from repro.campaign.serialize import realized_mini_to_dict

        return realized_mini_to_dict(realized)

    def deserialize_realized(self, data: dict[str, Any]):
        from repro.campaign.serialize import realized_mini_from_dict

        return realized_mini_from_dict(data)
