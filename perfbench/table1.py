"""``table1``: the DLX Table-1 campaign, cold, serial, without a deadline.

TG search (DPTRACE, CTRLJUST, CDCL, implication, DPRELAX) does almost all
the work here, and every learned store starts empty.  The per-error
deadline is off because a CPU-time cap makes effort depend on the host:
two runs of the same code at the CLI's 20 s deadline hit the cap 2 and 1
times and spent 789,984 and 825,637 backtracks, while without it effort
repeats exactly and the verdicts are those of the recorded full campaign.

The error list is the paper-ordered ``default_errors(max_bits_per_net=4)``
trimmed to every ``STRIDE``-th error (an odd stride, so both polarities
stay) plus the errors the full campaign leaves undecided: those are the
tail later work targets.  The three undecided ``setcc_ext`` errors are
left out (``reference.json`` ``excluded``): run cold, without the stores
the errors before them fill in a full campaign, the first of them alone
searches for about 50 s, longer than a whole run may take.
"""

from __future__ import annotations

import os
import time

from common import (
    WORK_CPU,
    Result,
    compare_effort,
    drift_note,
    host_slowness,
    load_reference,
    median,
    peak_rss_mb,
    pin,
    probe_setup,
    state_path,
    tail,
)

STRIDE = 7


def select_errors(campaign, reference: dict) -> list:
    errors = campaign.default_errors(max_bits_per_net=4)
    undecided = set(reference["undecided"])
    excluded = set(reference["excluded"])
    return [
        error for index, error in enumerate(errors)
        if (index % STRIDE == 0 or error.describe() in undecided)
        and error.describe() not in excluded
    ]


def build_orchestrator(checkpoint: str | None = None):
    """A cold campaign (every learned store empty) and its event stream."""
    from repro.campaign.events import EventStream
    from repro.campaign.orchestrator import (
        CampaignOrchestrator,
        OrchestratorConfig,
    )

    config = OrchestratorConfig(
        target="dlx", jobs=1, deadline_seconds=None,
        error_simulation=False, checkpoint_path=checkpoint,
    )
    return CampaignOrchestrator(config, events=EventStream())


class VerdictClock:
    """EventStream subscriber timing error-started -> error-finished.

    With ``speed``, the host's slowness is sampled before the pass and
    after every error, and each error's latency, and the pass's work time
    between samples, is divided by the mean of the samples around it
    (``common.host_slowness``): they read in reference-host seconds.  The
    host-second figures are kept beside them."""

    def __init__(self, recorder=None, speed: bool = False) -> None:
        self.recorder = recorder
        self.speed = speed
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        #: Pass time outside the speed samples (reference, host seconds).
        self.work = 0.0
        self.raw_work = 0.0
        self._started: dict[str, float] = {}
        self._slowness = 1.0
        self._mark = 0.0

    def begin(self) -> None:
        if self.speed:
            self._slowness = host_slowness()
        self._mark = time.perf_counter()

    def end(self) -> None:
        span = time.perf_counter() - self._mark
        self.raw_work += span
        self.work += span / self._slowness

    def __call__(self, event) -> None:
        if event.kind == "error-started":
            self._started[event.data["error"]] = time.perf_counter()
            if self.recorder is not None:
                self.recorder.set_tag(event.data["error"])
        elif event.kind == "error-finished":
            now = time.perf_counter()
            latency = now - self._started.pop(event.data["error"])
            after = host_slowness() if self.speed else 1.0
            slowness = (self._slowness + after) / 2
            self.raw_latencies.append(latency)
            self.latencies.append(latency / slowness)
            self.raw_work += now - self._mark
            self.work += (now - self._mark) / slowness
            self._slowness = after
            self._mark = time.perf_counter()


def effort_of(outcomes) -> dict[str, int]:
    """The deterministic effort record of one pass."""
    from layers import outcome_totals

    record = outcome_totals(vars(o) for o in outcomes)
    record["errors"] = len(outcomes)
    record["detected"] = sum(1 for o in outcomes if o.detected)
    record["test_length_sum"] = sum(o.test_length for o in outcomes)
    return record


def run_pass(reference: dict, recorder=None, speed: bool = False):
    """One cold campaign pass; returns (report, clock, wall_s, campaign)."""
    checkpoint = state_path("table1.checkpoint.jsonl")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    orchestrator = build_orchestrator(checkpoint)
    errors = select_errors(orchestrator.campaign, reference)
    clock = VerdictClock(recorder, speed)
    orchestrator.events.subscribe(clock)
    started = time.perf_counter()
    clock.begin()
    report = orchestrator.run(errors)
    clock.end()
    wall = time.perf_counter() - started
    return report, clock, wall, orchestrator.campaign


def check_verdicts(result: Result, report, campaign,
                   reference: dict) -> None:
    """Undecided errors are a subset of the recorded ones, and every
    detection holds up when its realized test is re-simulated."""
    from repro.campaign.checkpoint import CampaignCheckpoint
    from repro.dlx import detects

    for outcome in report.outcomes:
        if not outcome.detected:
            result.check(
                outcome.error in reference["undecided"],
                f"table1: {outcome.error} undecided "
                f"({outcome.failure_stage}) but detected in the record",
            )
    records = {
        record.outcome.error: record
        for record in CampaignCheckpoint.load(
            state_path("table1.checkpoint.jsonl")
        )
    }
    errors = {
        error.describe(): error
        for error in select_errors(campaign, reference)
    }
    for outcome in report.outcomes:
        if not outcome.detected:
            continue
        record = records.get(outcome.error)
        if record is None or record.test is None:
            result.check(False, f"table1: no realized test for "
                                f"{outcome.error}")
            continue
        realized = campaign.deserialize_realized(record.test)
        result.check(
            detects(campaign.processor, realized.program,
                    errors[outcome.error],
                    realized.init_regs, realized.init_memory),
            f"table1: realized test for {outcome.error} does not detect it",
        )
        result.check(
            len(realized.program) == outcome.test_length,
            f"table1: {outcome.error} test length mismatch",
        )


def run(seconds: float, traced: bool) -> Result:
    pin(WORK_CPU)
    reference = load_reference()["table1"]
    result = Result()
    if not traced:
        setups, raw_setups = probe_setup("table1")
        walls, clocks, reports, efforts = [], [], [], []
        while not walls or sum(walls) < seconds:
            report, clock, wall, campaign = run_pass(reference, speed=True)
            if not walls:
                # The peak of one cold pass.  Read before any later pass:
                # how many passes fit in ``seconds`` depends on host speed,
                # and a later pass builds its stores while the previous
                # campaign is still referenced, so the process's peak over
                # all passes would measure the host, not the program.
                rss = peak_rss_mb()
            walls.append(wall)
            clocks.append(clock)
            reports.append(report)
            efforts.append(effort_of(report.outcomes))
            check_verdicts(result, report, campaign, reference)
        for index, effort in enumerate(efforts[1:], start=2):
            compare_effort(result, f"table1 pass 1 vs {index}", efforts[0],
                           effort)
        drift_note(result, reference["effort"], efforts[0])
        outcomes = [o for report in reports for o in report.outcomes]
        _fill_end_to_end(result, setups, raw_setups, clocks, outcomes, rss)
        return result

    from layers import add_cache_counters, per_layer_metrics, layer_table
    from repro.datapath.batched import counters_delta, counters_snapshot
    from repro.service.cache import generator_cache_counters
    from spans import SpanRecorder, install

    # Traced pass first: it then starts from the same fresh process as an
    # untraced run, and the untraced pass after it carries any benefit of
    # a warmed process, so the overhead figure errs high, not low.
    recorder = SpanRecorder()
    install(recorder)
    batched_before = counters_snapshot()
    try:
        report, clock, wall, campaign = run_pass(reference, recorder)
    finally:
        recorder.uninstall()
    batched = counters_delta(batched_before)
    layers = recorder.layers()
    recorder.dump(state_path("spans-table1.json"))
    check_verdicts(result, report, campaign, reference)
    plain, _, plain_wall, _ = run_pass(reference)
    compare_effort(result, "table1 untraced vs traced",
                   effort_of(plain.outcomes), effort_of(report.outcomes))
    counts = recorder.totals()
    traced_effort = effort_of(report.outcomes)
    traced_effort.update({
        key: counts.get(key, 0) for key in
        ("dptrace.backtracks", "ctrljust.backtracks", "implication.assumes")
    })
    drift_note(result, reference["traced_effort"], traced_effort)
    caches: dict = {}
    add_cache_counters(caches, generator_cache_counters(campaign.generator))
    result.metrics = per_layer_metrics(
        layers, counts, effort_of(report.outcomes), caches, batched, {},
        wall - plain_wall,
    )
    result.attempted = report.n_errors
    result.failed = _failed(report.outcomes)
    result.notes += layer_table(layers, wall, counts)
    result.notes.append(
        f"tracing overhead: traced {wall:.3f} s - untraced "
        f"{plain_wall:.3f} s = {wall - plain_wall:.3f} s"
    )
    return result


def _failed(outcomes) -> int:
    """Operations that errored: a detection the pipeline lost after TG."""
    return sum(
        1 for o in outcomes
        if o.failure_stage in ("realize", "isa-check", "worker")
    )


def _fill_end_to_end(result: Result, setups, raw_setups, clocks,
                     outcomes, rss: float) -> None:
    latencies = [t for clock in clocks for t in clock.latencies]
    raw_latencies = [t for clock in clocks for t in clock.raw_latencies]
    detected = [o for o in outcomes if o.detected]
    tail_s, pct = tail(latencies)
    result.attempted = len(outcomes)
    result.failed = _failed(outcomes)
    result.metrics = {
        "setup_s": median(setups),
        "verdicts_per_s": len(outcomes) / sum(c.work for c in clocks),
        "verdict_p50_s": median(latencies),
        "verdict_tail_s": tail_s,
        "undecided_frac": (len(outcomes) - len(detected)) / len(outcomes),
        "test_len_avg": sum(o.test_length for o in detected) / len(detected),
        "peak_rss_mb": rss,
    }
    result.notes += [
        f"passes: {len(clocks)} over "
        f"{sum(c.raw_work for c in clocks):.3f} s of work "
        f"({len(outcomes)} errors)",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)} "
        f"(host s: {', '.join(f'{s:.3f}' for s in raw_setups)})",
        f"verdict_p50_s n={len(latencies)}; verdict_tail_s is "
        f"p{pct} of n={len(latencies)}",
        f"in host seconds: verdicts_per_s "
        f"{len(outcomes) / sum(c.raw_work for c in clocks):.4f}, "
        f"verdict_p50_s {median(raw_latencies):.4f}, verdict_tail_s "
        f"{tail(raw_latencies)[0]:.4f}, setup_s {median(raw_setups):.4f}",
        f"failed_frac: {result.failed}/{len(outcomes)}",
        f"peak_rss_mb: after pass 1; after all {len(clocks)} passes "
        f"{peak_rss_mb():.1f} MiB",
    ]
