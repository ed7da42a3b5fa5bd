"""The per-layer metrics of a traced run, and the layer table printed
beside them.

Times come from the spans (:mod:`spans`); counts either from the spans'
result hooks or from the counters the program already reports: the
per-error outcome fields and the generator's cache counters
(``repro.service.cache.generator_cache_counters`` shape).
"""

from __future__ import annotations

#: Outcome fields summed over a run's per-error outcomes.
OUTCOME_FIELDS = (
    "attempts", "backtracks", "final_backtracks", "conflicts",
    "learned_clauses", "backjumps", "clause_hits", "refuted_unjustifiable",
    "nogood_hits", "nogood_misses", "justify_cache_hits", "path_cache_hits",
    "path_cache_misses", "dptrace_sweeps_avoided", "golden_hits",
    "golden_misses", "exposure_forks", "exposure_fork_decided",
)

#: Layers whose self time the table reports, in pipeline order.
LAYERS = (
    "campaign", "tg", "dptrace", "ctrljust", "clauses", "dprelax", "cosim",
    "realize", "isa_check", "matrix", "spec", "lanes", "faultsim", "confirm",
    "service.job",
)


def outcome_totals(outcomes) -> dict[str, int]:
    """Sum the effort fields over outcome dicts (``vars(ErrorOutcome)``)."""
    totals = {name: 0 for name in OUTCOME_FIELDS}
    for outcome in outcomes:
        for name in OUTCOME_FIELDS:
            totals[name] += outcome.get(name, 0) or 0
    return totals


def add_cache_counters(total: dict, counters: dict) -> None:
    """Accumulate ``{store: {counter: n}}`` into ``total``."""
    for store, values in counters.items():
        bucket = total.setdefault(store, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(caches: dict, store: str) -> float:
    counters = caches.get(store, {})
    hits = counters.get("hits", 0)
    return _ratio(hits, hits + counters.get("misses", 0))


def per_layer_metrics(
    layers: dict[str, dict[str, float]],
    counts: dict[str, float],
    totals: dict[str, int],
    caches: dict,
    batched: dict[str, int],
    service: dict[str, float],
    overhead_s: float,
) -> dict[str, float]:
    """Every per-layer metric, zero where the workload skips the layer."""

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    lane_cycles = batched.get("lane_cycles", 0)
    return {
        "campaign.overhead_s": self_s("campaign"),
        "tg.self_s": self_s("tg"),
        "tg.calls": calls("tg"),
        "tg.attempts": counts.get("tg.attempts", 0),
        "tg.deadline_hits": counts.get("tg.deadline_hits", 0),
        "dptrace.self_s": self_s("dptrace"),
        "dptrace.calls": calls("dptrace"),
        "dptrace.backtracks": counts.get("dptrace.backtracks", 0),
        "dptrace.sweeps_avoided": totals.get("dptrace_sweeps_avoided", 0),
        "ctrljust.self_s": self_s("ctrljust"),
        "ctrljust.calls": calls("ctrljust"),
        "ctrljust.backtracks": counts.get("ctrljust.backtracks", 0),
        "ctrljust.success_ratio": _ratio(
            counts.get("ctrljust.successes", 0), calls("ctrljust")
        ),
        "clauses.self_s": self_s("clauses"),
        "clauses.conflicts": totals.get("conflicts", 0),
        "clauses.refuted": totals.get("refuted_unjustifiable", 0),
        "clauses.hit_ratio": _hit_ratio(caches, "clause"),
        "implication.assumes": counts.get("implication.assumes", 0),
        "nogoods.hit_ratio": _hit_ratio(caches, "nogood"),
        "nogoods.justify_hits": caches.get("nogood", {}).get(
            "justify_hits", 0
        ),
        "pathcache.hit_ratio": _hit_ratio(caches, "path"),
        "dprelax.self_s": self_s("dprelax"),
        "dprelax.calls": calls("dprelax"),
        "dprelax.events": counts.get("dprelax.events", 0),
        "cosim.self_s": self_s("cosim"),
        "cosim.golden_hit_ratio": _hit_ratio(caches, "golden"),
        "cosim.fork_decided_ratio": _ratio(
            totals.get("exposure_fork_decided", 0),
            totals.get("exposure_forks", 0),
        ),
        "realize.self_s": self_s("realize"),
        "realize.calls": calls("realize"),
        "realize.failures": counts.get("realize.failures", 0),
        "isa_check.self_s": self_s("isa_check"),
        "isa_check.calls": calls("isa_check"),
        "spec.self_s": self_s("spec"),
        "spec.calls": calls("spec"),
        "lanes.self_s": self_s("lanes"),
        "lanes.calls": calls("lanes"),
        "lanes.fill_rate": _ratio(
            batched.get("active_lane_cycles", 0), lane_cycles
        ),
        "faultsim.self_s": self_s("faultsim"),
        "faultsim.forks": calls("faultsim"),
        "faultsim.clean_ratio": _ratio(
            counts.get("faultsim.clean", 0), calls("faultsim")
        ),
        "confirm.self_s": self_s("confirm"),
        "confirm.calls": calls("confirm"),
        "service.http_s": service.get("http_s", 0.0),
        "service.queue_s": service.get("queue_s", 0.0),
        "service.job_overhead_s": service.get("job_overhead_s", 0.0),
        "service.warm_hit_ratio": service.get("warm_hit_ratio", 0.0),
        "trace.overhead_s": overhead_s,
    }


def layer_table(layers: dict[str, dict[str, float]], wall_s: float,
                counts: dict[str, float]) -> list[str]:
    """Self time and share of the traced wall time, per layer."""
    lines = [f"{'layer':<12}{'calls':>10}{'self_s':>11}{'share':>8}"]
    for name in LAYERS:
        row = layers.get(name)
        if not row:
            continue
        lines.append(
            f"{name:<12}{int(row['calls']):>10}{row['self_s']:>11.3f}"
            f"{100 * row['self_s'] / wall_s if wall_s else 0:>7.1f}%"
        )
    for name in sorted(counts):
        lines.append(f"  {name} = {counts[name]:g}")
    return lines
