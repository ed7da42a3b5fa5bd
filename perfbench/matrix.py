"""``matrix``: the DLX error-model conformance matrix.

Bus SSL on every bit, module substitution and bus order errors are
classified against seeded random programs.  There is no TG here: the ISA
spec, the batched lanes, the cone-fork screen and the serial ``detects``
confirmations do all the work, so this workload bypasses every search
optimisation and exposes every simulation optimisation.

What a matrix costs depends on its programs: on a 2-CPU host one call
over every ``SAMPLE=5``-th error took 5.4 s to 8.3 s depending on the
program seed alone, and a full matrix (2,226 errors) takes about 40 s.
So a run is many small calls instead of one big one: each call keeps
every ``SAMPLE``-th enumerated error (``MatrixConfig.sample``, an odd
stride so both polarities stay) and classifies it against its own
program set, drawn from the run's seed; the run reports over all calls.
Each set's classifications (a digest of its rows and the summary) are kept
in the checkout's state directory, and a later run that meets the same set
must repeat them exactly.  The full effort record (forks, confirmations,
lane cycles) is compared only inside one invocation, between its traced
and untraced calls: a correct change to the fork screen, the lanes or the
chunking moves it.

Every program has ``LENGTH`` instructions, so ``test_len_avg`` is fixed by
construction.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from common import (
    WORK_CPU,
    Result,
    compare_effort,
    host_slowness,
    median,
    peak_rss_mb,
    pin,
    probe_setup,
    state_path,
    tail,
)

SAMPLE = 25
PROGRAMS = 16
#: Calls whose rows the oracle re-checks, per run.
ORACLE_CALLS = 2
LENGTH = 12
#: The ``batch=False`` oracle re-classifies every ``ORACLE_STRIDE``-th row
#: of the sampled matrix (``MatrixConfig.sample`` is a stride, so the
#: oracle's rows are a subset of the timed run's).
ORACLE_STRIDE = 9


def matrix_config(seed: int, sample: int = SAMPLE, batch: bool = True):
    from repro.fuzz import MatrixConfig

    return MatrixConfig(
        machine="dlx", max_bits_per_net=None, programs=PROGRAMS,
        length=LENGTH, seed=seed, sample=sample, batch=batch,
    )


class ProgramClock:
    """Wraps ``repro.dlx.env.batch_detects`` (one call per program) to
    stamp when each program's verdicts are in and to collect the fork
    statistics the function reports through its ``stats`` argument."""

    def __init__(self) -> None:
        import repro.dlx.env as env

        self._env = env
        self._original = env.batch_detects
        self.stamps: list[float] = []
        self.fork_stats: list = []

    def __enter__(self) -> "ProgramClock":
        original, stamps, fork_stats = (
            self._original, self.stamps, self.fork_stats
        )

        def batch_detects(*args, **kwargs):
            kwargs["stats"] = fork_stats
            verdicts = original(*args, **kwargs)
            stamps.append(time.perf_counter())
            return verdicts

        self._env.batch_detects = batch_detects
        return self

    def __exit__(self, *exc_info) -> None:
        self._env.batch_detects = self._original


def classification_of(fragment: dict) -> dict:
    """Digest of a matrix call's rows and its classification summary:
    what must repeat whenever the same program set runs again."""
    rows = json.dumps(fragment["errors"], sort_keys=True).encode()
    record = {"rows_sha256": hashlib.sha256(rows).hexdigest()}
    for name, counts in fragment["summary"].items():
        for key, value in counts.items():
            record[f"{name}.{key}"] = value
    return record


def effort_of(fragment: dict, fork_stats: list, batched: dict) -> dict:
    """Deterministic effort of one matrix call."""
    return {
        **classification_of(fragment),
        "forks": sum(s.forks for s in fork_stats),
        "clean": sum(s.clean for s in fork_stats),
        "confirms": sum(s.forks - s.clean for s in fork_stats),
        "fork_evals": sum(s.evals for s in fork_stats),
        "batch_calls": batched["batch_calls"],
        "lane_cycles": batched["lane_cycles"],
    }


def run_call(seed: int):
    """One matrix call; returns (fragment, latencies, wall_s, effort)."""
    from repro.datapath.batched import counters_delta, counters_snapshot
    from repro.fuzz import conformance

    batched_before = counters_snapshot()
    with ProgramClock() as clock:
        started = time.perf_counter()
        fragment = conformance.run_matrix(matrix_config(seed))
        wall = time.perf_counter() - started
    latencies = []
    for row in fragment["errors"]:
        if row["classification"] == "detected":
            latencies.append(
                clock.stamps[row["detected_by_program"]] - started
            )
        elif row["classification"] == "undetected_by_budget":
            latencies.append(wall)
        else:  # proven benign before any program runs
            latencies.append(0.0)
    effort = effort_of(fragment, clock.fork_stats,
                       counters_delta(batched_before))
    return fragment, latencies, wall, effort


def check_oracle(result: Result, seed: int, fragment: dict) -> None:
    """Re-classify a subset with one full co-simulation per (error,
    program) pair and compare with the batched classification."""
    from repro.fuzz import conformance

    oracle = conformance.run_matrix(
        matrix_config(seed, sample=SAMPLE * ORACLE_STRIDE, batch=False)
    )
    rows = {row["spec"]: row for row in fragment["errors"]}
    for expected in oracle["errors"]:
        row = rows.get(expected["spec"])
        result.check(
            row is not None
            and all(row[key] == expected[key] for key in
                    ("classification", "programs_run",
                     "detected_by_program")),
            f"matrix: {expected['error']} batched {row} != oracle "
            f"{expected}",
        )


def _undecided(fragment: dict) -> int:
    return sum(
        1 for row in fragment["errors"]
        if row["classification"] == "undetected_by_budget"
    )


class ClassificationStore:
    """Classification records by program seed, kept across runs in the
    checkout."""

    def __init__(self) -> None:
        self.path = state_path("matrix-classifications.json")
        try:
            with open(self.path) as handle:
                self.records = json.load(handle)
        except FileNotFoundError:
            self.records = {}

    def check(self, result: Result, program_seed: int,
              fragment: dict) -> None:
        key = str(program_seed)
        record = classification_of(fragment)
        if key in self.records:
            compare_effort(result, f"matrix program seed {key}, earlier "
                           "run vs this run", self.records[key], record)
        else:
            self.records[key] = record

    def save(self) -> None:
        with open(self.path, "w") as handle:
            json.dump(self.records, handle, indent=1, sort_keys=True)


def run_calls(rng: random.Random, seconds: float, result: Result,
              store: ClassificationStore, speed: bool = False):
    """Calls on fresh program sets until ``seconds`` of calls have run.
    With ``speed``, the host's slowness is sampled before the first call
    and after every call (``common.host_slowness``).

    Returns (program seeds, fragments, per-call latencies, walls,
    efforts, per-call slowness: the mean of the samples around it, or 1)."""
    program_seeds, fragments, latencies, walls, efforts = [], [], [], [], []
    samples = [host_slowness() if speed else 1.0]
    while not walls or sum(walls) < seconds:
        program_seed = rng.randrange(1 << 30)
        fragment, call_latencies, wall, effort = run_call(program_seed)
        samples.append(host_slowness() if speed else 1.0)
        program_seeds.append(program_seed)
        fragments.append(fragment)
        latencies.append(call_latencies)
        walls.append(wall)
        efforts.append(effort)
        store.check(result, program_seed, fragment)
    store.save()
    result.attempted = sum(len(f["errors"]) for f in fragments)
    slowness = [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return program_seeds, fragments, latencies, walls, efforts, slowness


def check_oracles(result: Result, rng: random.Random, program_seeds: list,
                  fragments: list) -> None:
    """Oracle re-check of ``ORACLE_CALLS`` seeded calls of a run."""
    for index in rng.sample(range(len(fragments)),
                            min(ORACLE_CALLS, len(fragments))):
        check_oracle(result, program_seeds[index], fragments[index])


def run(seconds: float, traced: bool, seed: int) -> Result:
    from repro.verify.cosim import CosimError

    pin(WORK_CPU)
    result = Result()
    store = ClassificationStore()
    # Program seeds far apart, so the calls' program sets are disjoint.
    rng = random.Random(seed)
    try:
        if traced:
            return _traced(result, rng, seconds, store)
        setups, raw_setups = probe_setup("matrix")
        program_seeds, fragments, latencies, walls, _, slowness = run_calls(
            rng, seconds, result, store, speed=True
        )
        check_oracles(result, rng, program_seeds, fragments)
    except CosimError as exc:
        result.attempted, result.failed = 1, 1
        result.check(False, f"matrix: co-simulation failed: {exc}")
        return result
    # Every error of a call starts with the call, and the undecided ones
    # (about a sixth) all end with it, so a tail pooled over calls is the
    # duration of the slowest call.  Each call is a unit: the run reports
    # the median over calls of each call's rate, p50 and tail, each in
    # reference-host seconds (divided by the host's slowness around it).
    rates = [len(f["errors"]) / wall for f, wall in zip(fragments, walls)]
    p50s = [median(call) for call in latencies]
    tails = [tail(call) for call in latencies]
    result.metrics = {
        "setup_s": median(setups),
        "verdicts_per_s": median(r * k for r, k in zip(rates, slowness)),
        "verdict_p50_s": median(p / k for p, k in zip(p50s, slowness)),
        "verdict_tail_s": median(
            t / k for (t, _), k in zip(tails, slowness)
        ),
        "undecided_frac": (
            sum(_undecided(f) for f in fragments) / result.attempted
        ),
        "test_len_avg": float(LENGTH),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.notes += [
        f"program seeds: {program_seeds}",
        f"calls: {len(walls)} over {sum(walls):.3f} s "
        f"({len(fragments[0]['errors'])} errors each; pooled rate "
        f"{result.attempted / sum(walls):.3f} 1/s)",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)} "
        f"(host s: {', '.join(f'{s:.3f}' for s in raw_setups)})",
        f"verdicts_per_s, verdict_p50_s and verdict_tail_s (p{tails[0][1]} "
        f"of n={len(latencies[0])} per call): medians over "
        f"{len(latencies)} calls",
        f"host slowness per call: {', '.join(f'{k:.2f}' for k in slowness)}",
        f"in host seconds: verdicts_per_s {median(rates):.4f}, "
        f"verdict_p50_s {median(p50s):.4f}, verdict_tail_s "
        f"{median(t for t, _ in tails):.4f}, setup_s "
        f"{median(raw_setups):.4f}",
        f"failed_frac: 0/{result.attempted}",
    ]
    return result


def _traced(result: Result, rng: random.Random, seconds: float,
            store: ClassificationStore) -> Result:
    """Traced calls first, then the same program sets untraced (see
    ``table1.run``); their effort must match exactly."""
    from layers import layer_table, per_layer_metrics
    from repro.datapath.batched import counters_delta, counters_snapshot
    from spans import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder)
    batched_before = counters_snapshot()
    try:
        program_seeds, fragments, _, walls, efforts, _ = run_calls(
            rng, seconds, result, store
        )
    finally:
        recorder.uninstall()
    batched = counters_delta(batched_before)
    recorder.dump(state_path("spans-matrix.json"))
    check_oracles(result, rng, program_seeds, fragments)
    wall = sum(walls)
    plain_wall = 0.0
    for program_seed, effort in zip(program_seeds, efforts):
        _, _, call_wall, plain_effort = run_call(program_seed)
        plain_wall += call_wall
        compare_effort(result, f"matrix program seed {program_seed} "
                       "untraced vs traced", plain_effort, effort)
    layers = recorder.layers()
    counts = recorder.totals()
    result.metrics = per_layer_metrics(
        layers, counts, {}, {}, batched, {}, wall - plain_wall
    )
    result.notes += layer_table(layers, wall, counts)
    result.notes.append(
        f"tracing overhead: traced {wall:.3f} s - untraced "
        f"{plain_wall:.3f} s = {wall - plain_wall:.3f} s"
    )
    return result
