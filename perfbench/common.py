"""Helpers shared by the benchmark's workloads: paths, statistics, the
reference record, set-up probes and the result every workload returns."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space inside the checkout (service state, checkpoints, spans).
STATE_DIR = ".perfbench"
#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def state_path(*parts: str) -> str:
    os.makedirs(STATE_DIR, exist_ok=True)
    return os.path.join(STATE_DIR, *parts)


def load_reference() -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json")) as handle:
        return json.load(handle)


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it,
    as (value, percentile), by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


#: The CPUs the benchmark may run on.  On the reference host its two vCPUs
#: ran ``speed_kernel`` up to 2.8x apart at the same moment, so the work is
#: pinned to ``WORK_CPU`` and the speed samples are taken there; the
#: ``service-warm`` clients run on ``CLIENT_CPU``.
CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = CPUS[0]
CLIENT_CPU = CPUS[-1]
#: A round figure near the median time of one ``speed_kernel`` call on the
#: reference host (2 vCPUs of a shared Xeon host, Python 3.11.7), where it
#: ranged from 6 to 14 ms.  Timings are scaled to a host on which the kernel
#: takes exactly this long.
REFERENCE_KERNEL_S = 0.010


def speed_kernel() -> int:
    """Fixed pure-Python work (dict, list and integer operations, like the
    program's own) that does not depend on the repository's code."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= (key << 3) | (i & 7)
        if i % 1000 == 0:
            acc += sum(sorted(list(table.values())[:200]))
    return acc


def pin(cpu: int) -> None:
    """Run the calling thread, and the threads and processes it starts
    from now on, on ``cpu`` only."""
    os.sched_setaffinity(0, {cpu})


def host_slowness() -> float:
    """How many times slower than the reference ``WORK_CPU`` runs right
    now: the best of three ``speed_kernel`` timings on it over
    ``REFERENCE_KERNEL_S``.

    The host's speed for identical work swings by up to 2x within seconds
    (``reference.json`` ``noise``), and this kernel's time moves with it.
    Timings taken between two of these samples are divided by their mean,
    so the metrics read in reference-host seconds."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {WORK_CPU})
    best = math.inf
    try:
        for _ in range(3):
            started = time.perf_counter()
            speed_kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, home)
    return best / REFERENCE_KERNEL_S


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def probe_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until ``probe.py`` has
    built everything ``workload`` needs before its first unit of work:
    (reference-host seconds, host seconds) of each sample."""
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        slowness = host_slowness()
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        raw.append(ready - started)
        samples.append(raw[-1] / ((slowness + host_slowness()) / 2))
    return samples, raw


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end (untraced) or per-layer (traced) metrics: name -> value.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Correctness mismatches; any entry makes the run incorrect.
    mismatches: list[str] = field(default_factory=list)
    #: Human-readable report lines printed before the JSON line.
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


def compare_effort(result: Result, label: str, expected: dict,
                   actual: dict) -> None:
    """Exact comparison of two effort records (a correctness gate)."""
    for key in sorted(set(expected) | set(actual)):
        result.check(
            expected.get(key) == actual.get(key),
            f"{label}: effort {key} {expected.get(key)} != {actual.get(key)}",
        )


def drift_note(result: Result, recorded: dict, actual: dict) -> None:
    """Report (without failing) where effort differs from the record."""
    drift = [
        f"{key} {recorded[key]} -> {actual.get(key)}"
        for key in sorted(recorded) if recorded[key] != actual.get(key)
    ]
    result.notes.append(
        "effort vs reference.json: "
        + ("identical" if not drift else "; ".join(drift))
    )
