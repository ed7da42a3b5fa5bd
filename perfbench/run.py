"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1|matrix|service-warm \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no layer wrapped;
``--trace 1`` runs the same work once untraced and once with every layer's
public calls wrapped (``spans.py``), and reports the per-layer metrics and
the tracing overhead.  Every run checks its verdicts; a mismatch prints
``"correct": false`` and exits 1.  The last line of standard output is the
JSON result.  Workloads, metrics and the effort record are described in
``perfbench/README.md`` and ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

WORKLOADS = ("table1", "matrix", "service-warm")


def host() -> str:
    """Python and numpy versions and CPU count, for the report header."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (f"python {platform.python_version()}, numpy {numpy_version}, "
            f"{os.cpu_count()} cpu")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    traced = bool(args.trace)
    if args.workload == "table1":
        import table1

        result = table1.run(args.seconds, traced)
    elif args.workload == "matrix":
        import matrix

        result = matrix.run(args.seconds, traced, args.seed)
    else:
        import service

        result = service.run(args.seconds, traced, args.seed)

    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(result.metrics) and not result.mismatches:
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result.metrics))}"
        )

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if traced else 'untraced'} on {host()}")
    for line in result.notes:
        print(f"  {line}")
    for name, value in result.metrics.items():
        print(f"  {name:<26}{value:>16.6g} {units.get(name, '')}")
    for mismatch in result.mismatches:
        print(f"  MISMATCH {mismatch}")
    correct = (not result.mismatches and result.failed == 0
               and result.attempted > 0)
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
