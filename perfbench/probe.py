"""Set-up probe: build what a workload needs before its first unit of
work, print ``ready`` and exit.  ``common.probe_setup`` times it from
launch, so the figure includes interpreter start and imports.

Usage: ``python3 perfbench/probe.py table1|matrix`` from the checkout root.
"""

from __future__ import annotations

import os
import sys


def main(workload: str) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if workload == "table1":
        from common import load_reference
        from table1 import build_orchestrator, select_errors

        orchestrator = build_orchestrator()
        select_errors(orchestrator.campaign, load_reference()["table1"])
    elif workload == "matrix":
        from matrix import matrix_config
        from repro.fuzz import conformance  # noqa: F401  (the entry point)

        matrix_config(1)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
