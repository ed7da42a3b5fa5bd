"""``repro serve`` with the benchmark's span probes installed.

Installs the same wrappers as the in-process traced runs, plus one span
per campaign job (tagged with the job id, so the benchmark can keep the
spans of the requests it timed), then hands over to ``serve_main``.  When
the server has drained and stopped (SIGTERM), the spans are written to
``--spans-out``.

Usage: ``python3 perfbench/serve_traced.py --spans-out PATH [serve flags]``
from the checkout root, with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from repro.service.server import add_serve_arguments, serve_main
    from spans import SpanRecorder, install

    parser = argparse.ArgumentParser(prog="serve_traced")
    parser.add_argument("--spans-out", required=True)
    add_serve_arguments(parser)
    args = parser.parse_args(argv)

    recorder = SpanRecorder()
    install(recorder)
    recorder.patch(
        "repro.service.server:run_campaign_job",
        lambda fn: recorder.span(
            "service.job", fn, tag_of=lambda call: call[0].id
        ),
    )
    try:
        return serve_main(args)
    finally:
        recorder.uninstall()
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
