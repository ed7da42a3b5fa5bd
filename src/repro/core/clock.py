"""The one CPU clock behind every TG deadline and CPU-seconds figure.

It reads the calling thread's CPU time (``time.thread_time``), not the
process's.  ``repro serve`` runs campaign jobs as threads of one process,
and a process clock would charge each job for its siblings' work, so a
deadline-bound verdict would depend on what else the server was doing.
Callers look the function up on the module (``clock.cpu_time()``) so a
test can move the clock for every layer with one monkeypatch.
"""

from __future__ import annotations

import time


def cpu_time() -> float:
    """CPU seconds the calling thread has consumed so far."""
    return time.thread_time()
