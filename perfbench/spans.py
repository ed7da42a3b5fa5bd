"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`install` replaces a
public function or method with a wrapper that times the call and notes
which span was open when it started (its parent).  Nothing under
``src/repro`` knows it is being traced.  Spans stay in memory as small
lists and are written out once, when the run ends.

A span is ``[name, start, end, parent, tag]``: ``start``/``end`` are
``time.perf_counter()`` readings, ``parent`` is the enclosing span (a
list while recording, an index once dumped) and ``tag`` the error or
request id the span belongs to.  A layer's self time is the summed
duration of its spans minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable


class SpanRecorder:
    """In-memory spans plus named counters, safe across threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: tag ("" for none) -> counter name -> value.
        self.counts: dict[str, dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_tag(self, tag: str | None) -> None:
        """Tag the spans this thread opens from now on (error/request id)."""
        self._local.tag = tag

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the current thread's tag."""
        bucket = self._bucket()
        with self._lock:
            bucket[name] = bucket.get(name, 0) + amount

    def _bucket(self) -> dict[str, float]:
        tag = getattr(self._local, "tag", None) or ""
        bucket = self.counts.get(tag)
        if bucket is None:
            bucket = self.counts.setdefault(tag, {})
        return bucket

    def totals(self, tags: set[str] | None = None) -> dict[str, float]:
        """Counters summed over ``tags`` (every tag when None)."""
        summed: dict[str, float] = {}
        for tag, bucket in self.counts.items():
            if tags is None or tag in tags:
                for name, value in bucket.items():
                    summed[name] = summed.get(name, 0) + value
        return summed

    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[["SpanRecorder", Any], None] | None = None,
        on_error: Callable[["SpanRecorder", BaseException], None]
        | None = None,
        tag_of: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            saved_tag = getattr(recorder._local, "tag", None)
            if tag_of is not None:
                recorder._local.tag = tag_of(args)
            tag = getattr(recorder._local, "tag", None)
            record = [name, time.perf_counter(), 0.0, parent, tag]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(recorder, exc)
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                recorder.spans.append(record)
                if tag_of is not None:
                    recorder._local.tag = saved_tag
            if on_result is not None:
                on_result(recorder, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call only bumps the count ``name``."""
        bucket_of = self._bucket

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket = bucket_of()
            bucket[name] = bucket.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr`` or ``module:Class.method`` with
        ``make(original)``; :meth:`uninstall` restores every original."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def layers(
        self, tags: set[str] | None = None
    ) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the
        spans tagged with one of ``tags`` (every span when None)."""
        spans = [
            record for record in self.spans
            if tags is None or record[4] in tags
        ]
        child_time: dict[int, float] = {}
        for record in spans:
            parent = record[3]
            if parent is not None:
                key = id(parent)
                child_time[key] = (
                    child_time.get(key, 0.0) + record[2] - record[1]
                )
        table: dict[str, dict[str, float]] = {}
        for record in spans:
            row = table.setdefault(
                record[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = record[2] - record[1]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(id(record), 0.0)
        return table

    def dump(self, path: str) -> None:
        """Write every span (parents as indices) and counter as JSON."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end,
             index.get(id(parent), -1) if parent is not None else -1, tag]
            for name, start, end, parent, tag in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "counts": self.counts}, handle)


def load(path: str) -> SpanRecorder:
    """Read a :meth:`SpanRecorder.dump` file back into a recorder."""
    with open(path) as handle:
        data = json.load(handle)
    recorder = SpanRecorder()
    recorder.spans = [list(row) for row in data["spans"]]
    for record in recorder.spans:
        record[3] = recorder.spans[record[3]] if record[3] >= 0 else None
    recorder.counts = data["counts"]
    return recorder


# ---------------------------------------------------------------------------
# The probes: which public call stands for which layer
# ---------------------------------------------------------------------------
def _on_generate(recorder: SpanRecorder, result) -> None:
    recorder.add("tg.attempts", result.attempts)
    recorder.add("tg.deadline_hits", int(result.deadline_hit))
    recorder.add("dptrace.backtracks", result.dptrace_backtracks)
    recorder.add("ctrljust.backtracks", result.ctrljust_backtracks)


def _on_justify(recorder: SpanRecorder, result) -> None:
    if result.status.name == "SUCCESS":
        recorder.add("ctrljust.successes")


def _on_relax(recorder: SpanRecorder, result) -> None:
    recorder.add("dprelax.events", result.events)


def _on_fork(recorder: SpanRecorder, result) -> None:
    if result.kind == "clean":
        recorder.add("faultsim.clean")


def _on_realize_error(recorder: SpanRecorder, exc: BaseException) -> None:
    from repro.dlx.realize import RealizationError

    if isinstance(exc, RealizationError):
        recorder.add("realize.failures")


#: (patch target, span name, result hook, error hook).  A span name is the
#: layer a self time is charged to; the targets are the public calls the
#: layer table in ``README.md`` names.
SPAN_PROBES = (
    ("repro.campaign.orchestrator:CampaignOrchestrator.run", "campaign",
     None, None),
    ("repro.core.tg:TestGenerator.generate", "tg", _on_generate, None),
    ("repro.core.dptrace:DPTrace.select_paths", "dptrace", None, None),
    ("repro.core.ctrljust:CtrlJust.justify", "ctrljust", _on_justify, None),
    ("repro.core.clauses:CdclRefuter.run", "clauses", None, None),
    ("repro.core.dprelax:DiscreteRelaxer.relax", "dprelax", _on_relax, None),
    ("repro.verify.cosim:ProcessorSimulator.run", "cosim", None, None),
    ("repro.dlx.realize:realize", "realize", None, _on_realize_error),
    # The campaign's ISA check imports ``detects`` from the package at
    # call time; ``batch_detects`` calls the module-level name in
    # ``repro.dlx.env``.  Patching the two names separately tells the
    # Table-1 ISA check apart from the matrix's serial confirmations.
    ("repro.dlx:detects", "isa_check", None, None),
    ("repro.dlx.env:detects", "confirm", None, None),
    ("repro.dlx.spec:DlxSpec.run", "spec", None, None),
    ("repro.dlx.lanes:BatchDlxEnv.run", "lanes", None, None),
    ("repro.datapath.faultsim:BatchFaultSimulator.fork", "faultsim",
     _on_fork, None),
    ("repro.fuzz.conformance:run_matrix", "matrix", None, None),
)


def install(recorder: SpanRecorder) -> None:
    """Install every probe on ``recorder`` (undo with ``uninstall``)."""
    for target, name, on_result, on_error in SPAN_PROBES:
        recorder.patch(
            target,
            lambda fn, name=name, on_result=on_result, on_error=on_error:
            recorder.span(name, fn, on_result=on_result, on_error=on_error),
        )
    recorder.patch(
        "repro.controller.implication:ImplicationSession.assume",
        lambda fn: recorder.counter("implication.assumes", fn),
    )
