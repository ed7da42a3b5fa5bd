"""Memoized search results for TG.

Errors at (or near) the same site select the same DPTRACE paths and hand
CTRLJUST the same objective sets, and within one error the convergence
round-trip, the justify-variant retries and ``_blame``'s prefix probes
re-ask the same questions constantly.  This module gives
:class:`TestGenerator` two memo layers, both **outcome-transparent**:
every key captures everything the deterministic search result depends
on, and every hit replays the recorded result (effort counters
included), so a zero-capacity store produces byte-identical
detected/aborted outcomes and backtrack statistics.

* **Justification results** (:meth:`LearnedNogoods.cached_justify`) — a
  process-local LRU of full :class:`~repro.core.ctrljust.JustResult`\\ s,
  successes and failures (the failures are the no-goods), keyed by the
  window size, the frame-offset-normalized ordered objective set, the
  justify variant and the backtrack limit.

* **Path-set cache** (:class:`PathCache`) — memoized
  :class:`~repro.core.dptrace.TraceResult`\\ s per (window, site,
  activation frame, implied-ctrl fingerprint, discouraged fingerprint,
  variant, backtrack limit); the justify-variants retry loop and
  repeated windows across errors at one site reuse selections.

Unjustifiability certificates, the one store that generalizes across
objective sets, live in :mod:`repro.core.clauses`.

Deadline-tainted results (``deadline_hit``) are never stored: they
depend on wall-clock state, and caching them would make outcomes depend
on timing.

Keys normalize frames by subtracting the window's minimum objective
frame *and* keep that offset in the key — entries are shared exactly
(never across genuinely different windows, since frame 0 carries the
reset-state boundary and breaks shift invariance).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

#: ((frame, name), value) pairs as emitted by DPTRACE.
CtrlItems = tuple[tuple[tuple[int, str], int], ...]


def _normalize(items, offset: int) -> tuple:
    return tuple(
        ((frame - offset, name), value) for (frame, name), value in items
    )


def justify_key(
    n_frames: int, objective_items: CtrlItems, variant: int, limit: int
) -> tuple:
    """Key of one justification question."""
    offset = min((f for (f, _), _ in objective_items), default=0)
    return (n_frames, offset, _normalize(objective_items, offset), variant,
            limit)


@dataclass
class LearnedNogoods:
    """Justification-result memo, living on :class:`TestGenerator`."""

    max_results: int = 512

    #: justify key -> JustResult (process-local; never shipped).
    _results: OrderedDict = field(default_factory=OrderedDict)

    justify_hits: int = 0
    justify_misses: int = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters (the campaign service's
        ``/metrics`` reads these)."""
        return {
            "justify_hits": self.justify_hits,
            "justify_misses": self.justify_misses,
            "justify_entries": len(self._results),
        }

    def cached_justify(self, key, compute):
        """Return the memoized :class:`JustResult` for ``key``, calling
        ``compute()`` on a miss.  Deadline-tainted results pass through
        uncached."""
        result = self._results.get(key)
        if result is not None:
            self.justify_hits += 1
            self._results.move_to_end(key)
            return result
        self.justify_misses += 1
        result = compute()
        if not getattr(result, "deadline_hit", False):
            self._results[key] = result
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)
        return result


@dataclass
class PathCache:
    """Memoized DPTRACE selections, living on :class:`TestGenerator`."""

    max_entries: int = 1024

    _entries: OrderedDict = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters (read by the campaign service)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    @staticmethod
    def key(
        n_frames: int,
        site: str,
        act_frame: int,
        implied_ctrl: dict,
        discouraged,
        variant: int,
        limit: int,
    ) -> tuple:
        return (
            n_frames, site, act_frame,
            frozenset(implied_ctrl.items()),
            frozenset(discouraged),
            variant, limit,
        )

    def lookup(self, key):
        """The cached (TraceResult, sweeps_avoided) pair, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def store(self, key, trace, sweeps_avoided: int) -> None:
        if trace.deadline_hit:
            return
        self._entries[key] = (trace, sweeps_avoided)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
