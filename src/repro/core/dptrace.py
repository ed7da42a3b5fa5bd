"""DPTRACE: justification/propagation path selection in the datapath (V.A).

Given an error site (a net instance in the unrolled datapath window) and the
CTRL values already implied by the controller search, DPTRACE finds a partial
assignment to

* **CTRL variables** — per-frame values of the datapath control nets
  (multiplexer selects, register enables/clears), and
* **FO variables** — per-frame fanout-branch selections,

such that the error net is *controlled* (C-state C4, so DPRELAX can plant an
activating value on it) and *observable* (O-state O3: a propagation path of
closed/controlled side inputs reaches a data primary output).

The search is PODEM-like: requirements are backtraced through the module
classes to an open decision variable, decisions are pushed on a stack with
their untried alternatives, and the C/O sweep after each decision serves as
the implication step.  CTRL decisions made here become the ``(signal,
value)`` objectives that guide CTRLJUST (Figure 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core import clock
from repro.core.costates import CState, OState
from repro.datapath.module import Module, ModuleClass
from repro.datapath.modules import MuxModule, RegisterModule
from repro.datapath.net import Net, NetRole

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.model.pathgraph import CoStates, DatapathPathAnalyzer

NetKey = tuple[int, str]

CtrlVar = tuple[int, str]  # (frame, ctrl net name)
FoVar = tuple[int, str]  # (frame, stem net name)


class TraceStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass
class Decision:
    """One search decision with its untried alternatives."""

    kind: str  # "ctrl" or "fo"
    var: tuple[int, str]
    value: int
    alternatives: list[int]
    purpose: str = "control"  # which backtrace produced it


@dataclass
class TraceResult:
    """Outcome of a path-selection run."""

    status: TraceStatus
    ctrl_objectives: dict[CtrlVar, int] = field(default_factory=dict)
    fo_choices: dict[FoVar, int] = field(default_factory=dict)
    propagation_path: list[NetKey] = field(default_factory=list)
    backtracks: int = 0
    decisions: int = 0
    #: The subset of ctrl decisions made while justifying the site value
    #: (as opposed to routing its observation): the candidates to revisit
    #: when value selection cannot activate the error.
    control_side: frozenset = frozenset()
    #: The search was cut short by the caller's deadline: the FAILURE is
    #: time-bound, not a proof — never cache or learn from it.
    deadline_hit: bool = False


class DPTrace:
    """Path selector for one error site over a pipeframe window."""

    def __init__(
        self,
        analyzer: DatapathPathAnalyzer,
        implied_ctrl: dict[CtrlVar, int],
        max_backtracks: int = 200,
        discouraged: frozenset[tuple[CtrlVar, int]] | set = frozenset(),
        variant: int = 0,
        incremental: bool = True,
        deadline: float | None = None,
    ) -> None:
        self.analyzer = analyzer
        self.netlist = analyzer.netlist
        self.n_frames = analyzer.n_frames
        self.implied_ctrl = dict(implied_ctrl)
        self.max_backtracks = max_backtracks
        #: CTRL decisions that led the controller search into a dead end on
        #: a previous round; preferred last when alternatives exist.
        self.discouraged = set(discouraged)
        #: Diversification index: round r of the TG retry loop rotates the
        #: ranked choice lists by r, so re-selection explores different
        #: justification/propagation paths after a controller dead end.
        self.variant = variant
        #: Event-driven incremental C/O propagation (the default):
        #: decisions assume/retract on an
        #: :class:`~repro.model.pathsession.AnalyzerSession` instead of
        #: re-sweeping the window per iteration.  ``False`` keeps
        #: ``analyzer.compute`` as the reference oracle.
        self.incremental = incremental
        #: Absolute :func:`repro.core.clock.cpu_time` budget; the search
        #: returns a (non-cacheable) FAILURE promptly once it passes.
        self.deadline = deadline
        #: Loop iterations served by the session instead of a full sweep.
        self.sweeps_avoided = 0
        self._session = None
        self._merged = dict(self.implied_ctrl)
        self._obs_distance = _cached_observability_distance(self.netlist)

    def _rotate(self, items: list) -> list:
        if not items or self.variant == 0:
            return items
        shift = self.variant % len(items)
        return items[shift:] + items[:shift]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def select_paths(self, error_net: str, error_frame: int) -> TraceResult:
        """Find paths that control and observe ``error_net`` at ``error_frame``."""
        if error_net not in self.netlist.nets:
            raise ValueError(f"unknown error net {error_net!r}")
        if not 0 <= error_frame < self.n_frames:
            raise ValueError(f"error frame {error_frame} outside the window")
        ctrl_decided: dict[CtrlVar, int] = {}
        fo: dict[FoVar, int] = {}
        stack: list[Decision] = []
        backtracks = 0
        decision_count = 0
        target = (error_frame, error_net)
        self._merged = dict(self.implied_ctrl)
        if self.incremental:
            from repro.model.pathsession import AnalyzerSession

            self._session = AnalyzerSession(
                self.analyzer, self.implied_ctrl, {}
            )
            states = self._session.costates
        else:
            self._session = None

        first = True
        while True:
            if (
                self.deadline is not None
                and clock.cpu_time() > self.deadline
            ):
                return TraceResult(TraceStatus.FAILURE, backtracks=backtracks,
                                   decisions=decision_count,
                                   deadline_hit=True)
            if self._session is None:
                states = self.analyzer.compute(self._merged, fo)
            elif not first:
                self.sweeps_avoided += 1
            first = False
            # The activation site must be *closed*: C4 (on a justification
            # path) or C3 (value determined — e.g. behind a shifter with a
            # constant amount; whether the determined value can activate
            # the error is then DPRELAX's problem, per the division of
            # labour in Section V).
            c_state = states.net_c[target]
            c_ok = c_state in (CState.C4, CState.C3)
            o_ok = states.net_o[target] is OState.O3
            impossible = states.net_o[target] is OState.O2
            if c_ok and o_ok:
                path = self._extract_path(states, target)
                control_side = frozenset(
                    (d.var, d.value) for d in stack
                    if d.kind == "ctrl" and d.purpose == "control"
                )
                return TraceResult(
                    TraceStatus.SUCCESS,
                    ctrl_objectives=dict(ctrl_decided),
                    fo_choices=dict(fo),
                    propagation_path=path,
                    backtracks=backtracks,
                    decisions=decision_count,
                    control_side=control_side,
                )
            decision = None
            if not impossible:
                if not c_ok:
                    decision = self._backtrace_control(target, states, ctrl_decided, fo)
                if decision is None and not o_ok:
                    decision = self._backtrace_observe(target, states, ctrl_decided, fo)
                    if decision is not None:
                        decision.purpose = "observe"
            if decision is not None:
                decision = self._apply_discouragement(decision)
            if decision is None:
                # Conflict (or no progress possible): backtrack.
                while stack:
                    if (
                        self.deadline is not None
                        and clock.cpu_time() > self.deadline
                    ):
                        return TraceResult(
                            TraceStatus.FAILURE, backtracks=backtracks,
                            decisions=decision_count, deadline_hit=True,
                        )
                    last = stack[-1]
                    self._unapply(last, ctrl_decided, fo)
                    if last.alternatives:
                        last.value = last.alternatives.pop(0)
                        self._apply(last, ctrl_decided, fo)
                        backtracks += 1
                        break
                    stack.pop()
                    backtracks += 1
                else:
                    return TraceResult(TraceStatus.FAILURE, backtracks=backtracks,
                                       decisions=decision_count)
                if backtracks > self.max_backtracks:
                    return TraceResult(TraceStatus.FAILURE, backtracks=backtracks,
                                       decisions=decision_count)
                continue
            self._apply(decision, ctrl_decided, fo)
            stack.append(decision)
            decision_count += 1

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------
    def _apply_discouragement(self, decision: Decision) -> Decision:
        """Rotate a ctrl decision's value order so values that previously
        led the controller search into a dead end are tried last."""
        if decision.kind != "ctrl" or not decision.alternatives:
            return decision
        ordered = [decision.value, *decision.alternatives]
        preferred = [
            v for v in ordered if (decision.var, v) not in self.discouraged
        ]
        demoted = [v for v in ordered if v not in preferred]
        reordered = preferred + demoted
        decision.value = reordered[0]
        decision.alternatives = reordered[1:]
        return decision

    def _apply(self, decision: Decision, ctrl, fo) -> None:
        if decision.kind == "ctrl":
            ctrl[decision.var] = decision.value
            self._merged[decision.var] = decision.value
        else:
            fo[decision.var] = decision.value
        if self._session is not None:
            self._session.assume(decision.kind, decision.var, decision.value)

    def _unapply(self, decision: Decision, ctrl, fo) -> None:
        if decision.kind == "ctrl":
            ctrl.pop(decision.var, None)
            if decision.var in self.implied_ctrl:  # pragma: no cover
                self._merged[decision.var] = self.implied_ctrl[decision.var]
            else:
                self._merged.pop(decision.var, None)
        else:
            fo.pop(decision.var, None)
        if self._session is not None:
            self._session.retract()

    def _ctrl_value(self, ctrl_decided, frame: int, net: Net) -> int | None:
        key = (frame, net.name)
        if key in self.implied_ctrl:
            return self.implied_ctrl[key]
        return ctrl_decided.get(key)

    # ------------------------------------------------------------------
    # Backtrace toward a controllability decision
    # ------------------------------------------------------------------
    def _backtrace_control(
        self, target: NetKey, states: CoStates, ctrl_decided, fo,
        _visited: set | None = None,
    ) -> Decision | None:
        """Walk backward from ``target`` to an open decision that can help
        drive its C-state toward C4."""
        visited = _visited if _visited is not None else set()
        if target in visited:
            return None
        visited.add(target)
        frame, net_name = target
        net = self.netlist.net(net_name)
        if states.net_c[target] is CState.C4:
            return None  # already controlled
        driver = net.driver
        if driver is None:
            return None  # external input: C-state is what it is
        module = driver.module
        if isinstance(module, RegisterModule):
            return self._backtrace_register(module, frame, states, ctrl_decided, fo, visited)
        if module.module_class is ModuleClass.SOURCE:
            return None  # constants cannot be controlled
        if module.module_class is ModuleClass.MUX:
            return self._backtrace_mux_control(
                module, frame, states, ctrl_decided, fo, visited
            )
        # ADD: one input suffices; AND: all inputs needed — in both cases
        # recurse into the most promising non-C4 input.
        candidates = self._ranked_inputs(module, frame, states)
        for port in candidates:
            sub = self._enter_branch(port, frame, states, ctrl_decided, fo, visited)
            if sub is not None:
                return sub
        return None

    def _ranked_inputs(self, module: Module, frame: int, states: CoStates):
        """Data inputs ordered by how promising their C-state is."""
        rank = {CState.C1: 0, CState.C2: 1, CState.C4: 3, CState.C3: 2}
        ports = [
            p for p in module.data_inputs
            if states.port_c[(frame, p.full_name)] is not CState.C4
        ]
        return sorted(
            ports, key=lambda p: rank[states.port_c[(frame, p.full_name)]]
        )

    def _enter_branch(
        self, port, frame: int, states: CoStates, ctrl_decided, fo, visited
    ) -> Decision | None:
        """Cross a fanout stem toward ``port``; may yield an FO decision."""
        net = port.net
        if net.has_fanout:
            key = (frame, net.name)
            choice = fo.get(key)
            index = net.sinks.index(port)
            if choice is None:
                if states.net_c[key] in (CState.C4, CState.C1, CState.C2):
                    return Decision("fo", key, index, alternatives=[])
                return None
            if choice != index:
                return None  # stem already granted to another branch
        return self._backtrace_control(
            (frame, net.name), states, ctrl_decided, fo, visited
        )

    def _backtrace_mux_control(
        self, module: MuxModule, frame: int, states, ctrl_decided, fo, visited
    ) -> Decision | None:
        sel_net = module.control_inputs[0].net
        sel = self._ctrl_value(ctrl_decided, frame, sel_net)
        if sel is None:
            # Decide the select: prefer inputs already controlled, then open.
            ranked = sorted(
                range(len(module.data_inputs)),
                key=lambda i: {
                    CState.C4: 0,
                    CState.C1: 1,
                    CState.C2: 2,
                    CState.C3: 3,
                }[states.port_c[(frame, module.data_inputs[i].full_name)]],
            )
            viable = [
                i for i in ranked
                if states.port_c[(frame, module.data_inputs[i].full_name)]
                is not CState.C3
            ]
            if not viable:
                # No input can become controlled, but assigning the select
                # still *closes* the output (C2 -> C3), which satisfies
                # closure requirements (activation sites, ADD-class side
                # inputs).  Any input will do; keep them all as options.
                return Decision(
                    "ctrl", (frame, sel_net.name), ranked[0],
                    alternatives=ranked[1:],
                )
            return Decision(
                "ctrl", (frame, sel_net.name), viable[0],
                alternatives=viable[1:],
            )
        index = sel if sel < len(module.data_inputs) else 0
        port = module.data_inputs[index]
        return self._enter_branch(port, frame, states, ctrl_decided, fo, visited)

    def _backtrace_register(
        self, reg: RegisterModule, frame: int, states, ctrl_decided, fo, visited
    ) -> Decision | None:
        if frame == 0:
            return None  # reset state is fixed (or already stimulus/C4)
        route = self.analyzer._register_route(reg, frame - 1, self._merged)
        if route is None:
            # Gate the register open: enable=1 first, then clear=0.
            idx = 0
            if reg.has_enable:
                en_net = reg.control_inputs[idx].net
                if self._ctrl_value(ctrl_decided, frame - 1, en_net) is None:
                    return Decision(
                        "ctrl", (frame - 1, en_net.name), 1, alternatives=[0]
                    )
                idx += 1
            if reg.has_clear:
                clr_net = reg.control_inputs[idx if reg.has_enable else 0].net
                if self._ctrl_value(ctrl_decided, frame - 1, clr_net) is None:
                    return Decision(
                        "ctrl", (frame - 1, clr_net.name), 0, alternatives=[]
                    )
            return None
        if route == "clear":
            return None  # squashed to a constant: not controllable
        if route == "hold":
            return self._backtrace_control(
                (frame - 1, reg.output.net.name), states, ctrl_decided, fo, visited
            )
        return self._backtrace_control(
            (frame - 1, reg.data_inputs[0].net.name), states, ctrl_decided, fo,
            visited,
        )

    # ------------------------------------------------------------------
    # Backtrace toward an observability decision
    # ------------------------------------------------------------------
    def _backtrace_observe(
        self, target: NetKey, states: CoStates, ctrl_decided, fo,
        _visited: set | None = None,
    ) -> Decision | None:
        """Walk forward from ``target`` toward a DPO, producing a decision."""
        visited = _visited if _visited is not None else set()
        if target in visited:
            return None
        visited.add(target)
        frame, net_name = target
        net = self.netlist.net(net_name)
        if states.net_o[target] is OState.O3:
            return None
        # Rank sinks: unknown observability first, then by the static
        # observability distance of the module output (the SCOAP-style
        # measure of [2] the paper adapts) — this prefers paths that move
        # forward through the pipeline toward an output over paths looping
        # back through bypass buses.
        big = len(self.netlist.nets) + 1

        def sink_rank(port) -> tuple[int, int]:
            state_rank = (
                0
                if states.port_o.get((frame, port.full_name)) is OState.O1
                else 1
            )
            module = port.module
            if isinstance(module, RegisterModule):
                distance = self._obs_distance.get(
                    module.output.net.name, big
                )
            elif port.kind.value == "control":
                distance = big
            else:
                distance = self._obs_distance.get(
                    module.output.net.name, big
                )
            return (state_rank, distance)

        sinks = self._rotate(sorted(net.sinks, key=sink_rank))
        for port in sinks:
            module = port.module
            if isinstance(module, RegisterModule):
                decision = self._observe_through_register(
                    module, frame, states, ctrl_decided, fo, visited
                )
            elif port.kind.value == "control":
                decision = None
            else:
                decision = self._observe_through_module(
                    module, port, frame, states, ctrl_decided, fo, visited
                )
            if decision is not None:
                return decision
        return None

    def _observe_through_module(
        self, module: Module, port, frame: int, states, ctrl_decided, fo, visited
    ) -> Decision | None:
        port_state = states.port_o.get((frame, port.full_name))
        if port_state is OState.O2:
            return None
        out_key = (frame, module.output.net.name)
        if module.module_class is ModuleClass.MUX:
            sel_net = module.control_inputs[0].net
            sel = self._ctrl_value(ctrl_decided, frame, sel_net)
            index = module.data_inputs.index(port)
            if sel is None:
                # No alternative select value can route this sink (any
                # other value deselects us), so a route whose decision was
                # precisely blamed for a controller dead end is skipped and
                # the walk tries the next sink.
                if ((frame, sel_net.name), index) in self.discouraged:
                    return None
                return Decision(
                    "ctrl", (frame, sel_net.name), index, alternatives=[]
                )
            effective = sel if sel < len(module.data_inputs) else 0
            if effective != index:
                return None
            return self._backtrace_observe(out_key, states, ctrl_decided, fo, visited)
        # ADD/AND: side inputs must be closed (ADD) or controlled (AND).
        need_c4 = module.module_class is ModuleClass.AND
        for side in module.data_inputs:
            if side is port:
                continue
            side_state = states.port_c[(frame, side.full_name)]
            blocked = (
                side_state not in (CState.C3, CState.C4)
                if not need_c4
                else side_state is not CState.C4
            )
            if blocked:
                # The side branch must be driven toward C4: this may mean
                # granting its fanout stem to this branch (an FO decision)
                # or justifying the stem itself.
                decision = self._enter_branch(
                    side, frame, states, ctrl_decided, fo, set()
                )
                if decision is not None:
                    return decision
                return None
        return self._backtrace_observe(out_key, states, ctrl_decided, fo, visited)

    def _observe_through_register(
        self, reg: RegisterModule, frame: int, states, ctrl_decided, fo, visited
    ) -> Decision | None:
        if frame + 1 >= self.n_frames:
            return None
        route = self.analyzer._register_route(reg, frame, self._merged)
        if route is None:
            idx = 0
            if reg.has_enable:
                en_net = reg.control_inputs[idx].net
                if self._ctrl_value(ctrl_decided, frame, en_net) is None:
                    return Decision(
                        "ctrl", (frame, en_net.name), 1, alternatives=[]
                    )
                idx += 1
            if reg.has_clear:
                clr_net = reg.control_inputs[idx if reg.has_enable else 0].net
                if self._ctrl_value(ctrl_decided, frame, clr_net) is None:
                    return Decision(
                        "ctrl", (frame, clr_net.name), 0, alternatives=[]
                    )
            return None
        if route != "d":
            return None  # stalled or squashed: the D value is dropped
        return self._backtrace_observe(
            (frame + 1, reg.output.net.name), states, ctrl_decided, fo, visited
        )

    # ------------------------------------------------------------------
    # Path extraction (for the exposure/unmasking loop)
    # ------------------------------------------------------------------
    # (static observability distance helper is module-level below)

    def _extract_path(self, states: CoStates, start: NetKey) -> list[NetKey]:
        """Follow O3 states from the error site to a DPO instance."""
        path = [start]
        seen = {start}
        current = start
        for _ in range(len(self.netlist.nets) * self.n_frames):
            frame, net_name = current
            net = self.netlist.net(net_name)
            if net.role is NetRole.DPO:
                return path
            advanced = False
            for port in net.sinks:
                module = port.module
                if isinstance(module, RegisterModule):
                    nxt = (frame + 1, module.output.net.name)
                    if (
                        frame + 1 < self.n_frames
                        and states.net_o.get(nxt) is OState.O3
                        and nxt not in seen
                    ):
                        current = nxt
                        path.append(nxt)
                        seen.add(nxt)
                        advanced = True
                        break
                    continue
                if port.kind.value == "control":
                    continue
                if states.port_o.get((frame, port.full_name)) is OState.O3:
                    nxt = (frame, module.output.net.name)
                    if states.net_o.get(nxt) is OState.O3 and nxt not in seen:
                        current = nxt
                        path.append(nxt)
                        seen.add(nxt)
                        advanced = True
                        break
            if not advanced:
                return path
        return path


def _cached_observability_distance(netlist) -> dict[str, int]:
    """Per-netlist memo of :func:`_observability_distance` (pure in the
    netlist structure; DPTrace instances are built once per TG round)."""
    cached = netlist.__dict__.get("_obs_distance_memo")
    if cached is None:
        cached = netlist.__dict__["_obs_distance_memo"] = (
            _observability_distance(netlist)
        )
    return cached


def _observability_distance(netlist) -> dict[str, int]:
    """Static per-net distance (in modules/registers) to the nearest DPO.

    The SCOAP-flavoured observability measure [2] adapted to the word level,
    used only to rank alternatives during the observe backtrace; it ignores
    control conditions, so it is a heuristic, not a guarantee.
    """
    from collections import deque

    distance: dict[str, int] = {}
    queue: deque[str] = deque()
    for net in netlist.nets.values():
        if net.role is NetRole.DPO:
            distance[net.name] = 0
            queue.append(net.name)
    while queue:
        name = queue.popleft()
        net = netlist.net(name)
        next_distance = distance[name] + 1
        driver = net.driver
        if driver is None:
            continue
        module = driver.module
        for port in module.data_inputs:
            if port.net is None:
                continue
            if next_distance < distance.get(port.net.name, 1 << 30):
                distance[port.net.name] = next_distance
                queue.append(port.net.name)
    return distance
