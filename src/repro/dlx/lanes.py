"""Lane-batched DLX environment: many programs per kernel call.

:class:`BatchDlxEnv` runs a batch of DLX programs on the pipelined
implementation in lockstep over :class:`repro.verify.lanes.
LaneProcessorSimulator`, reproducing :class:`repro.dlx.env.DlxEnv` lane by
lane — same full-resolve preview, same commit/store/load event extraction,
same fetch-unit and branch-prediction bookkeeping.  Lanes carry their own
architectural registers, memory image and shadow fetch pipeline; only the
netlist evaluation is vectorised.

Programs may be ragged (different lengths and cycle limits): a finished
lane keeps stepping on NOPs with quiescent stimulus, unobserved, and the
``active_lanes`` count keeps the batch fill-rate counters honest.  A lane
whose scalar run would raise ``CosimError`` records the message and goes
dead instead of aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.datapath.simulate import Injector, ModuleOverride, no_injection
from repro.dlx.isa import NOP, N_REGS, WIDTH, Instruction, to_cpi
from repro.dlx.spec import DlxSpecResult, Event, Memory, _SIZE_BYTES
from repro.model.processor import Processor
from repro.utils.bits import mask, to_unsigned
from repro.verify.cosim import CycleTrace, Trace
from repro.verify.lanes import LaneProcessorSimulator


@dataclass
class LaneRun:
    """Per-lane outcome of one batched run."""

    result: DlxSpecResult | None
    trace: Trace
    failure: str | None
    dense_cycles: list | None


class BatchDlxEnv:
    """Drives a batch of programs through the DLX implementation."""

    def __init__(
        self,
        processor: Processor,
        n_lanes: int,
        injector: Injector = no_injection,
        module_overrides: Mapping[str, ModuleOverride] | None = None,
    ) -> None:
        self.processor = processor
        self.sim = LaneProcessorSimulator(
            processor, n_lanes, injector=injector,
            module_overrides=module_overrides,
        )
        self.n_lanes = n_lanes
        self.branch_prediction = (
            "predict_taken" in processor.controller.network.signals
        )
        index = self.sim.cd.index
        self._wb_id = index["wb_value_o"]
        self._addr_id = index["dmem_addr_o"]
        self._wdata_id = index["dmem_wdata_o"]
        self._alu_id = index.get("mem_alu.y")

    def _lane_value(self, net_id, lane):
        if net_id is None or not self.sim.dp.known[net_id][lane]:
            return None
        return int(self.sim.dp.values[net_id][lane])

    def run(
        self,
        programs: Sequence[Sequence[Instruction]],
        init_regs: Sequence[Sequence[int] | None] | None = None,
        init_memory: Sequence[dict[int, int] | None] | None = None,
        drain: int = 8,
        max_cycles: int | None = None,
        record: str = "controller",
    ) -> list[LaneRun]:
        """Run one program per lane (lockstep); returns per-lane outcomes.

        ``record`` works as in :class:`repro.mini.lanes.BatchMiniEnv`:
        ``"controller"`` / ``"dense"`` / ``"full"``.
        """
        if len(programs) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} programs, got {len(programs)}"
            )
        if record not in ("controller", "dense", "full"):
            raise ValueError(f"unknown record mode {record!r}")
        sim = self.sim
        n = self.n_lanes

        regs: list[list[int]] = []
        memories: list[Memory] = []
        streams: list[list[Instruction]] = []
        limits: list[int] = []
        for b in range(n):
            lane_init = init_regs[b] if init_regs is not None else None
            lane_regs = list(lane_init) if lane_init is not None else (
                [0] * N_REGS
            )
            lane_regs = [to_unsigned(r, WIDTH) for r in lane_regs]
            lane_regs[0] = 0
            regs.append(lane_regs)
            memory = Memory()
            lane_mem = init_memory[b] if init_memory is not None else None
            if lane_mem:
                for addr, word in lane_mem.items():
                    memory.words[addr & ~0x3 & mask(WIDTH)] = to_unsigned(
                        word, WIDTH
                    )
            memories.append(memory)
            program = programs[b]
            n_branches = sum(
                1 for i in program if i.op in ("BEQZ", "BNEZ")
            )
            stream = list(program) + [NOP] * (drain + 2 * n_branches)
            streams.append(stream)
            limits.append(max_cycles or (len(stream) + 3 * len(stream) + 16))

        events: list[list[Event]] = [[] for _ in range(n)]
        traces = [Trace() for _ in range(n)]
        dense: list[list | None] = [
            [] if record == "dense" else None for _ in range(n)
        ]
        failure: list[str | None] = [None] * n
        position = [0] * n
        imm_in_id = [0] * n
        cycles = [0] * n
        id_pos: list[int | None] = [None] * n
        ex_pos: list[int | None] = [None] * n
        empty_cpi: dict = {}
        quiet_dpi = {"rf_a": 0, "rf_b": 0, "imm16": 0, "dmem_rdata": 0}
        nop_cpi = to_cpi(NOP)

        while True:
            active = [
                b for b in range(n)
                if failure[b] is None
                and position[b] < len(streams[b])
                and cycles[b] < limits[b]
            ]
            if not active:
                break
            sim.dp.active_lanes = len(active)

            ctl_list = sim.resolve([empty_cpi] * n, [empty_cpi] * n)
            previews = []
            for b in range(n):
                previews.append((
                    self._lane_value(self._wb_id, b),
                    self._lane_value(self._addr_id, b),
                    self._lane_value(self._wdata_id, b),
                    self._lane_value(self._alu_id, b),
                ))

            cpi_list: list[dict] = [nop_cpi] * n
            dpi_list: list[dict] = [quiet_dpi] * n
            stalled = [False] * n
            instructions: list[Instruction] = [NOP] * n
            for b in active:
                cycles[b] += 1
                ctl = ctl_list[b]
                wb_value, dmem_addr, dmem_wdata, alu_y = previews[b]

                # Commit the write-back of the instruction in WB.
                if ctl.get("regwrite_g_ctl") == 1:
                    dest = ctl["dest_wb"]
                    if dest != 0 and wb_value is not None:
                        regs[b][dest] = wb_value
                        events[b].append(("reg", dest, wb_value))

                # Memory-pin activity of the instruction in MEM.
                if (
                    ctl.get("mem_access_ctl") == 1
                    and ctl.get("memwrite_ctl") != 1
                ):
                    if dmem_addr is not None:
                        events[b].append(
                            ("load", dmem_addr, ctl["size_mem"])
                        )

                # Commit the store of the instruction in MEM.
                if ctl.get("memwrite_ctl") == 1:
                    size = ctl["size_mem"]
                    if dmem_addr is not None and dmem_wdata is not None:
                        memories[b].write(dmem_addr, dmem_wdata, size)
                        nbytes = _SIZE_BYTES[size]
                        events[b].append(
                            ("mem", dmem_addr, size,
                             dmem_wdata & mask(8 * nbytes))
                        )

                stalled[b] = ctl.get("stall") == 1
                instruction = streams[b][position[b]]
                instructions[b] = instruction

                rs_id = ctl["rs_id"]
                rt_id = ctl["rt_id"]
                dpi = {
                    "rf_a": regs[b][rs_id],
                    "rf_b": regs[b][rt_id],
                    "imm16": imm_in_id[b],
                }
                mem_address = dmem_addr
                if ctl.get("mem_access_ctl") != 1:
                    mem_address = alu_y
                if mem_address is not None:
                    dpi["dmem_rdata"] = memories[b].read_word(mem_address)
                cpi_list[b] = to_cpi(instruction)
                dpi_list[b] = dpi

            ctl_values, failures = sim.step(cpi_list, dpi_list)
            for b in active:
                if b in failures:
                    failure[b] = failures[b]
                    continue
                if record == "full":
                    datapath = sim.datapath_dict(b)
                else:
                    datapath = {}
                    if record == "dense":
                        dense[b].append(sim.dense_datapath(b))
                traces[b].cycles.append(
                    CycleTrace(datapath=datapath, controller=ctl_values[b])
                )

                ctl = ctl_list[b]
                instruction = instructions[b]
                if self.branch_prediction:
                    presented_pos = position[b]
                    if ctl.get("id_ex_clear") == 1:
                        new_ex_pos = None
                    else:
                        new_ex_pos = id_pos[b]
                    if ctl.get("if_id_clear") == 1:
                        id_pos[b] = None
                    elif not stalled[b]:
                        id_pos[b] = presented_pos
                    ex_at_resolution = ex_pos[b]
                    ex_pos[b] = new_ex_pos
                    if (
                        ctl.get("redirect_back") == 1
                        and ex_at_resolution is not None
                    ):
                        position[b] = ex_at_resolution + 1
                    elif not stalled[b]:
                        imm_in_id[b] = instruction.imm
                        predicted_taken = (
                            ctl.get("pred") == 1
                            and instruction.op in ("BEQZ", "BNEZ")
                            and ctl.get("if_id_clear") != 1
                        )
                        position[b] += 3 if predicted_taken else 1
                else:
                    if not stalled[b]:
                        imm_in_id[b] = instruction.imm
                        position[b] += 1
        sim.dp.active_lanes = self.n_lanes

        return [
            LaneRun(
                result=(
                    None if failure[b] is not None
                    else DlxSpecResult(
                        events=events[b], registers=regs[b],
                        memory=memories[b],
                    )
                ),
                trace=traces[b],
                failure=failure[b],
                dense_cycles=dense[b],
            )
            for b in range(n)
        ]
