"""A NumPy-vectorized Ultrascalar ring engine: the independent reference.

An implementation of the Ultrascalar I ring written a second, unrelated
way.  Instead of rename links and wakeup lists it recomputes the whole
per-cycle datapath as array operations across stations and registers:

* the per-register "nearest preceding done writer" CSPP is one
  ``np.maximum.accumulate`` over a ``(L, n)`` writer matrix;
* issue, execution countdown, and commit are boolean array operations.

It was written when the object-per-station engine was too slow for the
paper's large windows.  The event-driven
:class:`repro.ultrascalar.ring.RingProcessor` now runs the large-``n``
experiments (E14, E15) itself, in about a third of this engine's time
over E15's fifteen configurations (this engine still wins a few
low-dependence points).  This engine stays as the reference
:mod:`repro.verify.diff` and the tests hold the ring to: on the
programs it supports it must produce *identical* cycle counts, final
registers, and per-instruction issue times.

Scope: straight-line register programs — ALU/MUL/DIV ops, immediates,
MOV/NOP/HALT.  Memory operations and branches are rejected at
construction; use :class:`RingProcessor` for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.latency import LatencyModel
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.telemetry.session import resolve_tracer
from repro.telemetry.tracer import Tracer
from repro.util.bitops import WORD_MASK

_SUPPORTED = {
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SLL, Opcode.SRL, Opcode.MUL, Opcode.DIV,
    Opcode.ADDI, Opcode.MULI, Opcode.LI, Opcode.MOV,
    Opcode.NOP, Opcode.HALT,
}

# dense op codes for vectorized dispatch
_OP_INDEX = {op: i for i, op in enumerate(sorted(_SUPPORTED, key=lambda o: o.code))}

_EMPTY, _WAITING, _EXECUTING, _DONE = 0, 1, 2, 3


@dataclass
class VectorResult:
    """Outcome of a vector-engine run."""

    cycles: int
    registers: list[int]
    issue_cycles: list[int]
    complete_cycles: list[int]
    #: aggregated telemetry counters (empty under the default NullTracer)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return len(self.issue_cycles) / self.cycles if self.cycles else 0.0


class VectorRingEngine:
    """See module docstring.

    Args:
        program: a straight-line program (last instruction HALT or not).
        window_size: number of stations, ``n``.
        fetch_width: instructions fetched per cycle.
        latencies: functional-unit latencies.
    """

    def __init__(
        self,
        program: Program,
        window_size: int,
        fetch_width: int,
        latencies: LatencyModel | None = None,
        initial_registers: list[int] | None = None,
        tracer: Tracer | None = None,
    ):
        if window_size < 1 or fetch_width < 1:
            raise ValueError("window and fetch width must be positive")
        for index, inst in enumerate(program):
            if inst.op not in _SUPPORTED:
                raise ValueError(
                    f"vector engine does not support {inst.op.mnemonic} "
                    f"(instruction {index}); use RingProcessor"
                )
        self.program = program
        self.tracer = resolve_tracer(tracer)
        self._tracing = self.tracer.enabled
        self.n = window_size
        self.fetch_width = fetch_width
        self.latencies = latencies or LatencyModel()
        self.L = program.spec.num_registers

        m = len(program)
        # static per-instruction tables
        self.s_op = np.array([_OP_INDEX[inst.op] for inst in program], dtype=np.int64)
        self.s_rd = np.array(
            [inst.rd if inst.rd is not None else -1 for inst in program], dtype=np.int64
        )
        self.s_rs1 = np.array(
            [inst.rs1 if inst.rs1 is not None else -1 for inst in program], dtype=np.int64
        )
        self.s_rs2 = np.array(
            [inst.rs2 if inst.rs2 is not None else -1 for inst in program], dtype=np.int64
        )
        self.s_imm = np.array(
            [inst.imm if inst.imm is not None else 0 for inst in program], dtype=np.int64
        )
        self.s_lat = np.array(
            [self.latencies.latency_of(inst.op) for inst in program], dtype=np.int64
        )
        self.s_is_halt = np.array([inst.is_halt for inst in program], dtype=bool)
        self.m = m

        regs = initial_registers if initial_registers is not None else [0] * self.L
        if len(regs) != self.L:
            raise ValueError("initial register file has wrong size")
        self.committed_regs = np.array(regs, dtype=np.uint64)

        # dynamic station state
        n = self.n
        self.state = np.full(n, _EMPTY, dtype=np.int64)
        self.seq = np.full(n, -1, dtype=np.int64)       # dynamic index into program
        self.remaining = np.zeros(n, dtype=np.int64)
        self.result = np.zeros(n, dtype=np.uint64)
        self.oldest = 0
        self.next_fetch = 0
        self.cycle = 0
        self.issue_cycles = np.full(m, -1, dtype=np.int64)
        self.complete_cycles = np.full(m, -1, dtype=np.int64)
        self.committed_count = 0
        self.halted = False

    # ------------------------------------------------------------------

    def _compute(self, op_index: np.ndarray, a: np.ndarray, b: np.ndarray,
                 imm: np.ndarray) -> np.ndarray:
        """Vectorized ALU over uint64 operands (results masked to 32 bits)."""
        a64 = a.astype(np.uint64)
        b64 = b.astype(np.uint64)
        sa = a64.astype(np.int64)
        sa = np.where(sa >= 1 << 31, sa - (1 << 32), sa)
        sb = b64.astype(np.int64)
        sb = np.where(sb >= 1 << 31, sb - (1 << 32), sb)
        imm64 = imm.astype(np.int64)

        out = np.zeros_like(a64, dtype=np.int64)

        def sel(op: Opcode) -> np.ndarray:
            return op_index == _OP_INDEX[op]

        ai = a64.astype(np.int64)
        bi = b64.astype(np.int64)
        out = np.where(sel(Opcode.ADD), ai + bi, out)
        out = np.where(sel(Opcode.SUB), ai - bi, out)
        out = np.where(sel(Opcode.AND), ai & bi, out)
        out = np.where(sel(Opcode.OR), ai | bi, out)
        out = np.where(sel(Opcode.XOR), ai ^ bi, out)
        out = np.where(sel(Opcode.SLL), ai << (bi & 0x1F), out)
        out = np.where(sel(Opcode.SRL), ai >> (bi & 0x1F), out)
        out = np.where(sel(Opcode.MUL), (sa * sb) & WORD_MASK, out)
        # signed division with RISC-V edge cases
        safe_sb = np.where(sb == 0, 1, sb)
        quotient = np.abs(sa) // np.abs(safe_sb)
        quotient = np.where((sa < 0) != (safe_sb < 0), -quotient, quotient)
        quotient = np.where(sb == 0, -1, quotient)
        quotient = np.where((sa == -(1 << 31)) & (sb == -1), -(1 << 31), quotient)
        out = np.where(sel(Opcode.DIV), quotient, out)
        out = np.where(sel(Opcode.ADDI), ai + imm64, out)
        out = np.where(sel(Opcode.MULI), (sa * imm64) & WORD_MASK, out)
        out = np.where(sel(Opcode.LI), imm64, out)
        out = np.where(sel(Opcode.MOV), ai, out)
        return (out & WORD_MASK).astype(np.uint64)

    def step(self) -> None:
        """Advance one clock cycle (same phase order as RingProcessor)."""
        n, L = self.n, self.L

        # -- fetch ------------------------------------------------------
        if not self.halted:
            order = (self.oldest + np.arange(n)) % n
            empty_in_order = self.state[order] == _EMPTY
            occupied_count = (
                int(np.argmax(empty_in_order)) if empty_in_order.any() else n
            )
            free = order[occupied_count:]
            budget = min(self.fetch_width, len(free), self.m - self.next_fetch)
            loaded = 0
            for k in range(budget):
                pos = free[k]
                idx = self.next_fetch
                self.state[pos] = _WAITING
                self.seq[pos] = idx
                self.next_fetch += 1
                loaded += 1
                if self.s_is_halt[idx]:
                    break
            if self._tracing:
                if loaded:
                    self.tracer.count("fetch.cycles_active")
                    self.tracer.count("fetch.instructions", loaded)
                elif budget == 0 and self.next_fetch < self.m:
                    self.tracer.count("fetch.stall_cycles.window_full")

        # -- view + issue -------------------------------------------------
        order = (self.oldest + np.arange(n)) % n
        occ = self.state[order] != _EMPTY
        seq_ord = self.seq[order]
        safe_seq = np.where(seq_ord >= 0, seq_ord, 0)
        rd_ord = np.where(occ, self.s_rd[safe_seq], -1)
        done_ord = self.state[order] == _DONE
        result_ord = self.result[order]

        # nearest preceding done writer per register (the CSPP)
        reg_ids = np.arange(L)[:, None]
        writes = rd_ord[None, :] == reg_ids  # (L, n)
        write_pos = np.where(writes, np.arange(n)[None, :], -1)
        last_writer = np.maximum.accumulate(write_pos, axis=1)
        prev_writer = np.concatenate(
            [np.full((L, 1), -1, dtype=np.int64), last_writer[:, :-1]], axis=1
        )  # strictly earlier writer, (L, n)

        def source_view(src_regs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(value, ready) per order position for given source registers."""
            has_src = src_regs >= 0
            safe_src = np.where(has_src, src_regs, 0)
            writer = prev_writer[safe_src, np.arange(n)]
            from_committed = writer < 0
            safe_writer = np.where(from_committed, 0, writer)
            ready = from_committed | done_ord[safe_writer]
            value = np.where(
                from_committed,
                self.committed_regs[safe_src],
                result_ord[safe_writer],
            )
            ready = np.where(has_src, ready, True)
            value = np.where(has_src, value, np.uint64(0))
            return value, ready

        rs1_ord = np.where(occ, self.s_rs1[safe_seq], -1)
        rs2_ord = np.where(occ, self.s_rs2[safe_seq], -1)
        v1, r1 = source_view(rs1_ord)
        v2, r2 = source_view(rs2_ord)

        if self._tracing:
            self.tracer.count("cycles")
            self.tracer.count("commit.window_occupancy", int(occ.sum()))
        waiting = self.state[order] == _WAITING
        can_issue = waiting & r1 & r2
        if can_issue.any():
            positions = order[can_issue]
            seqs = self.seq[positions]
            self.state[positions] = _EXECUTING
            self.remaining[positions] = self.s_lat[seqs]
            self.issue_cycles[seqs] = self.cycle
            # compute results now; they publish when the countdown ends
            self.result[positions] = self._compute(
                self.s_op[seqs], v1[can_issue], v2[can_issue], self.s_imm[seqs]
            )
            if self._tracing:
                self.tracer.count("issue.cycles_active")
                self.tracer.count("issue.instructions", int(can_issue.sum()))

        # -- execute countdown -------------------------------------------
        executing = self.state == _EXECUTING
        self.remaining[executing] -= 1
        finishing = executing & (self.remaining == 0)
        if finishing.any():
            self.state[finishing] = _DONE
            self.complete_cycles[self.seq[finishing]] = self.cycle

        # -- commit ---------------------------------------------------------
        order = (self.oldest + np.arange(n)) % n
        done_prefix = (self.state[order] == _DONE)
        commits = int(np.argmax(~done_prefix)) if (~done_prefix).any() else n
        if commits:
            positions = order[:commits]
            seqs = self.seq[positions]
            rds = self.s_rd[seqs]
            has_rd = rds >= 0
            # in-order writes: later commits overwrite earlier ones
            self.committed_regs[rds[has_rd]] = self.result[positions][has_rd]
            if self.s_is_halt[seqs].any():
                self.halted = True
            self.state[positions] = _EMPTY
            self.seq[positions] = -1
            self.oldest = (self.oldest + commits) % n
            self.committed_count += commits
            if self._tracing:
                self.tracer.count("commit.instructions", commits)
                self.tracer.count("fetch.refills.per_station", commits)
                self.tracer.count("fetch.refilled_stations", commits)

        self.cycle += 1

    def run(self, max_cycles: int = 10_000_000) -> VectorResult:
        """Run until HALT (or the whole program) commits."""
        while not self.halted and self.committed_count < self.m:
            if self.cycle >= max_cycles:
                raise RuntimeError("vector engine exceeded max_cycles")
            self.step()
        return VectorResult(
            cycles=self.cycle,
            registers=[int(v) for v in self.committed_regs],
            issue_cycles=self.issue_cycles[: self.committed_count].tolist(),
            complete_cycles=self.complete_cycles[: self.committed_count].tolist(),
            stats=self.tracer.snapshot(),
        )
