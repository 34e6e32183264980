"""The fetch unit: walks the predicted path and delivers instructions.

Conventional fetch delivers up to ``width`` *contiguous* instructions
per cycle and stops at the first predicted-taken control transfer —
that is the fetch-bandwidth wall trace caches exist to break.  With a
:class:`repro.memory.trace_cache.TraceCache` attached, a hit delivers a
stored dynamic trace that may span several taken branches in a single
cycle; misses fall back to conventional fetch and fill the trace cache.

The fetch unit is shared by all processor models; each model calls
:meth:`FetchUnit.fetch_cycle` once per simulated cycle and
:meth:`FetchUnit.redirect` on branch mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.branch_predictor import BranchPredictor
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program
from repro.memory.trace_cache import TraceCache

_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP
_HALT = Opcode.HALT


@dataclass(frozen=True)
class FetchedInstruction:
    """One instruction leaving the front end."""

    static_index: int
    instruction: Instruction
    #: prediction for control transfers (None for non-control instructions)
    predicted_taken: bool | None
    #: the PC fetch continued from after this instruction
    predicted_next: int


class FetchUnit:
    """See module docstring.

    Args:
        program: the static program.
        predictor: conditional-branch predictor.
        width: maximum instructions delivered per cycle.
        trace_cache: optional trace cache for multi-branch fetch.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        width: int = 4,
        trace_cache: TraceCache | None = None,
    ):
        if width < 1:
            raise ValueError("fetch width must be positive")
        self.program = program
        self.predictor = predictor
        self.width = width
        self.trace_cache = trace_cache
        self._kinds = program.kinds
        self._pc: int | None = 0 if len(program) else None
        self.fetched_count = 0
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0

    @property
    def pc(self) -> int | None:
        """Next PC to fetch, or ``None`` when fetch is stopped (HALT / end)."""
        return self._pc

    def redirect(self, pc: int) -> None:
        """Restart fetch at *pc* (misprediction recovery or explicit jump)."""
        if 0 <= pc < len(self.program):
            self._pc = pc
        else:
            self._pc = None

    def stalled(self) -> bool:
        """True when fetch has stopped (awaiting redirect or program end)."""
        return self._pc is None

    def counters(self) -> dict[str, int]:
        """Front-end telemetry counters (``fetch.*`` namespace)."""
        counters = {"fetch.delivered": self.fetched_count}
        if self.trace_cache is not None:
            counters["fetch.trace_cache_hits"] = self.trace_cache_hits
            counters["fetch.trace_cache_misses"] = self.trace_cache_misses
        return counters

    # -- fetch ------------------------------------------------------------

    def _predict(self, pc: int, inst: Instruction) -> tuple[bool | None, int]:
        """(prediction, next pc) along the predicted path."""
        kind = self._kinds[pc]
        if kind is _BRANCH:
            taken = self.predictor.predict(pc, inst)
            return taken, (inst.target if taken else pc + 1)
        if kind is _JUMP:
            return True, inst.target
        return None, pc + 1

    def fetch_cycle(self, budget: int | None = None) -> list[FetchedInstruction]:
        """Deliver this cycle's instructions along the predicted path.

        *budget* caps the delivery below the configured width (e.g. when
        the window has fewer free stations than the fetch width).
        """
        if self._pc is None:
            return []
        width = self.width if budget is None else max(0, min(self.width, budget))
        if width == 0:
            return []
        if self.trace_cache is not None:
            fetched = self._fetch_with_trace_cache(width)
        else:
            fetched = self._fetch_conventional(width, stop_at_taken=True)
        if fetched:
            self.fetched_count += len(fetched)
            last = fetched[-1]
            if last.instruction.op is _HALT:
                self._pc = None
            elif not 0 <= last.predicted_next < len(self.program):
                self._pc = None
            else:
                self._pc = last.predicted_next
        return fetched

    def _fetch_conventional(
        self, budget: int, stop_at_taken: bool
    ) -> list[FetchedInstruction]:
        assert self._pc is not None
        pc = self._pc
        instructions = self.program.instructions
        fetched: list[FetchedInstruction] = []
        while len(fetched) < budget and 0 <= pc < len(instructions):
            inst = instructions[pc]
            predicted, next_pc = self._predict(pc, inst)
            fetched.append(FetchedInstruction(pc, inst, predicted, next_pc))
            if inst.op is _HALT:
                break
            if stop_at_taken and predicted is True:
                break  # cannot fetch past a taken transfer without a trace cache
            pc = next_pc
        return fetched

    def _fetch_with_trace_cache(self, width: int) -> list[FetchedInstruction]:
        assert self.trace_cache is not None and self._pc is not None
        start_pc = self._pc
        # Walk the predicted path to build the outcome vector we want.
        path = self._walk_predicted_path(start_pc, width)
        outcomes = tuple(
            f.predicted_taken
            for f in path
            if f.instruction.is_branch and f.predicted_taken is not None
        )
        stored = self.trace_cache.lookup(start_pc, outcomes)
        if stored is not None:
            # Deliver the stored trace (truncated to the fetch width); its
            # instructions carry fresh predictions so redirects stay honest.
            delivered: list[FetchedInstruction] = []
            pc_check = start_pc
            for static_index in stored[:width]:
                if pc_check != static_index:
                    break  # stale trace (path diverged); deliver the prefix
                inst = self.program[static_index]
                predicted, next_pc = self._predict(static_index, inst)
                delivered.append(
                    FetchedInstruction(static_index, inst, predicted, next_pc)
                )
                if inst.is_halt:
                    break
                pc_check = next_pc
            if delivered:
                self.trace_cache_hits += 1
                return delivered
        # Miss: conventional fetch this cycle, then fill the trace cache
        # with the predicted path for next time.
        self.trace_cache_misses += 1
        fetched = self._fetch_conventional(width, stop_at_taken=True)
        fill_path = path[: min(len(path), self.trace_cache.trace_length)]
        fill_outcomes = []
        trimmed: list[FetchedInstruction] = []
        for f in fill_path:
            if f.instruction.is_branch and f.predicted_taken is not None:
                if len(fill_outcomes) >= self.trace_cache.max_branches:
                    break
                fill_outcomes.append(f.predicted_taken)
            trimmed.append(f)
        if trimmed:
            self.trace_cache.fill(
                start_pc,
                tuple(fill_outcomes),
                tuple(f.static_index for f in trimmed),
            )
        return fetched

    def _walk_predicted_path(self, start_pc: int, width: int) -> list[FetchedInstruction]:
        """The predicted path from *start_pc*, crossing taken branches."""
        assert self.trace_cache is not None
        path: list[FetchedInstruction] = []
        pc = start_pc
        branches = 0
        limit = min(width, self.trace_cache.trace_length)
        while len(path) < limit and 0 <= pc < len(self.program):
            inst = self.program[pc]
            predicted, next_pc = self._predict(pc, inst)
            path.append(FetchedInstruction(pc, inst, predicted, next_pc))
            if inst.is_halt:
                break
            if inst.is_branch:
                branches += 1
                if branches > self.trace_cache.max_branches:
                    break
            pc = next_pc
        return path
