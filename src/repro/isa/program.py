"""The :class:`Program` container: instructions plus label metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.registers import MachineSpec


@dataclass(frozen=True)
class Program:
    """An assembled program.

    Branch/jump targets are static instruction indices into
    :attr:`instructions`; ``labels`` maps label names to indices for
    debugging and disassembly.
    """

    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)
    spec: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self) -> None:
        for index, inst in enumerate(self.instructions):
            for reg in (*inst.reads, *inst.writes):
                try:
                    self.spec.validate_register(reg)
                except ValueError as exc:
                    raise ValueError(f"instruction {index} ({inst}): {exc}") from exc
            if inst.target is not None and not 0 <= inst.target <= len(self.instructions):
                raise ValueError(
                    f"instruction {index} ({inst}): target {inst.target} out of range"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @cached_property
    def kinds(self) -> tuple[OpClass, ...]:
        """Each instruction's :class:`OpClass`, by static index.

        Decoded once per program: the engines test these with ``is``
        every cycle, where :attr:`Instruction.is_branch` and friends pay
        two enum lookups per use.
        """
        return tuple(inst.op.op_class for inst in self.instructions)

    def disassemble(self) -> str:
        """Render the program as assembly text with label annotations."""
        index_to_labels: dict[int, list[str]] = {}
        for name, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(name)
        lines = []
        for index, inst in enumerate(self.instructions):
            for name in sorted(index_to_labels.get(index, [])):
                lines.append(f"{name}:")
            lines.append(f"  {inst}")
        for name in sorted(index_to_labels.get(len(self.instructions), [])):
            lines.append(f"{name}:")
        return "\n".join(lines)

    @staticmethod
    def from_instructions(
        instructions: Sequence[Instruction], spec: MachineSpec | None = None
    ) -> "Program":
        """Build a :class:`Program` from a plain instruction sequence."""
        return Program(tuple(instructions), {}, spec or MachineSpec())
