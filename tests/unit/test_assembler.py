"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa import AssemblerError, Opcode, assemble
from repro.isa.opcodes import OpClass
from repro.isa.registers import MachineSpec


class TestBasic:
    def test_empty_source(self):
        assert len(assemble("")) == 0

    def test_single_instruction(self):
        program = assemble("add r1, r2, r3")
        assert len(program) == 1
        assert program[0].op is Opcode.ADD

    def test_comments_ignored(self):
        program = assemble("# a comment\nadd r1, r2, r3  ; trailing\n; full line\n")
        assert len(program) == 1

    def test_case_insensitive_mnemonics(self):
        program = assemble("ADD r1, r2, r3\nAdd r4, r5, r6")
        assert all(inst.op is Opcode.ADD for inst in program)

    def test_kinds_decoded_once(self):
        program = assemble("add r1, r2, r3\nmul r4, r1, r1\nlw r5, 0(r1)\nsw r5, 4(r1)\n"
                           "beq r1, r2, @6\nj @6\nhalt")
        assert program.kinds == (
            OpClass.ALU, OpClass.MUL, OpClass.LOAD, OpClass.STORE,
            OpClass.BRANCH, OpClass.JUMP, OpClass.SYSTEM,
        )
        assert program.kinds is program.kinds

    def test_hex_immediates(self):
        program = assemble("li r1, 0x10\naddi r2, r1, -0x2")
        assert program[0].imm == 16
        assert program[1].imm == -2


class TestLabels:
    def test_forward_reference(self):
        program = assemble("beq r1, r2, end\nnop\nend: halt")
        assert program[0].target == 2

    def test_backward_reference(self):
        program = assemble("top: nop\nj top")
        assert program[1].target == 0

    def test_label_on_own_line(self):
        program = assemble("loop:\n  nop\n  j loop")
        assert program.labels["loop"] == 0

    def test_label_at_end_of_program(self):
        program = assemble("beq r1, r2, end\nend:")
        assert program[0].target == 1

    def test_numeric_target(self):
        program = assemble("j @0")
        assert program[0].target == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x: nop\nx: nop")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError, match="undefined"):
            assemble("j nowhere")

    def test_multiple_labels_same_line(self):
        program = assemble("a: b: nop\nj a\nj b")
        assert program[1].target == 0
        assert program[2].target == 0


class TestMemoryOperands:
    def test_load_offset(self):
        program = assemble("lw r1, 12(r2)")
        inst = program[0]
        assert (inst.rd, inst.rs1, inst.imm) == (1, 2, 12)

    def test_store_operands(self):
        program = assemble("sw r7, -4(r3)")
        inst = program[0]
        assert (inst.rs2, inst.rs1, inst.imm) == (7, 3, -4)

    def test_hex_offset(self):
        program = assemble("lw r1, 0x10(r2)")
        assert program[0].imm == 16

    def test_malformed_memory_operand(self):
        with pytest.raises(AssemblerError, match="offset"):
            assemble("lw r1, r2")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError, match="expected register"):
            assemble("add r1, r2, 3")

    def test_register_out_of_range(self):
        with pytest.raises(AssemblerError, match="out of range"):
            assemble("add r1, r2, r99")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError, match="expected 3 operands"):
            assemble("add r1, r2")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus r1")


class TestMachineSpec:
    def test_small_machine_rejects_high_registers(self):
        spec = MachineSpec(num_registers=8)
        with pytest.raises(AssemblerError):
            assemble("add r1, r2, r9", spec=spec)

    def test_large_machine_accepts_high_registers(self):
        spec = MachineSpec(num_registers=64)
        program = assemble("add r63, r62, r61", spec=spec)
        assert program[0].rd == 63


class TestRoundTrip:
    def test_disassemble_reassemble(self):
        source = """
        start:
          li r1, 10
          li r2, 3
          div r3, r1, r2
          lw r4, 8(r3)
          sw r4, 0(r1)
          beq r1, r0, start
          j start
          halt
        """
        program = assemble(source)
        # disassembly prints targets numerically (@i), which reassemble as-is
        reassembled = assemble(program.disassemble())
        assert tuple(reassembled) == tuple(program)
