"""Integration: the vectorized engine is bit-equivalent to RingProcessor."""

import pytest

from repro.isa import Instruction, Opcode, Program, assemble
from repro.ultrascalar import IdealMemory, ProcessorConfig, make_ultrascalar1
from repro.ultrascalar.vector_engine import VectorRingEngine
from repro.workloads import dependency_chain, independent_ops, random_ilp


def compare(workload, window, fetch_width):
    config = ProcessorConfig(window_size=window, fetch_width=fetch_width)
    ring = make_ultrascalar1(
        workload.program, config, memory=IdealMemory(), initial_registers=workload.registers_for()
    ).run()
    vector = VectorRingEngine(
        workload.program, window, fetch_width, initial_registers=workload.registers_for()
    ).run()
    ring_issues = [t.issue_cycle for t in sorted(ring.timings, key=lambda t: t.seq)]
    return ring, vector, ring_issues


class TestBitEquivalence:
    @pytest.mark.parametrize(
        "workload,window,width",
        [
            (dependency_chain(30), 8, 4),
            (independent_ops(40), 16, 8),
            (random_ilp(60, 0.2, seed=71), 16, 4),
            (random_ilp(60, 0.5, seed=72), 16, 4),
            (random_ilp(60, 0.9, seed=73), 8, 2),
            (random_ilp(100, 0.6, seed=74), 32, 16),
            # the window sizes E15 runs the ring at
            (random_ilp(400, 0.2, seed=75), 512, 64),
            (random_ilp(400, 0.8, seed=76), 512, 64),
            (random_ilp(400, 0.2, seed=75), 2048, 64),
            (random_ilp(400, 0.8, seed=76), 2048, 64),
        ],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_cycles_registers_and_issue_times_match(self, workload, window, width):
        ring, vector, ring_issues = compare(workload, window, width)
        assert vector.cycles == ring.cycles
        assert vector.registers == ring.registers
        assert vector.issue_cycles == ring_issues

    def test_window_one(self):
        ring, vector, ring_issues = compare(dependency_chain(10), 1, 1)
        assert vector.cycles == ring.cycles
        assert vector.issue_cycles == ring_issues

    def test_division_edge_cases_match(self):
        source = """
            li r1, -7
            li r2, 0
            div r3, r1, r2
            li r4, 2
            div r5, r1, r4
            halt
        """
        program = assemble(source)
        config = ProcessorConfig(window_size=8, fetch_width=8)
        ring = make_ultrascalar1(program, config, memory=IdealMemory()).run()
        vector = VectorRingEngine(program, 8, 8).run()
        assert vector.registers == ring.registers


class TestScope:
    def test_rejects_memory_operations(self):
        program = Program.from_instructions(
            [Instruction(Opcode.LW, rd=1, rs1=0, imm=0), Instruction(Opcode.HALT)]
        )
        with pytest.raises(ValueError, match="lw"):
            VectorRingEngine(program, 8, 4)

    def test_rejects_branches(self):
        program = Program.from_instructions(
            [Instruction(Opcode.BEQ, rs1=0, rs2=0, target=0), Instruction(Opcode.HALT)]
        )
        with pytest.raises(ValueError, match="beq"):
            VectorRingEngine(program, 8, 4)

    def test_parameter_validation(self):
        program = Program.from_instructions([Instruction(Opcode.HALT)])
        with pytest.raises(ValueError):
            VectorRingEngine(program, 0, 4)
        with pytest.raises(ValueError):
            VectorRingEngine(program, 8, 4, initial_registers=[0])


class TestLargeN:
    """The repro-band concern: behavioural model too slow for large n.

    The vector engine makes n = 512 with thousands of instructions cheap.
    """

    def test_large_window_runs_quickly_and_correctly(self):
        workload = random_ilp(2000, 0.5, seed=75)
        vector = VectorRingEngine(
            workload.program, 512, 64, initial_registers=workload.registers_for()
        ).run()
        from repro.isa.interpreter import MachineState, run_program

        golden = run_program(
            workload.program, state=MachineState(workload.registers_for())
        )
        assert vector.registers == golden.state.registers

    def test_ipc_grows_with_window_until_saturation(self):
        workload = random_ilp(1500, 0.3, seed=76)
        ipcs = []
        for window in (8, 32, 128, 512):
            result = VectorRingEngine(
                workload.program, window, window, initial_registers=workload.registers_for()
            ).run()
            ipcs.append(result.ipc)
        assert ipcs == sorted(ipcs)
        assert ipcs[-1] > ipcs[0]
