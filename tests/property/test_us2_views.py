"""Property: the Ultrascalar II's reference register views equal the grid
network's behavioural router — closing the loop between the Ultrascalar
II processor model (the ring engine with one cluster spanning the
window, whose rename links the invariant checker holds to these views)
and the Figure 7/8 circuits."""

from hypothesis import given, settings, strategies as st

from repro.circuits.grid import RegisterBinding, route_arguments
from repro.frontend.branch_predictor import AlwaysNotTaken
from repro.frontend.fetch import FetchUnit
from repro.isa import Instruction, Opcode, Program
from repro.ultrascalar import IdealMemory, ProcessorConfig
from repro.ultrascalar.us2 import BatchProcessor
from repro.verify.invariants import reference_views

L = 6
REGS = st.integers(0, L - 1)


@st.composite
def batch_programs(draw):
    count = draw(st.integers(1, 8))
    instructions = [
        Instruction(
            draw(st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.SUB])),
            rd=draw(REGS),
            rs1=draw(REGS),
            rs2=draw(REGS),
        )
        for _ in range(count)
    ]
    instructions.append(Instruction(Opcode.HALT))
    from repro.isa.registers import MachineSpec

    return Program.from_instructions(instructions, MachineSpec(num_registers=L))


@given(batch_programs(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_batch_views_equal_grid_router(program, cycles):
    """At an arbitrary mid-execution cycle, the reference view walk and
    the circuits' route_arguments agree on every argument."""
    config = ProcessorConfig(window_size=8, fetch_width=8)
    processor = BatchProcessor(
        program,
        config,
        predictor=AlwaysNotTaken(),
        memory=IdealMemory(),
        fetch_unit=FetchUnit(program, AlwaysNotTaken(), width=8),
    )
    for _ in range(cycles):
        if processor.halted:
            break
        processor.step()
    window = processor.window
    if not window:
        return

    views = reference_views(processor)

    initial = [(value, True) for value in processor.committed_regs]
    writes = []
    reads = []
    for station in window:
        reg = station.writes_register
        if reg is None:
            writes.append(None)
        else:
            writes.append(
                RegisterBinding(
                    reg,
                    station.result if station.result is not None else 0,
                    station.done and station.result is not None,
                )
            )
        inst = station.fetched.instruction
        reads.append([inst.rs1 if inst.rs1 is not None else 0,
                      inst.rs2 if inst.rs2 is not None else 0])

    routed = route_arguments(L, initial, writes, reads)
    for index, station in enumerate(window):
        inst = station.fetched.instruction
        for port, reg in enumerate((inst.rs1, inst.rs2)):
            if reg is None:
                continue
            grid_value, grid_ready = routed.arguments[index][port]
            assert views[index].ready[reg] == grid_ready
            if grid_ready:
                assert views[index].values[reg] == grid_value
