"""Integration: every processor model executes programs correctly.

Differential testing against the golden sequential interpreter: same
final registers, same memory, same committed dynamic trace — across
window sizes, cluster sizes, predictors, and memory systems.
"""

import pytest

from repro.api import build_processor
from repro.isa import assemble
from repro.frontend.branch_predictor import AlwaysNotTaken, AlwaysTaken, BimodalPredictor
from repro.isa.interpreter import MachineState, run_program
from repro.memory.interleaved_cache import InterleavedCache
from repro.network.fattree import FatTree, bandwidth_constant
from repro.ultrascalar import (
    CachedMemory,
    IdealMemory,
    ProcessorConfig,
    make_hybrid,
    make_ultrascalar1,
    make_ultrascalar2,
)
from repro.workloads import (
    daxpy_loop,
    dependency_chain,
    independent_ops,
    memory_stream,
    paper_sequence,
    pointer_chase,
    random_ilp,
    reduction_loop,
)

WORKLOADS = [
    paper_sequence(),
    dependency_chain(20),
    independent_ops(20),
    daxpy_loop(6),
    reduction_loop(8),
    pointer_chase(5),
    memory_stream(6),
    random_ilp(40, 0.3, seed=11),
    random_ilp(40, 0.8, seed=12),
]


def golden_run(workload):
    state = MachineState(workload.registers_for(), dict(workload.memory_image))
    return run_program(workload.program, state=state)


def build(workload, kind, window=16, cluster=4, predictor=None, memory=None):
    config = ProcessorConfig(window_size=window, fetch_width=4)
    mem = memory if memory is not None else IdealMemory()
    mem.load_image(workload.memory_image)
    kwargs = dict(
        config=config,
        memory=mem,
        initial_registers=workload.registers_for(),
    )
    if predictor is not None:
        kwargs["predictor"] = predictor
    if kind == "us1":
        return make_ultrascalar1(workload.program, **kwargs)
    if kind == "us2":
        return make_ultrascalar2(workload.program, **kwargs)
    return make_hybrid(workload.program, cluster, **kwargs)


def assert_matches_golden(workload, result):
    golden = golden_run(workload)
    assert result.halted == golden.halted
    assert result.registers == golden.state.registers, "final registers diverge"
    expected_memory = dict(workload.memory_image)
    expected_memory.update(golden.state.memory)
    for address, value in expected_memory.items():
        assert result.memory.get(address, 0) == value, f"memory diverges at {address:#x}"
    got = [(s.static_index, s.result, s.address, s.taken) for s in result.committed]
    want = [(s.static_index, s.result, s.address, s.taken) for s in golden.trace]
    assert got == want, "committed trace diverges"


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("kind", ["us1", "us2", "hyb"])
class TestGoldenEquivalence:
    def test_matches_golden(self, workload, kind):
        assert_matches_golden(workload, build(workload, kind).run())


@pytest.mark.parametrize("window", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("kind", ["us1", "us2"])
class TestWindowSizes:
    def test_any_window_is_correct(self, window, kind):
        workload = random_ilp(30, 0.5, seed=21)
        assert_matches_golden(workload, build(workload, kind, window=window).run())

    def test_loops_with_any_window(self, window, kind):
        workload = daxpy_loop(4)
        assert_matches_golden(workload, build(workload, kind, window=window).run())


@pytest.mark.parametrize("cluster", [1, 2, 4, 8, 16])
class TestClusterSizes:
    def test_hybrid_correct_at_any_cluster_size(self, cluster):
        workload = daxpy_loop(5)
        assert_matches_golden(
            workload, build(workload, "hyb", window=16, cluster=cluster).run()
        )


@pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
def test_program_without_halt_finishes(kind):
    """Running off the end stops once every instruction has committed;
    a partly filled last cluster must not keep the engine spinning."""
    program = assemble("li r1, 3\naddi r2, r1, 1\nadd r3, r2, r1")
    config = ProcessorConfig(window_size=8, max_cycles=500)
    result = build_processor(kind, config, cluster_size=4).run(program)
    assert result.registers == run_program(program).state.registers


class TestClusterValidation:
    def test_cluster_must_divide_window(self):
        workload = paper_sequence()
        with pytest.raises(ValueError):
            build(workload, "hyb", window=16, cluster=3)


@pytest.mark.parametrize(
    "predictor_factory",
    [AlwaysTaken, AlwaysNotTaken, lambda: BimodalPredictor(size=64)],
    ids=["taken", "not-taken", "bimodal"],
)
@pytest.mark.parametrize("kind", ["us1", "us2", "hyb"])
class TestRealPredictors:
    """Mispredictions and squashes must never corrupt architectural state."""

    def test_loopy_code_with_imperfect_prediction(self, predictor_factory, kind):
        workload = daxpy_loop(8)
        result = build(workload, kind, predictor=predictor_factory()).run()
        assert_matches_golden(workload, result)

    def test_branchy_code_with_imperfect_prediction(self, predictor_factory, kind):
        workload = reduction_loop(10)
        result = build(workload, kind, predictor=predictor_factory()).run()
        assert_matches_golden(workload, result)


class TestMispredictionAccounting:
    def test_always_taken_on_loop_exit_mispredicts(self):
        workload = reduction_loop(5)
        result = build(workload, "us1", predictor=AlwaysNotTaken()).run()
        # the backward branch is taken 4 times: 4 mispredictions at least
        assert result.mispredictions >= 4

    def test_squashed_work_is_counted(self):
        workload = reduction_loop(5)
        result = build(workload, "us1", predictor=AlwaysNotTaken()).run()
        assert result.squashed > 0

    def test_perfect_prediction_no_squashes_straightline(self):
        workload = random_ilp(30, 0.5, seed=31)
        result = build(workload, "us1").run()
        assert result.mispredictions == 0
        assert result.squashed == 0


class TestCachedMemory:
    def test_correct_through_interleaved_cache(self):
        workload = daxpy_loop(6)
        cache = InterleavedCache(banks=2, lines_per_bank=4, words_per_line=2)
        result = build(workload, "us1", memory=CachedMemory(cache)).run()
        assert_matches_golden(workload, result)

    def test_correct_through_fat_tree_throttling(self):
        workload = memory_stream(8)
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        cache = InterleavedCache(banks=2, lines_per_bank=4, fat_tree=tree)
        result = build(workload, "us2", memory=CachedMemory(cache)).run()
        assert_matches_golden(workload, result)

    def test_bandwidth_throttling_costs_cycles(self):
        workload = memory_stream(12)
        fast = build(workload, "us1").run()
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        cache = InterleavedCache(banks=1, lines_per_bank=4, fat_tree=tree)
        slow = build(workload, "us1", memory=CachedMemory(cache)).run()
        assert slow.cycles > fast.cycles


class TestThroughputOrdering:
    """The paper's qualitative claims about the three designs."""

    def test_us2_never_beats_us1(self):
        # "stations idle waiting for everyone to finish before refilling"
        for workload in (dependency_chain(30), random_ilp(60, 0.5, seed=41)):
            us1 = build(workload, "us1").run()
            us2 = build(workload, "us2").run()
            assert us2.cycles >= us1.cycles

    def test_hybrid_between_us1_and_us2(self):
        workload = random_ilp(60, 0.5, seed=42)
        us1 = build(workload, "us1").run()
        us2 = build(workload, "us2").run()
        hybrid = build(workload, "hyb", cluster=4).run()
        assert us1.cycles <= hybrid.cycles <= us2.cycles

    def test_window_one_is_sequential(self):
        workload = dependency_chain(10)
        result = build(workload, "us1", window=1).run()
        # one station: fetch, execute, commit one instruction at a time
        assert result.ipc <= 1.0
