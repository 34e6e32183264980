"""E11 — ablations of the design choices DESIGN.md §5 calls out.

* CSPP tree radix (binary vs 4-ary): constant factor, not asymptotics.
* Ultrascalar II mixed layout strategy: same asymptotics as linear,
  smaller constants than the full tree blow-up.
* Hybrid cluster refill (whole-cluster) vs per-station refill:
  throughput cost of the clustered deallocation.
* Shared-ALU pool size: window size decoupled from issue width
  (Ultrascalar Memo 2).
* Memory renaming (store-forwarding): bandwidth reduction (Section 7).
* Distributed cluster cache: shared-memory bandwidth (Section 7).
* Self-timed operation: locality sensitivity (Section 7).
"""

from repro.analysis.fitting import fit_exponent
from repro.circuits.cspp import build_copy_cspp
from repro.memory import ClusteredMemory
from repro.ultrascalar import IdealMemory, ProcessorConfig, make_hybrid, make_ultrascalar1
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.workloads import (
    independent_ops,
    random_ilp,
    repeated_reduction,
    spaced_chain,
    store_load_pairs,
)


def _run(workload, cluster=None, load_latency=1, **config_kwargs):
    config = ProcessorConfig(window_size=16, fetch_width=8, **config_kwargs)
    memory = IdealMemory(load_latency=load_latency)
    memory.load_image(workload.memory_image)
    registers = workload.registers_for()
    if cluster is not None:
        processor = make_hybrid(
            workload.program, cluster, config, memory=memory, initial_registers=registers
        )
    else:
        processor = make_ultrascalar1(
            workload.program, config, memory=memory, initial_registers=registers
        )
    return processor.run()


def test_cspp_radix():
    """Radix 4 roughly halves the level count; growth stays logarithmic."""
    sizes = [16, 64, 256]
    binary, quad = [], []
    for n in sizes:
        stimulus = [1] * n
        segments = [True] + [False] * (n - 1)
        binary.append(build_copy_cspp(n, 1, radix=2).settle_time(stimulus, segments))
        quad.append(build_copy_cspp(n, 1, radix=4).settle_time(stimulus, segments))
    assert fit_exponent(sizes, binary) < 0.6  # both logarithmic
    assert fit_exponent(sizes, quad) < 0.6
    # finding: the 4-ary tree matches the H-tree's 4-way floorplan but,
    # with serial combining inside each node, costs ~1.5x the binary
    # tree's gate delay — radix is a constants trade-off, not asymptotic
    for b, q in zip(binary, quad):
        assert b <= q <= 2 * b


def test_us2_layout_variants():
    """linear < mixed < tree side length; mixed keeps linear's growth."""
    for n in (256, 1024, 4096):
        linear, mixed, tree = (
            Ultrascalar2Layout(n, 32, variant=variant)
            for variant in ("linear", "mixed", "tree")
        )
        # the paper's mixed strategy: area of the linear layout...
        assert mixed.side_length() == linear.side_length()
        assert tree.side_length() > linear.side_length()
        # ...with strictly better gate delay ("greatly improved constant
        # factors"), though still linear asymptotically
        assert tree.gate_delay() < mixed.gate_delay() < linear.gate_delay()


def test_cluster_refill_policy():
    """Whole-cluster refill (hybrid) costs throughput vs per-station."""
    workload = random_ilp(120, 0.4, seed=301)
    cycles = [_run(workload, cluster=cluster).cycles for cluster in (1, 2, 4, 8, 16)]
    assert cycles[-1] >= cycles[0]  # coarser refill never faster


def test_shared_alu_pool():
    """IPC tracks the ALU pool until the workload's ILP saturates it."""
    workload = independent_ops(60)
    pools = (1, 2, 4, 8, 16)
    pooled = [_run(workload, num_alus=k).ipc for k in pools]
    per_station = _run(workload).ipc
    assert pooled + [per_station] == sorted(pooled + [per_station])
    for k, ipc in zip(pools, pooled):
        assert ipc <= k + 0.1  # the pool is a hard issue ceiling
    assert pooled[-1] == per_station  # pool = window == per-station ALUs


def test_store_forwarding_bandwidth():
    """Memory renaming removes load traffic and hides memory latency."""
    workload = store_load_pairs(6)
    for load_latency in (1, 4, 8):
        plain = _run(workload, load_latency=load_latency)
        renamed = _run(workload, load_latency=load_latency, store_forwarding=True)
        assert renamed.forwarded_loads > 0
        if load_latency >= 4:
            assert renamed.cycles < plain.cycles  # forwarding hides memory latency


def test_distributed_cluster_cache():
    """Section 7: 'a cache distributed among the clusters' slashes the
    shared-memory bandwidth demand on workloads with reuse."""
    savings = []
    for passes in (1, 2, 4, 8):
        workload = repeated_reduction(8, passes)
        memory = ClusteredMemory(cluster_size=16, shared_latency=6)
        memory.load_image(workload.memory_image)
        config = ProcessorConfig(window_size=16, fetch_width=8)
        make_ultrascalar1(
            workload.program, config, memory=memory,
            initial_registers=workload.registers_for(),
        ).run()
        savings.append(memory.stats.bandwidth_saved)
    assert savings == sorted(savings)
    assert savings[-1] > 0.5  # most traffic stays local once the data is cached


def test_self_timed_locality():
    """Self-timed: near-dependence cheap, far-dependence expensive."""
    per_link = []
    for distance in (1, 4, 8):
        workload = spaced_chain(48, distance)
        per_link.append(_run(workload, self_timed=True).cycles / (48 // distance))
    # near dependence is the cheapest per hop (distances 4 and 8 land in
    # the same H-tree level, so only near-vs-far is ordered)
    assert all(per_link[0] < later for later in per_link[1:])
