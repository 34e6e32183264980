"""The registry of hot-path benchmarks.

Each :class:`Benchmark` names one hot path and knows how to build a
timed thunk for it.  Setup (program generation, engine-independent
state) happens in :meth:`Benchmark.make`, *outside* the timed region;
the returned thunk performs exactly the work the benchmark is named
for.  Benchmarks are deterministic in structure: fixed seeds, fixed
sizes, so two runs of the same tree produce artifacts that differ only
in their timings.

Groups (mirroring the subsystems the ROADMAP cares about):

* ``engine`` — full-program throughput of the three paper designs
  (us1 / us2 / hybrid), driven through :mod:`repro.api` exactly the
  way users drive them: straight-line code at windows 8 and 32, and a
  branchy and a memory kernel at the paper's windows 128 and 512, and
  experiment E15's whole IPC-vs-window sweep;
* ``vector`` — the NumPy-vectorized large-*n* ring engine;
* ``cspp`` — the behavioural cyclic-segmented-scan kernel the
  datapaths are built from;
* ``network`` — the Ultrascalar II argument-routing reference, the
  gate-level netlists of its register networks built and settled as
  experiment E9 does, and E9's whole sweep;
* ``isa`` — assemble → encode → decode round-trip throughput;
* ``runner`` — the result cache's store/hit path;
* ``verify`` — fuzz program generation (the verify CLI's hot loop).

The ``--quick`` subset keeps one representative per group (always
covering all three processor designs) sized for CI smoke runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

#: canonical registry: name -> Benchmark, in registration order
REGISTRY: dict[str, "Benchmark"] = {}


@dataclass(frozen=True)
class Benchmark:
    """One registered hot-path benchmark."""

    name: str
    group: str
    title: str
    #: builds the timed thunk; runs once per benchmark, untimed
    make: Callable[[], Callable[[], Any]]
    #: part of the ``--quick`` CI subset
    quick: bool = False
    #: structural parameters (design, window, size, ...) for the artifact
    metadata: dict[str, Any] = field(default_factory=dict)


def register(benchmark: Benchmark) -> Benchmark:
    """Add *benchmark* to the registry; duplicate names are a bug."""
    if benchmark.name in REGISTRY:
        raise ValueError(f"duplicate benchmark name {benchmark.name!r}")
    REGISTRY[benchmark.name] = benchmark
    return benchmark


def select(
    *, quick: bool = False, substrings: tuple[str, ...] = ()
) -> list[Benchmark]:
    """The benchmarks a run should execute, in registration order.

    *quick* restricts to the CI subset; *substrings* (when non-empty)
    keeps benchmarks whose name contains any of them.
    """
    chosen = [b for b in REGISTRY.values() if b.quick or not quick]
    if substrings:
        chosen = [b for b in chosen if any(s in b.name for s in substrings)]
    return chosen


# ----------------------------------------------------------------------
# engine throughput (us1 / us2 / hybrid via repro.api)


def _engine_thunk(design: str, window: int, count: int) -> Callable[[], Any]:
    from repro.api import ProcessorConfig, build_processor
    from repro.workloads.generators import random_ilp

    workload = random_ilp(count, 0.5, seed=1999)
    processor = build_processor(design, ProcessorConfig(window_size=window))
    program = workload.program
    registers = workload.registers_for()

    def thunk() -> None:
        processor.run(program, initial_registers=list(registers))

    return thunk


def _register_engines() -> None:
    for design in ("us1", "us2", "hybrid"):
        for window, count, quick in ((8, 48, True), (32, 192, False)):
            register(
                Benchmark(
                    name=f"engine.{design}.w{window}",
                    group="engine",
                    title=f"{design} end-to-end run, window {window}",
                    make=(
                        lambda design=design, window=window, count=count:
                        _engine_thunk(design, window, count)
                    ),
                    quick=quick,
                    metadata={
                        "design": design,
                        "window_size": window,
                        "instructions": count,
                        "seed": 1999,
                    },
                )
            )


#: wide-window entries: a branchy and a memory kernel at the paper's sizes
WIDE_SORT_VALUES = 12
WIDE_DAXPY_ITERATIONS = 32
WIDE_CLUSTER = 16
WIDE_FETCH = 16


def _wide_engine_thunk(design: str, window: int) -> Callable[[], Any]:
    from repro.api import CachedMemory, IdealMemory, ProcessorConfig, build_processor
    from repro.frontend.branch_predictor import BimodalPredictor
    from repro.memory.interleaved_cache import InterleavedCache
    from repro.workloads.generators import daxpy_loop
    from repro.workloads.kernels import bubble_sort

    processor = build_processor(
        design,
        ProcessorConfig(window_size=window, fetch_width=WIDE_FETCH),
        cluster_size=WIDE_CLUSTER,
    )
    sort = bubble_sort(random.Random(1999).sample(range(1000), WIDE_SORT_VALUES))
    daxpy = daxpy_loop(WIDE_DAXPY_ITERATIONS)
    # (workload, memory factory); predictors and memories hold state,
    # so each run gets fresh ones
    runs = (
        (sort, IdealMemory),
        (daxpy, lambda: CachedMemory(InterleavedCache(banks=8))),
    )

    def thunk() -> None:
        for workload, make_memory in runs:
            memory = make_memory()
            memory.load_image(dict(workload.memory_image))
            processor.run(
                workload.program,
                memory=memory,
                predictor=BimodalPredictor(),
                initial_registers=workload.registers_for(),
            )

    return thunk


def _register_wide_engines() -> None:
    for design in ("us1", "us2", "hybrid"):
        for window in (128, 512):
            register(
                Benchmark(
                    name=f"engine.{design}.w{window}",
                    group="engine",
                    title=(
                        f"{design} at window {window}: bubble sort (bimodal) "
                        "and daxpy (cached memory)"
                    ),
                    make=lambda design=design, window=window: _wide_engine_thunk(design, window),
                    metadata={
                        "design": design,
                        "window_size": window,
                        "cluster_size": WIDE_CLUSTER if design == "hybrid" else None,
                        "fetch_width": WIDE_FETCH,
                        "programs": [
                            f"bubble_sort({WIDE_SORT_VALUES}) bimodal ideal",
                            f"daxpy_loop({WIDE_DAXPY_ITERATIONS}) bimodal cached",
                        ],
                        "seed": 1999,
                    },
                )
            )


def _report_thunk(module_name: str) -> Callable[[], Any]:
    import importlib

    module = importlib.import_module(module_name)
    point = module.SWEEP_POINTS[0]

    def thunk() -> None:
        module.report(**point)

    return thunk


def _register_ilp() -> None:
    register(
        Benchmark(
            name="experiments.ilp",
            group="engine",
            title="E15 IPC-vs-window sweep (us1, windows 8 to 2048)",
            make=lambda: _report_thunk("repro.experiments.ilp_limits"),
            metadata={"design": "us1", "sweep_point": 0},
        )
    )


# ----------------------------------------------------------------------
# vector engine


def _vector_thunk(window: int, count: int) -> Callable[[], Any]:
    from repro.ultrascalar.vector_engine import VectorRingEngine
    from repro.workloads.generators import random_ilp

    workload = random_ilp(count, 0.5, seed=1999)
    program = workload.program
    registers = workload.registers_for()

    def thunk() -> None:
        VectorRingEngine(
            program, window_size=window, fetch_width=4,
            initial_registers=list(registers),
        ).run()

    return thunk


def _register_vector() -> None:
    for window, count, quick in ((64, 256, True), (512, 2048, False)):
        register(
            Benchmark(
                name=f"vector.ring.n{window}",
                group="vector",
                title=f"vector ring engine, {window} stations",
                make=lambda window=window, count=count: _vector_thunk(window, count),
                quick=quick,
                metadata={
                    "design": "vector",
                    "window_size": window,
                    "instructions": count,
                    "seed": 1999,
                },
            )
        )


# ----------------------------------------------------------------------
# CSPP scan kernel


def _cspp_thunk(n: int) -> Callable[[], Any]:
    from repro.circuits.cspp import cyclic_segmented_copy

    xs = list(range(n))
    segments = [i % 8 == 0 for i in range(n)]

    def thunk() -> None:
        cyclic_segmented_copy(xs, segments)

    return thunk


def _register_cspp() -> None:
    for n, quick in ((512, True), (4096, False)):
        register(
            Benchmark(
                name=f"cspp.scan.n{n}",
                group="cspp",
                title=f"cyclic segmented scan over {n} positions",
                make=lambda n=n: _cspp_thunk(n),
                quick=quick,
                metadata={"positions": n, "segment_stride": 8},
            )
        )


# ----------------------------------------------------------------------
# mesh-of-trees argument routing (the US-II network reference)


def _route_thunk(n: int, num_registers: int) -> Callable[[], Any]:
    from repro.circuits.grid import RegisterBinding, route_arguments

    initial = [(r * 3 + 1, True) for r in range(num_registers)]
    writes = [
        RegisterBinding(reg=i % num_registers, value=i, ready=i % 3 != 0)
        if i % 4 != 0
        else None
        for i in range(n)
    ]
    reads = [
        [(i + 1) % num_registers, (i * 7 + 3) % num_registers] for i in range(n)
    ]

    def thunk() -> None:
        route_arguments(num_registers, initial, writes, reads)

    return thunk


def _register_network() -> None:
    for n, quick in ((128, True), (1024, False)):
        register(
            Benchmark(
                name=f"network.route.n{n}",
                group="network",
                title=f"US-II argument routing, {n} stations",
                make=lambda n=n: _route_thunk(n, 32),
                quick=quick,
                metadata={"stations": n, "num_registers": 32},
            )
        )


def _settle_thunk(network: str, n: int) -> Callable[[], Any]:
    from repro.circuits.grid import GridNetwork, TreeGridNetwork

    build = {"grid": GridNetwork, "treegrid": TreeGridNetwork}[network]
    # the stimulus experiment E9 (repro.experiments.gate_depth) settles
    initial = [(1, True)] * n
    writes = [None] * n
    reads = [[0, 0]] * n

    def thunk() -> None:
        build(n, n).settle_time(initial, writes, reads)

    return thunk


def _register_netlists() -> None:
    for network in ("grid", "treegrid"):
        for n in (16, 32):
            register(
                Benchmark(
                    name=f"circuits.netlist.settle.{network}.n{n}",
                    group="network",
                    title=f"build and settle the US-II {network} netlist, n = L = {n}",
                    make=lambda network=network, n=n: _settle_thunk(network, n),
                    metadata={"network": network, "stations": n, "num_registers": n},
                )
            )


def _register_gates() -> None:
    register(
        Benchmark(
            name="experiments.gates",
            group="network",
            title="E9 settle-time sweep: build and settle every netlist, n = 4 to 32",
            make=lambda: _report_thunk("repro.experiments.gate_depth"),
            metadata={"sweep_point": 0},
        )
    )


# ----------------------------------------------------------------------
# assembler / encoding round-trip


def _isa_thunk(size: int) -> Callable[[], Any]:
    from repro.isa.assembler import assemble
    from repro.isa.encoding import decode_instruction, encode_instruction
    from repro.workloads.kernels import matmul

    source = matmul(size).program.disassemble()

    def thunk() -> None:
        program = assemble(source)
        for inst in program:
            decode_instruction(encode_instruction(inst))

    return thunk


def _register_isa() -> None:
    register(
        Benchmark(
            name="isa.roundtrip.matmul",
            group="isa",
            title="assemble + encode/decode the matmul kernel",
            make=lambda: _isa_thunk(4),
            quick=True,
            metadata={"kernel": "matmul", "size": 4},
        )
    )


# ----------------------------------------------------------------------
# runner result-cache store/hit path


def _cache_thunk(entries: int) -> Callable[[], Any]:
    import shutil
    import tempfile

    from repro.runner.cache import ResultCache

    def thunk() -> None:
        root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cache = ResultCache(root)
            for i in range(entries):
                kwargs = {"size": i, "mode": "bench"}
                cache.put("bench", kwargs, f"report {i}\n" * 8, 0.01)
            for i in range(entries):
                kwargs = {"size": i, "mode": "bench"}
                entry = cache.get("bench", kwargs)
                assert entry is not None
            assert cache.get("bench", {"size": -1}) is None  # miss path
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return thunk


def _register_runner() -> None:
    register(
        Benchmark(
            name="runner.cache.roundtrip",
            group="runner",
            title="result cache store + hit + miss path",
            make=lambda: _cache_thunk(32),
            quick=True,
            metadata={"entries": 32},
        )
    )


# ----------------------------------------------------------------------
# verify-fuzz program generation


def _fuzz_thunk(cases: int, size: int) -> Callable[[], Any]:
    from repro.verify.fuzz import generate_case

    def thunk() -> None:
        for seed in range(cases):
            generate_case(seed, size)

    return thunk


def _register_verify() -> None:
    register(
        Benchmark(
            name="verify.fuzz.generate",
            group="verify",
            title="fuzz program generation (16 cases of 48)",
            make=lambda: _fuzz_thunk(16, 48),
            quick=True,
            metadata={"cases": 16, "size": 48},
        )
    )


_register_engines()
_register_wide_engines()
_register_ilp()
_register_vector()
_register_cspp()
_register_network()
_register_netlists()
_register_gates()
_register_isa()
_register_runner()
_register_verify()
