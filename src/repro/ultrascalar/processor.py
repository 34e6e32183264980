"""Shared processor configuration, results, and the three paper configurations.

The paper: "The three processors all implement identical instruction
sets, with identical scheduling policies.  The only differences between
the processors are in their VLSI complexities."  Behaviourally the one
place they differ is station refill: per-station (Ultrascalar I),
whole-batch (Ultrascalar II, no wrap-around), or per-cluster (hybrid).
The factories at the bottom build exactly those three configurations
of the one ring engine, :class:`repro.ultrascalar.ring.RingProcessor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.interpreter import StepOutcome
from repro.isa.latency import LatencyModel
from repro.isa.program import Program
from repro.frontend.branch_predictor import BranchPredictor, PerfectPredictor
from repro.ultrascalar.memsys import IdealMemory, MemorySystem


@dataclass
class ProcessorConfig:
    """Parameters common to every processor model.

    Attributes:
        window_size: ``n``, the number of execution stations.
        fetch_width: instructions fetched per cycle (the paper assumes
            fetch width scales with issue width).
        latencies: functional-unit latencies (defaults match Figure 3).
        num_alus: shared-ALU pool size (Ultrascalar Memo 2 scheduler);
            ``None`` replicates an ALU per station, as the paper's
            layouts do.  Separates window size from issue width.
        store_forwarding: enable memory renaming — loads whose nearest
            preceding store (in the window) matches their address take
            the value directly, skipping the memory system (the paper's
            Section 7 bandwidth-reduction suggestion).
        self_timed: distance-dependent register forwarding — a result
            reaches a consumer after a delay proportional to the H-tree
            distance between the stations, instead of one global clock
            (the paper's Section 7 self-timed discussion).  All three
            designs apply the same rule, one cycle per H-tree level
            between the station positions: the Ultrascalar II uses it
            across its whole window, as the hybrid already does inside
            its Ultrascalar II clusters.
        max_cycles: watchdog against livelock in broken configurations.
    """

    window_size: int = 8
    fetch_width: int = 4
    latencies: LatencyModel = field(default_factory=LatencyModel)
    num_alus: int | None = None
    store_forwarding: bool = False
    self_timed: bool = False
    max_cycles: int = 1_000_000

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window size must be positive")
        if self.fetch_width < 1:
            raise ValueError("fetch width must be positive")
        if self.num_alus is not None and self.num_alus < 1:
            raise ValueError("num_alus must be positive when set")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")


@dataclass(frozen=True)
class TimingRecord:
    """Per-dynamic-instruction timing, the raw material of Figure 3."""

    seq: int
    static_index: int
    instruction: Instruction
    fetch_cycle: int
    issue_cycle: int
    complete_cycle: int
    commit_cycle: int

    @property
    def execute_span(self) -> tuple[int, int]:
        """(first busy cycle, last busy cycle + 1) — a Figure 3 bar."""
        return (self.issue_cycle, self.complete_cycle + 1)


@dataclass
class ProcessorResult:
    """What a processor run produces."""

    cycles: int
    committed: list[StepOutcome]
    registers: list[int]
    memory: dict[int, int]
    timings: list[TimingRecord]
    halted: bool
    #: dynamic instructions squashed on mispredicted paths
    squashed: int = 0
    #: mispredicted branches detected
    mispredictions: int = 0
    #: loads satisfied by store-forwarding (memory renaming) instead of
    #: the memory system
    forwarded_loads: int = 0
    #: aggregated telemetry counters (empty under the default NullTracer;
    #: see docs/observability.md for the counter vocabulary)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def instructions_committed(self) -> int:
        """Committed dynamic instruction count."""
        return len(self.committed)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions_committed / self.cycles if self.cycles else 0.0

    def timing_diagram(self, width: int = 60) -> str:
        """Render the committed instructions as a Figure 3 style bar chart."""
        if not self.timings:
            return "(no instructions)"
        horizon = max(t.complete_cycle for t in self.timings) + 1
        scale = max(1, -(-horizon // width))  # cycles per character
        lines = []
        for t in self.timings:
            start, end = t.execute_span
            bar = (
                " " * (start // scale)
                + "#" * max(1, (end - start + scale - 1) // scale)
            )
            lines.append(f"{str(t.instruction):24s} |{bar}")
        lines.append(f"{'':24s} +{'-' * (horizon // scale + 1)} ({horizon} cycles)")
        return "\n".join(lines)


def _default_predictor(program: Program) -> BranchPredictor:
    """Perfect prediction by default: isolates scheduling behaviour."""
    from repro.isa.interpreter import run_program

    golden = run_program(program)
    return PerfectPredictor.from_trace(golden.trace)


def make_ultrascalar1(
    program: Program,
    config: ProcessorConfig | None = None,
    predictor: BranchPredictor | None = None,
    memory: MemorySystem | None = None,
    initial_registers: list[int] | None = None,
    tracer=None,
    cycle_hook=None,
):
    """Build an Ultrascalar I: wrap-around ring, per-station refill."""
    from repro.ultrascalar.ring import RingProcessor

    return RingProcessor(
        program=program,
        config=config or ProcessorConfig(),
        predictor=predictor if predictor is not None else _default_predictor(program),
        memory=memory if memory is not None else IdealMemory(),
        cluster_size=1,
        initial_registers=initial_registers,
        tracer=tracer,
        cycle_hook=cycle_hook,
    )


def make_hybrid(
    program: Program,
    cluster_size: int,
    config: ProcessorConfig | None = None,
    predictor: BranchPredictor | None = None,
    memory: MemorySystem | None = None,
    initial_registers: list[int] | None = None,
    tracer=None,
    cycle_hook=None,
):
    """Build a hybrid Ultrascalar: Ultrascalar II clusters on an
    Ultrascalar I ring; stations refill a cluster at a time."""
    from repro.ultrascalar.ring import RingProcessor

    return RingProcessor(
        program=program,
        config=config or ProcessorConfig(),
        predictor=predictor if predictor is not None else _default_predictor(program),
        memory=memory if memory is not None else IdealMemory(),
        cluster_size=cluster_size,
        initial_registers=initial_registers,
        tracer=tracer,
        cycle_hook=cycle_hook,
    )


def make_ultrascalar2(
    program: Program,
    config: ProcessorConfig | None = None,
    predictor: BranchPredictor | None = None,
    memory: MemorySystem | None = None,
    initial_registers: list[int] | None = None,
    tracer=None,
    cycle_hook=None,
):
    """Build an Ultrascalar II: the ring with one cluster spanning the
    window, so the station batch refills only when every station in it
    has finished."""
    from repro.ultrascalar.us2 import BatchProcessor

    return BatchProcessor(
        program=program,
        config=config or ProcessorConfig(),
        predictor=predictor if predictor is not None else _default_predictor(program),
        memory=memory if memory is not None else IdealMemory(),
        initial_registers=initial_registers,
        tracer=tracer,
        cycle_hook=cycle_hook,
    )
