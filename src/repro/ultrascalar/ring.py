"""The Ultrascalar ring processor: one engine for all three designs.

A wrap-around ring of ``n`` execution stations.  Register values flow
from each writer to younger readers through one CSPP circuit per
logical register; the oldest station inserts the committed register
file.  Three 1-bit CSPP conditions sequence instructions: oldest
tracking / deallocation, load-after-store ordering, and
store-after-everything ordering with branch commitment.

The model is cycle-accurate with respect to the paper's timing rules:

* arguments become visible to a consumer one cycle after the producer
  finishes ("newly computed results propagate through the datapath" at
  the end of each clock cycle, and "forward new results in one clock
  cycle");
* a mispredicted branch squashes all younger stations the cycle it
  resolves, and fetch restarts on the following cycle ("Nothing needs
  to be done to recover from misprediction except to fetch new
  instructions from the correct program path");
* a station is deallocated and refilled once it and every older
  station have finished.

Stations are deallocated ``cluster_size = C`` at a time.  That refill
granularity is the only behavioural difference between the paper's
three designs:

* ``C = 1`` is the Ultrascalar I: each station refills on its own;
* ``1 < C < n`` is the hybrid: clusters act as "super execution
  stations" and refill as a unit;
* ``C = n`` is the Ultrascalar II: one cluster spans the window, so the
  batch refills only when every station in it has committed ("stations
  idle waiting for everyone to finish before refilling").  The oldest
  station is then always position 0 and the ring never wraps, which is
  the non-wrap-around grid datapath.

The scheduling policy is otherwise identical, as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.cspp import cyclic_segmented_and
from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.fetch import FetchUnit
from repro.isa.interpreter import StepOutcome, alu_result, branch_taken
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program
from repro.telemetry.session import resolve_tracer
from repro.telemetry.tracer import Tracer
from repro.ultrascalar.memsys import MemorySystem
from repro.ultrascalar.processor import ProcessorConfig, ProcessorResult, TimingRecord
from repro.ultrascalar.scheduler import prioritized_grants
from repro.ultrascalar.station import Station, StationState
from repro.util.bitops import to_unsigned, tree_level_distance


@dataclass
class _RegView:
    """One station's incoming register view: value and ready per register.

    ``writers[r]`` is the producing station, or ``None`` when the value
    comes from the committed register file — used by the self-timed mode
    to charge distance-dependent forwarding latency.
    """

    values: list[int]
    ready: list[bool]
    writers: list["Station | None"] | None = None


class RingProcessor:
    """See module docstring."""

    def __init__(
        self,
        program: Program,
        config: ProcessorConfig,
        predictor: BranchPredictor,
        memory: MemorySystem,
        cluster_size: int = 1,
        initial_registers: list[int] | None = None,
        fetch_unit: FetchUnit | None = None,
        tracer: Tracer | None = None,
        cycle_hook=None,
    ):
        if cluster_size < 1 or config.window_size % cluster_size:
            raise ValueError("cluster_size must divide the window size")
        self.program = program
        self.config = config
        self.predictor = predictor
        self.memory = memory
        self.cluster_size = cluster_size
        self.n = config.window_size
        self.L = program.spec.num_registers

        self.stations = [Station(i) for i in range(self.n)]
        self.oldest = 0  # ring position holding the oldest instruction
        #: occupied stations, oldest first: the run of the ring starting
        #: at ``oldest``.  Fetch appends, a squash truncates after the
        #: branch, deallocation drops whole clusters from the front.
        self.window: list[Station] = []
        #: how many leading stations of ``window`` have committed
        self._committed_count = 0
        self.committed_regs = list(initial_registers or [0] * self.L)
        if len(self.committed_regs) != self.L:
            raise ValueError("initial register file has wrong size")

        self.tracer = resolve_tracer(tracer)
        self._tracing = self.tracer.enabled
        # opt-in per-cycle observer (see repro.verify.invariants); None in
        # normal runs, so the only cost is one attribute test per cycle
        self._cycle_hook = cycle_hook
        if cluster_size == 1:
            self._refill_mode = "per_station"
        elif cluster_size == self.n:
            self._refill_mode = "whole_batch"
        else:
            self._refill_mode = "per_cluster"
        self.fetch = fetch_unit or FetchUnit(program, predictor, width=config.fetch_width)
        self.cycle = 0
        self.seq = 0
        self.committed: list[StepOutcome] = []
        self.timings: list[TimingRecord] = []
        self.halted = False
        self.squashed = 0
        self.mispredictions = 0
        self.forwarded_loads = 0
        self._cancelled_requests: set[int] = set()
        # self-timed bookkeeping: where and when each committed register
        # value was physically produced (commitment does not teleport
        # data; it still flows from the producing station's position)
        self._reg_source_pos: list[int | None] = [None] * self.L
        self._reg_source_cycle: list[int] = [0] * self.L

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------

    def _phase_fetch(self) -> None:
        """Refill empty stations from the fetch unit.

        Because clusters free as a unit (see :meth:`_phase_commit`), the
        empty positions always form the contiguous tail of the ring
        order, so each instruction takes the position just past the
        youngest occupied station.
        """
        budget = min(self.config.fetch_width, self.n - len(self.window))
        if budget == 0 or self.fetch.stalled():
            if self._tracing:
                if self.fetch.stalled():
                    self.tracer.count("fetch.stall_cycles.starved")
                else:
                    self.tracer.count("fetch.stall_cycles.window_full")
            return
        fetched = self.fetch.fetch_cycle(budget=budget)
        if self._tracing and fetched:
            self.tracer.count("fetch.cycles_active")
            self.tracer.count("fetch.instructions", len(fetched))
        pos = (self.oldest + len(self.window)) % self.n
        for fetched_inst in fetched:
            station = self.stations[pos]
            station.load(fetched_inst, self.seq, self.cycle)
            self.window.append(station)
            self.seq += 1
            pos = (pos + 1) % self.n

    def _register_views(self, occupied: list[Station]) -> list[_RegView]:
        """Each occupied station's incoming register view (CSPP semantics).

        Walk from the oldest: the committed register file is the oldest
        station's insertion; each station then overlays its own write
        (ready iff DONE).
        """
        track_writers = self.config.self_timed or self._tracing
        values = list(self.committed_regs)
        ready = [True] * self.L
        writers: list[Station | None] = [None] * self.L
        views: list[_RegView] = []
        for station in occupied:
            views.append(
                _RegView(
                    values=list(values),
                    ready=list(ready),
                    writers=list(writers) if track_writers else None,
                )
            )
            reg = station.writes_register
            if reg is not None:
                if station.done and station.result is not None:
                    values[reg] = station.result
                    ready[reg] = True
                else:
                    values[reg] = 0
                    ready[reg] = False
                if track_writers:
                    writers[reg] = station
        return views

    def _forward_latency(self, producer_pos: int, consumer_pos: int) -> int:
        """Cycles for a result to travel producer -> consumer.

        Global single-phase clock: always 1 ("all communications between
        components being completed in one clock cycle").  Self-timed:
        one cycle per H-tree level the signal must climb — neighbouring
        stations communicate in a single cycle, far stations pay for the
        longer wires (the paper's Section 7 pipelining discussion).
        """
        if not self.config.self_timed:
            return 1
        return max(1, tree_level_distance(producer_pos, consumer_pos))

    def _arrived(self, view: _RegView, reg: int, consumer: Station) -> bool:
        """Self-timed mode: has ready register *reg* reached *consumer*?"""
        writer = view.writers[reg]
        if writer is not None:
            latency = self._forward_latency(writer.index, consumer.index)
            return self.cycle >= writer.complete_cycle + latency
        # committed value: still in flight from the station that produced
        # it (initial register values have no producer and are ready)
        source_pos = self._reg_source_pos[reg]
        if source_pos is None:
            return True
        latency = self._forward_latency(source_pos, consumer.index)
        return self.cycle >= self._reg_source_cycle[reg] + latency

    def _ordering_conditions(
        self, occupied: list[Station]
    ) -> tuple[list[bool], list[bool], list[bool]]:
        """The three Figure 5 CSPP conditions for each occupied station.

        Returns (stores_done, mem_done, branches_resolved): per station,
        whether all *older* stations have finished their stores / all
        memory operations / resolved their control transfers.
        """
        count = len(occupied)
        if count == 0:
            return [], [], []
        store_ok = []
        mem_ok = []
        branch_ok = []
        for station in occupied:
            # a finished station meets all three conditions
            if station.state is StationState.DONE:
                store_ok.append(True)
                mem_ok.append(True)
                branch_ok.append(True)
            else:
                inst = station.fetched.instruction
                store_ok.append(not inst.is_store)
                mem_ok.append(not inst.is_memory)
                branch_ok.append(not inst.is_control)
        # Cyclic segmented AND with the oldest station raising its segment
        # bit: output[i] = AND of conditions of all older stations.  The
        # circuit's wrap-around output at the oldest station itself is
        # ignored, exactly as the oldest station "does not latch incoming
        # values" in the register datapath: it has no older stations, so
        # its conditions hold vacuously.
        segments = [i == 0 for i in range(count)]
        stores = cyclic_segmented_and(store_ok, segments)
        mems = cyclic_segmented_and(mem_ok, segments)
        branches = cyclic_segmented_and(branch_ok, segments)
        stores[0] = mems[0] = branches[0] = True
        return stores, mems, branches

    def _alu_grants(self, occupied: list[Station], candidates: list[bool]) -> list[bool]:
        """Shared-ALU arbitration (Memo 2): grant the oldest requesters.

        Returns per-occupied-station permission to start executing on an
        ALU this cycle.  Only called with ``num_alus`` set; without it
        every candidate has its own ALU, as the paper's layouts replicate.
        """
        busy = sum(
            1
            for s in occupied
            if s.state is StationState.EXECUTING
            and s.fetched.instruction.op.op_class is not OpClass.SYSTEM
        )
        free = max(0, self.config.num_alus - busy)
        requests = [
            candidates[i]
            and occupied[i].fetched.instruction.op.op_class is not OpClass.SYSTEM
            for i in range(len(occupied))
        ]
        if free == 0:
            grants = [False] * len(occupied)
        else:
            grants = prioritized_grants(requests, oldest=0, num_alus=free)
        # SYSTEM ops (NOP/HALT) need no ALU and always proceed
        for i in range(len(occupied)):
            if candidates[i] and not requests[i]:
                grants[i] = True
        return grants

    def _find_forwarding_store(
        self, occupied: list[Station], idx: int, address: int
    ) -> Station | None:
        """Nearest preceding store to *address* (memory renaming).

        Only called when all preceding stores are DONE, so every earlier
        store's address is known — the disambiguation the paper's CSPP
        ordering circuits provide.
        """
        for earlier in reversed(occupied[:idx]):
            inst = earlier.fetched.instruction
            if inst.is_store and earlier.address == address:
                return earlier
        return None

    def _phase_issue(self, occupied: list[Station], views: list[_RegView]) -> None:
        stores_done, mem_done, branches_resolved = self._ordering_conditions(occupied)

        # Writers may be tracked for telemetry alone; only the self-timed
        # mode charges distance-dependent latency.
        self_timed = self.config.self_timed
        # pass 1: who could issue this cycle?  (dict order is age order)
        ready_operands: dict[int, tuple[int, ...]] = {}
        for idx, station in enumerate(occupied):
            if station.state is not StationState.WAITING:
                continue
            inst = station.fetched.instruction
            view = views[idx]
            operands = []
            all_ready = True
            for reg in (inst.rs1, inst.rs2):
                if reg is None:
                    continue
                if not view.ready[reg] or (self_timed and not self._arrived(view, reg, station)):
                    all_ready = False
                    break
                operands.append(view.values[reg])
            if not all_ready:
                continue
            if inst.is_load and not stores_done[idx]:
                continue
            if inst.is_store and not (mem_done[idx] and branches_resolved[idx]):
                continue
            ready_operands[idx] = tuple(operands)

        # pass 2: shared-ALU arbitration (memory ops use the memory
        # network, not the ALU pool)
        alu_ok = None
        if self.config.num_alus is not None:
            requests = [False] * len(occupied)
            for idx in ready_operands:
                requests[idx] = not occupied[idx].fetched.instruction.is_memory
            alu_ok = self._alu_grants(occupied, requests)

        issued = 0
        for idx, operands in ready_operands.items():
            station = occupied[idx]
            inst = station.fetched.instruction
            if alu_ok is not None and not inst.is_memory and not alu_ok[idx]:
                if self._tracing:
                    self.tracer.count("issue.alu_denied")
                continue  # no free ALU this cycle; retry next cycle
            station.operands = operands
            station.issue_cycle = self.cycle
            issued += 1
            if self._tracing:
                self._trace_issue(station, views[idx], inst)
            if inst.is_load:
                station.address = to_unsigned(operands[0] + inst.imm)
                forwarder = (
                    self._find_forwarding_store(occupied, idx, station.address)
                    if self.config.store_forwarding
                    else None
                )
                if forwarder is not None:
                    # memory renaming: take the store's data directly
                    self.forwarded_loads += 1
                    if self._tracing:
                        self.tracer.count("mem.store_forward_hits")
                    station.result = forwarder.operands[1]
                    station.state = StationState.EXECUTING
                    station.remaining = 1
                else:
                    station.memory_request_id = self.memory.submit_load(
                        station.address, leaf=station.index
                    )
                    station.state = StationState.MEMORY
            elif inst.is_store:
                station.address = to_unsigned(operands[0] + inst.imm)
                station.memory_request_id = self.memory.submit_store(
                    station.address, operands[1], leaf=station.index
                )
                station.state = StationState.MEMORY
            else:
                station.state = StationState.EXECUTING
                station.remaining = self.config.latencies.latency_of(inst.op)
        if self._tracing and issued:
            self.tracer.count("issue.cycles_active")
            self.tracer.count("issue.instructions", issued)

    def _trace_issue(self, station: Station, view: _RegView, inst) -> None:
        """Record forwarding provenance and memory traffic for one issue."""
        for reg in (inst.rs1, inst.rs2):
            if reg is None:
                continue
            writer = view.writers[reg] if view.writers is not None else None
            if writer is not None:
                hops = tree_level_distance(writer.index, station.index)
                self.tracer.count("forward.from_station")
                self.tracer.count(f"forward.hops.{hops}")
                self.tracer.count(
                    "forward.latency_cycles",
                    self._forward_latency(writer.index, station.index),
                )
            else:
                self.tracer.count("forward.from_regfile")
        if inst.is_load:
            self.tracer.count("mem.loads")
        elif inst.is_store:
            self.tracer.count("mem.stores")

    def _phase_execute(self, occupied: list[Station]) -> None:
        """Advance functional units; resolve branches; handle squashes."""
        for idx, station in enumerate(occupied):
            if station.state is not StationState.EXECUTING:
                continue
            station.remaining -= 1
            if station.remaining > 0:
                continue
            inst = station.fetched.instruction
            station.state = StationState.DONE
            station.complete_cycle = self.cycle
            op = inst.op
            if inst.is_branch:
                station.taken = branch_taken(op, station.operands[0], station.operands[1])
                actual_next = inst.target if station.taken else station.fetched.static_index + 1
                if station.taken != station.fetched.predicted_taken:
                    self._mispredict(idx, actual_next)
                    return  # younger stations were squashed; stop this phase
            elif op is Opcode.J:
                station.taken = True
            elif op in (Opcode.HALT, Opcode.NOP):
                pass
            elif inst.is_load:
                pass  # store-forwarded load: result preset at issue
            else:
                station.result = alu_result(
                    op,
                    station.operands[0] if station.operands else 0,
                    station.operands[1] if len(station.operands) > 1 else 0,
                    inst.imm,
                )

    def _mispredict(self, idx: int, actual_next: int) -> None:
        """Squash everything younger than ``window[idx]``; redirect fetch."""
        self.mispredictions += 1
        window = self.window
        for younger in window[idx + 1 :]:
            if younger.memory_request_id is not None and not younger.done:
                self._cancelled_requests.add(younger.memory_request_id)
            younger.clear()
        self.squashed += len(window) - idx - 1
        del window[idx + 1 :]
        # rewind the fetch sequence numbering to just after the branch
        self.seq = window[idx].seq + 1
        self.fetch.redirect(actual_next)

    def _phase_memory(self, occupied: list[Station]) -> None:
        completions = self.memory.tick()
        if not completions:
            return
        by_request = {
            station.memory_request_id: station
            for station in occupied
            if station.state is StationState.MEMORY
        }
        for request_id, value in completions.items():
            if request_id in self._cancelled_requests:
                self._cancelled_requests.discard(request_id)
                continue
            station = by_request.get(request_id)
            if station is None:
                continue
            station.state = StationState.DONE
            station.complete_cycle = self.cycle
            if station.fetched.instruction.is_load:
                station.result = value

    def _phase_commit(self) -> None:
        """Commit finished oldest instructions; deallocate whole clusters.

        Commitment (applying results to the architectural register file,
        in program order) is per instruction; *deallocation* frees an
        aligned cluster of ``cluster_size`` stations only once every
        station in it has committed — the hybrid's "super execution
        station" behaviour.  With ``cluster_size == 1`` this is exactly
        the Ultrascalar I's per-station reuse; with ``cluster_size == n``
        it is the Ultrascalar II's whole-batch refill.
        """
        window = self.window
        count = self._committed_count
        while count < len(window):
            station = window[count]
            if not station.done:
                break
            inst = station.fetched.instruction
            reg = station.writes_register
            if reg is not None and station.result is not None:
                self.committed_regs[reg] = station.result
                self._reg_source_pos[reg] = station.index
                self._reg_source_cycle[reg] = station.complete_cycle
            taken = station.taken
            next_pc = station.fetched.static_index + 1
            if inst.is_control and taken:
                next_pc = inst.target
            self.committed.append(
                StepOutcome(
                    static_index=station.fetched.static_index,
                    instruction=inst,
                    operand_values=station.operands,
                    result=station.result,
                    address=station.address,
                    taken=taken,
                    next_pc=next_pc,
                )
            )
            self.timings.append(
                TimingRecord(
                    seq=station.seq,
                    static_index=station.fetched.static_index,
                    instruction=inst,
                    fetch_cycle=station.fetch_cycle,
                    issue_cycle=station.issue_cycle,
                    complete_cycle=station.complete_cycle,
                    commit_cycle=self.cycle,
                )
            )
            if inst.is_branch:
                self.predictor.update(station.fetched.static_index, bool(taken))
            if inst.is_halt:
                self.halted = True
            station.committed = True
            count += 1
            if self._tracing:
                self.tracer.count("commit.instructions")
                self.tracer.event(
                    str(inst),
                    cat="instruction",
                    ts=station.issue_cycle,
                    dur=station.complete_cycle - station.issue_cycle + 1,
                    tid=station.index,
                    seq=station.seq,
                    static_index=station.fetched.static_index,
                    fetch_cycle=station.fetch_cycle,
                    commit_cycle=self.cycle,
                )

        self._committed_count = count

        # Deallocate leading fully-committed clusters.  `oldest` is always
        # cluster-aligned: the initial fill starts at position 0 and
        # clusters free as aligned units.  Commitment is in order, so a
        # cluster has fully committed once its youngest station has.
        size = self.cluster_size
        while self._committed_count >= size:
            for station in window[:size]:
                station.clear()
            del window[:size]
            self._committed_count -= size
            self.oldest = (self.oldest + size) % self.n
            if self._tracing:
                self.tracer.count(f"fetch.refills.{self._refill_mode}")
                self.tracer.count("fetch.refilled_stations", self.cluster_size)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the processor one clock cycle."""
        self._phase_fetch()
        window = self.window
        if self._tracing:
            self.tracer.count("cycles")
            self.tracer.count("commit.window_occupancy", len(window))
        views = self._register_views(window)
        self._phase_issue(window, views)
        self._phase_execute(window)
        self._phase_memory(window)  # a squash truncated it in place
        self._phase_commit()
        if self._cycle_hook is not None:
            self._cycle_hook(self)
        self.cycle += 1

    def _idle(self) -> bool:
        """Fetch has stopped and every occupied station has committed.

        Not "every station is empty": a partly filled last cluster is
        never freed, so a program without HALT would run forever.
        """
        return self.fetch.stalled() and self._committed_count == len(self.window)

    def run(self) -> ProcessorResult:
        """Run to completion (HALT committed, or program exhausted)."""
        while not self.halted and not self._idle():
            if self.cycle >= self.config.max_cycles:
                raise RuntimeError(f"exceeded max_cycles={self.config.max_cycles}")
            self.step()
        if self._tracing:
            self.tracer.count("commit.squashed", self.squashed)
            self.tracer.count("commit.mispredictions", self.mispredictions)
            memory_counters = getattr(self.memory, "counters", None)
            if memory_counters is not None:
                for name, value in memory_counters().items():
                    self.tracer.count(name, value)
            for name, value in self.fetch.counters().items():
                self.tracer.count(name, value)
        return ProcessorResult(
            cycles=self.cycle,
            committed=self.committed,
            registers=list(self.committed_regs),
            memory=self.memory.final_state(),
            timings=self.timings,
            halted=self.halted,
            squashed=self.squashed,
            mispredictions=self.mispredictions,
            forwarded_loads=self.forwarded_loads,
            stats=self.tracer.snapshot(),
        )
