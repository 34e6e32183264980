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

The simulator is event-driven: it pays per event, not per ``n * L``
each cycle.  The CSPP networks compute, every cycle, each station's
nearest older writer of every register and three window-wide ANDs;
here the same answers come from incremental state:

* **rename at fetch** — each station gets a fetch tag from a counter
  that only goes up, and links each source register to its youngest
  older in-window writer through a ``last_writer`` table.  Older
  writers never change except on a squash, so the link is computed
  once.  A link whose tag no longer matches means the producer was
  deallocated, and the operand comes from the committed register file;
* **oldest-unfinished queues** — age-ordered queues of the unfinished
  stores, memory operations and control transfers.  "Every older
  station has finished its stores" is "the head of the store queue is
  not older than me";
* **wakeup lists** — at fetch a station counts its links to unfinished
  producers (``pending``) and registers with each one; a producer that
  finishes decrements its consumers' counts, and a consumer that
  reaches zero is woken.  Woken stations join the age-ordered ready
  list at the start of the next issue phase (the one-cycle forwarding
  rule), so issue walks only stations whose producers have all
  finished; the final operand read still decides, which keeps
  self-timed wire delays exact.  Execute walks the executing stations,
  memory completions find their station by request id, and ALU
  arbitration runs over this cycle's candidates;
* **decode once** — each station carries its instruction's
  :class:`~repro.isa.opcodes.OpClass` from the program's per-index
  table (:attr:`~repro.isa.program.Program.kinds`), and execute
  latencies come from a per-index table, so no phase re-derives an
  instruction's class.

The CSPP semantics are the reference: :mod:`repro.verify.invariants`
recomputes the register views and the three ordering conditions with
the circuits' walk and :func:`~repro.circuits.cspp.cyclic_segmented_and`
every cycle and checks the engine's links and queues against them.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

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

_DONE = StationState.DONE
_WAITING = StationState.WAITING
_EXECUTING = StationState.EXECUTING
_MEMORY = StationState.MEMORY
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP
_SYSTEM = OpClass.SYSTEM
#: classes that need no ALU: memory operations use the memory network
_NO_ALU = (_LOAD, _STORE, _SYSTEM)
#: queue head of an empty oldest-unfinished queue: younger than any tag
_NO_TAG = float("inf")
_tag_of = attrgetter("tag")


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
        self._kinds = program.kinds
        #: execute latency by static index
        self._latency = [config.latencies.latency_of(inst.op) for inst in program]
        self._self_timed = config.self_timed
        self.cycle = 0
        self.seq = 0
        self.committed: list[StepOutcome] = []
        self.timings: list[TimingRecord] = []
        self.halted = False
        self.squashed = 0
        self.mispredictions = 0
        self.forwarded_loads = 0
        # self-timed bookkeeping: where and when each committed register
        # value was physically produced (commitment does not teleport
        # data; it still flows from the producing station's position)
        self._reg_source_pos: list[int | None] = [None] * self.L
        self._reg_source_cycle: list[int] = [0] * self.L

        # event-driven state (see module docstring)
        self._next_tag = 0
        #: register -> (station, tag) of its youngest in-window writer
        self._last_writer: list[tuple[Station, int] | None] = [None] * self.L
        #: age-ordered (station, tag) of unfinished stores, memory
        #: operations and control transfers; DONE or stale heads are
        #: popped lazily
        self._unfinished_stores: deque[tuple[Station, int]] = deque()
        self._unfinished_memory: deque[tuple[Station, int]] = deque()
        self._unfinished_control: deque[tuple[Station, int]] = deque()
        #: WAITING stations with no unfinished producer, oldest first
        self._ready: list[Station] = []
        #: stations whose last producer finished this cycle; they join
        #: ``_ready`` at the next issue phase
        self._woken: list[Station] = []
        #: EXECUTING stations, oldest first
        self._executing: list[Station] = []
        #: outstanding memory request id -> the station in MEMORY state
        self._requests: dict[int, Station] = {}

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------

    def _phase_fetch(self) -> None:
        """Refill empty stations from the fetch unit and rename them.

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
        kinds = self._kinds
        pos = (self.oldest + len(self.window)) % self.n
        for fetched_inst in fetched:
            station = self.stations[pos]
            station.load(fetched_inst, self.seq, self.cycle)
            tag = self._next_tag
            self._next_tag += 1
            station.tag = tag
            inst = fetched_inst.instruction
            kind = station.kind = kinds[fetched_inst.static_index]
            sources = station.sources = self._rename(inst)
            pending = 0
            for _reg, producer, producer_tag in sources:
                live = producer is not None and producer.tag == producer_tag
                if live and producer.state is not _DONE:
                    pending += 1
                    producer.consumers.append((station, tag))
            station.pending = pending
            if inst.rd is not None:
                self._last_writer[inst.rd] = (station, tag)
            if kind is _LOAD:
                self._unfinished_memory.append((station, tag))
            elif kind is _STORE:
                self._unfinished_memory.append((station, tag))
                self._unfinished_stores.append((station, tag))
            elif kind is _BRANCH or kind is _JUMP:
                self._unfinished_control.append((station, tag))
            self.window.append(station)
            if not pending:
                # the youngest station, so the list stays age-ordered
                self._ready.append(station)
            self.seq += 1
            pos = (pos + 1) % self.n

    def _rename(self, inst) -> tuple:
        """Link each source register to its youngest older in-window writer."""
        last_writer = self._last_writer
        sources = []
        for reg in (inst.rs1, inst.rs2):
            if reg is not None:
                link = last_writer[reg]
                sources.append((reg, None, -1) if link is None else (reg, *link))
        return tuple(sources)

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

    def _operands(self, station: Station) -> list[int] | None:
        """The station's operand values, or ``None`` if one is not ready.

        A linked producer still in the window supplies its result once
        DONE (and, self-timed, once the result has crossed the wires);
        otherwise the committed register file does.
        """
        operands = []
        for reg, producer, tag in station.sources:
            if producer is not None and producer.tag == tag:
                if producer.state is not _DONE or producer.result is None:
                    return None
                if self._self_timed and self.cycle < producer.complete_cycle + (
                    self._forward_latency(producer.index, station.index)
                ):
                    return None
                operands.append(producer.result)
            else:
                if self._self_timed:
                    # still in flight from the station that produced it
                    # (initial register values have no producer)
                    source_pos = self._reg_source_pos[reg]
                    if source_pos is not None and self.cycle < self._reg_source_cycle[reg] + (
                        self._forward_latency(source_pos, station.index)
                    ):
                        return None
                operands.append(self.committed_regs[reg])
        return operands

    @staticmethod
    def _oldest_unfinished(queue: deque) -> float:
        """Tag of the queue's oldest unfinished station (``inf`` if none)."""
        while queue:
            station, tag = queue[0]
            if station.tag == tag and station.state is not _DONE:
                return tag
            queue.popleft()
        return _NO_TAG

    def oldest_unfinished_tags(self) -> tuple[float, float, float]:
        """Tags of the oldest unfinished store, memory op and control transfer.

        The Figure 5 conditions follow: every station older than ``s``
        has finished its stores iff ``s.tag <= stores``, and likewise
        for memory operations and control transfers.
        """
        return (
            self._oldest_unfinished(self._unfinished_stores),
            self._oldest_unfinished(self._unfinished_memory),
            self._oldest_unfinished(self._unfinished_control),
        )

    def _alu_grants(self, ready: list[tuple[Station, list[int]]]) -> list[bool]:
        """Shared-ALU arbitration (Memo 2): grant the oldest requesters.

        Returns per ready candidate permission to start this cycle.
        Memory operations use the memory network and SYSTEM ops
        (NOP/HALT) need no ALU, so both always proceed.  Only called with
        ``num_alus`` set; without it every candidate has its own ALU, as
        the paper's layouts replicate.
        """
        busy = sum(1 for s in self._executing if s.kind is not _SYSTEM)
        free = max(0, self.config.num_alus - busy)
        requests = [station.kind not in _NO_ALU for station, _ in ready]
        if free == 0:
            grants = [False] * len(ready)
        else:
            grants = prioritized_grants(requests, oldest=0, num_alus=free)
        return [granted or not requested for granted, requested in zip(grants, requests)]

    def _find_forwarding_store(self, station: Station) -> Station | None:
        """Nearest preceding store to the load's address (memory renaming).

        Only called when all preceding stores are DONE, so every earlier
        store's address is known — the disambiguation the paper's CSPP
        ordering circuits provide.
        """
        position = (station.index - self.oldest) % self.n
        for earlier in reversed(self.window[:position]):
            if earlier.kind is _STORE and earlier.address == station.address:
                return earlier
        return None

    def _wake(self, producer: Station) -> None:
        """*producer* has finished: count it off each live consumer's wait."""
        for consumer, tag in producer.consumers:
            if consumer.tag == tag:
                consumer.pending -= 1
                if not consumer.pending:
                    self._woken.append(consumer)

    def _phase_issue(self) -> None:
        if self._woken:
            # results finished last cycle are visible from this cycle on
            self._ready.extend(self._woken)
            self._ready.sort(key=_tag_of)
            self._woken = []
        if not self._ready:
            return
        stores_head, memory_head, control_head = self.oldest_unfinished_tags()
        # pass 1: who could issue this cycle?  (age order; the Figure 5
        # ordering conditions first, as they are cheaper than operands)
        ready: list[tuple[Station, list[int]]] = []
        for station in self._ready:
            kind = station.kind
            if kind is _LOAD:
                if stores_head < station.tag:
                    continue
            elif kind is _STORE:
                if memory_head < station.tag or control_head < station.tag:
                    continue
            operands = self._operands(station)
            if operands is None:
                continue
            ready.append((station, operands))
        if not ready:
            return

        # pass 2: shared-ALU arbitration over this cycle's candidates
        alu_ok = self._alu_grants(ready) if self.config.num_alus is not None else None

        issued = 0
        started: list[Station] = []
        for i, (station, operands) in enumerate(ready):
            if alu_ok is not None and not alu_ok[i]:
                if self._tracing:
                    self.tracer.count("issue.alu_denied")
                continue  # no free ALU this cycle; retry next cycle
            inst = station.fetched.instruction
            kind = station.kind
            station.operands = tuple(operands)
            station.issue_cycle = self.cycle
            issued += 1
            if self._tracing:
                self._trace_issue(station)
            if kind is _LOAD:
                station.address = to_unsigned(operands[0] + inst.imm)
                forwarder = (
                    self._find_forwarding_store(station) if self.config.store_forwarding else None
                )
                if forwarder is not None:
                    # memory renaming: take the store's data directly
                    self.forwarded_loads += 1
                    if self._tracing:
                        self.tracer.count("mem.store_forward_hits")
                    station.result = forwarder.operands[1]
                    station.state = _EXECUTING
                    station.remaining = 1
                    started.append(station)
                else:
                    station.memory_request_id = self.memory.submit_load(
                        station.address, leaf=station.index
                    )
                    station.state = _MEMORY
                    self._requests[station.memory_request_id] = station
            elif kind is _STORE:
                station.address = to_unsigned(operands[0] + inst.imm)
                station.memory_request_id = self.memory.submit_store(
                    station.address, operands[1], leaf=station.index
                )
                station.state = _MEMORY
                self._requests[station.memory_request_id] = station
            else:
                station.state = _EXECUTING
                station.remaining = self._latency[station.fetched.static_index]
                started.append(station)
        if issued:
            self._ready = [s for s in self._ready if s.state is _WAITING]
            if started:
                # both runs are age-ordered; the sort merges them
                self._executing.extend(started)
                self._executing.sort(key=_tag_of)
            if self._tracing:
                self.tracer.count("issue.cycles_active")
                self.tracer.count("issue.instructions", issued)

    def _trace_issue(self, station: Station) -> None:
        """Record forwarding provenance and memory traffic for one issue."""
        for _reg, producer, tag in station.sources:
            if producer is not None and producer.tag == tag:
                hops = tree_level_distance(producer.index, station.index)
                self.tracer.count("forward.from_station")
                self.tracer.count(f"forward.hops.{hops}")
                self.tracer.count(
                    "forward.latency_cycles",
                    self._forward_latency(producer.index, station.index),
                )
            else:
                self.tracer.count("forward.from_regfile")
        if station.kind is _LOAD:
            self.tracer.count("mem.loads")
        elif station.kind is _STORE:
            self.tracer.count("mem.stores")

    def _phase_execute(self) -> None:
        """Advance functional units; resolve branches; handle squashes."""
        still: list[Station] = []
        for station in self._executing:
            station.remaining -= 1
            if station.remaining > 0:
                still.append(station)
                continue
            station.state = _DONE
            station.complete_cycle = self.cycle
            if station.consumers:
                self._wake(station)
            inst = station.fetched.instruction
            kind = station.kind
            if kind is _BRANCH:
                station.taken = branch_taken(inst.op, station.operands[0], station.operands[1])
                actual_next = inst.target if station.taken else station.fetched.static_index + 1
                if station.taken != station.fetched.predicted_taken:
                    # younger stations are squashed; stop this phase
                    self._executing = still
                    self._mispredict(station, actual_next)
                    return
            elif kind is _JUMP:
                station.taken = True
            elif kind is _SYSTEM or kind is _LOAD:
                pass  # NOP / HALT, or a store-forwarded load (result preset at issue)
            else:
                station.result = alu_result(
                    inst.op,
                    station.operands[0] if station.operands else 0,
                    station.operands[1] if len(station.operands) > 1 else 0,
                    inst.imm,
                )
        self._executing = still

    def _mispredict(self, branch: Station, actual_next: int) -> None:
        """Squash everything younger than *branch*; redirect fetch.

        The ready and executing lists and the queues are age-ordered, so
        each loses a tail; the woken list (an older producer may have
        woken a younger consumer earlier in this execute phase) is
        filtered; the rename table is rebuilt from the surviving
        stations.
        """
        self.mispredictions += 1
        tag = branch.tag
        for worklist in (self._ready, self._executing):
            while worklist and worklist[-1].tag > tag:
                worklist.pop()
        if self._woken:
            self._woken = [s for s in self._woken if s.tag <= tag]
        for queue in (self._unfinished_stores, self._unfinished_memory, self._unfinished_control):
            while queue and queue[-1][1] > tag:
                queue.pop()
        window = self.window
        idx = (branch.index - self.oldest) % self.n
        for younger in window[idx + 1 :]:
            if younger.memory_request_id is not None:
                self._requests.pop(younger.memory_request_id, None)
            younger.clear()
        self.squashed += len(window) - idx - 1
        del window[idx + 1 :]
        last_writer: list[tuple[Station, int] | None] = [None] * self.L
        for station in window:
            reg = station.fetched.instruction.rd
            if reg is not None:
                last_writer[reg] = (station, station.tag)
        self._last_writer = last_writer
        # rewind the fetch sequence numbering to just after the branch
        self.seq = branch.seq + 1
        self.fetch.redirect(actual_next)

    def _phase_memory(self) -> None:
        completions = self.memory.tick()
        if not completions:
            return
        for request_id, value in completions.items():
            # squashed requests were dropped from the map
            station = self._requests.pop(request_id, None)
            if station is None:
                continue
            station.state = _DONE
            station.complete_cycle = self.cycle
            if station.kind is _LOAD:
                station.result = value
            if station.consumers:
                self._wake(station)

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
            if station.state is not _DONE:
                break
            inst = station.fetched.instruction
            kind = station.kind
            reg = inst.rd
            if reg is not None and station.result is not None:
                self.committed_regs[reg] = station.result
                self._reg_source_pos[reg] = station.index
                self._reg_source_cycle[reg] = station.complete_cycle
            taken = station.taken
            next_pc = station.fetched.static_index + 1
            if taken and (kind is _BRANCH or kind is _JUMP):
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
            if kind is _BRANCH:
                self.predictor.update(station.fetched.static_index, bool(taken))
            elif inst.op is Opcode.HALT:
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
        # Clearing a station retires its tag, which turns every rename
        # link to it into a committed-register-file read.
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
        if self._tracing:
            self.tracer.count("cycles")
            self.tracer.count("commit.window_occupancy", len(self.window))
        self._phase_issue()
        self._phase_execute()
        self._phase_memory()
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
