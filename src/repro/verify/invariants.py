"""Engine-internal invariant checking (the opt-in per-cycle observer).

An :class:`InvariantChecker` is a callable passed as the engine's
``cycle_hook``; :class:`~repro.ultrascalar.ring.RingProcessor`, which
runs all three designs, invokes it once at the end of every
:meth:`step`.  Normal runs pass no hook, so they execute exactly the
pre-verification code.

Checked properties (violations raise :class:`InvariantViolation`):

* **Commit-window FIFO order** — the committed stream's sequence numbers
  are strictly increasing and each commit's static index equals the
  previous commit's ``next_pc``: commitment follows the architectural
  control-flow path in order, never reorders, never skips.
* **CSPP ready-bit monotonicity** — once a station's result is DONE (its
  ready bit asserted into the prefix network), it stays DONE until the
  station is deallocated or squashed; a ready bit never de-asserts while
  the same instruction occupies the station.
* **Producer links** — every waiting station's rename links name its
  nearest older in-window writer of each source register (or the
  committed register file when there is none), as a one-pass walk of the
  window recomputes them.  This is the register CSPP's answer, checked in
  O(n) per cycle.
* **Wakeup state** — every waiting station's ``pending`` count equals
  its live links to unfinished producers, each such producer lists the
  station (with its current tag) among its consumers, and the station
  is on the engine's ready or woken list exactly when its count is
  zero; the ready list is age-ordered and holds only waiting stations.
  A lost or doubled wakeup therefore fails the cycle it happens, not
  when the run later deadlocks or issues early.  O(n) per cycle.
* **Ordering-condition consistency** — the Figure 5 conditions the
  engine derives from its oldest-unfinished queues (stores done / memory
  done / branches resolved for all older stations) equal both the CSPP
  reference (:func:`reference_ordering`, three
  :func:`~repro.circuits.cspp.cyclic_segmented_and` scans) and a naive
  walk; the segmented prefix circuit, the queues and the specification
  must agree every cycle.
* **Single-writer-per-column routing** (US-II grid, on engines whose one
  cluster spans the window) — the window's reference register views
  (:func:`reference_views`) equal
  :func:`repro.circuits.grid.route_arguments`, the behavioural reference
  for the grid network: each station's arguments come from the
  *nearest* preceding writer column (of which each station contributes
  at most one), else the committed register file.

:func:`reference_views` and :func:`reference_ordering` are the CSPP
semantics the event-driven engine replaces: each station's incoming
register view and the three segmented ANDs, recomputed from scratch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.circuits import cspp
from repro.circuits.grid import RegisterBinding, route_arguments
from repro.ultrascalar.ring import RingProcessor
from repro.ultrascalar.station import Station, StationState


class InvariantViolation(AssertionError):
    """An engine-internal property failed during execution."""


@dataclass
class RegisterView:
    """One station's incoming register view: value and ready per register.

    ``writers[r]`` is the producing station, or ``None`` when the value
    comes from the committed register file.
    """

    values: list[int]
    ready: list[bool]
    writers: list[Station | None]


def reference_views(engine: RingProcessor) -> list[RegisterView]:
    """Each window station's incoming register view (CSPP semantics).

    Walk from the oldest: the committed register file is the oldest
    station's insertion; each station then overlays its own write
    (ready iff DONE).  O(n * L): a reference, not the engine's path.
    """
    values = list(engine.committed_regs)
    ready = [True] * engine.L
    writers: list[Station | None] = [None] * engine.L
    views = []
    for station in engine.window:
        views.append(RegisterView(list(values), list(ready), list(writers)))
        reg = station.writes_register
        if reg is not None:
            published = station.done and station.result is not None
            values[reg] = station.result if published else 0
            ready[reg] = published
            writers[reg] = station
    return views


def reference_ordering(engine: RingProcessor) -> tuple[list[bool], list[bool], list[bool]]:
    """The three Figure 5 CSPP conditions for each window station.

    Returns (stores_done, mem_done, branches_resolved): per station,
    whether all *older* stations have finished their stores / all
    memory operations / resolved their control transfers.
    """
    window = engine.window
    if not window:
        return [], [], []
    store_ok, mem_ok, branch_ok = [], [], []
    for station in window:
        # a finished station meets all three conditions
        inst = station.fetched.instruction
        done = station.state is StationState.DONE
        store_ok.append(done or not inst.is_store)
        mem_ok.append(done or not inst.is_memory)
        branch_ok.append(done or not inst.is_control)
    # Cyclic segmented AND with the oldest station raising its segment
    # bit: output[i] = AND of conditions of all older stations.  The
    # circuit's wrap-around output at the oldest station itself is
    # ignored, exactly as the oldest station "does not latch incoming
    # values" in the register datapath: it has no older stations, so
    # its conditions hold vacuously.
    segments = [i == 0 for i in range(len(window))]
    stores = cspp.cyclic_segmented_and(store_ok, segments)
    mems = cspp.cyclic_segmented_and(mem_ok, segments)
    branches = cspp.cyclic_segmented_and(branch_ok, segments)
    stores[0] = mems[0] = branches[0] = True
    return stores, mems, branches


class InvariantChecker:
    """Per-cycle invariant observer; install as an engine ``cycle_hook``.

    One checker can watch several engines at once (it keys its
    bookkeeping by the engine object, weakly, so a freed engine's state
    never passes to a new engine that reuses its ``id``), and a
    differential run can share a single instance across all designs.
    :attr:`checks` counts the individual property evaluations performed,
    for reporting.
    """

    def __init__(self) -> None:
        self.checks = 0
        #: per engine: last observed seq of each DONE station position
        self._done_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: per engine: committed-stream length already validated
        self._commit_cursor: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------

    def __call__(self, engine: RingProcessor) -> None:
        stations = engine.window
        self._check_commit_fifo(engine)
        self._check_done_monotonic(engine, stations)
        self._check_producer_links(engine, stations)
        self._check_wakeup_state(engine, stations)
        self._check_ring_ordering(engine, stations)
        if engine.cluster_size == engine.n:
            self._check_grid_routing(engine, stations)

    # ------------------------------------------------------------------

    def _fail(self, engine, message: str) -> None:
        raise InvariantViolation(f"{type(engine).__name__} @ cycle {engine.cycle}: {message}")

    def _check_commit_fifo(self, engine) -> None:
        """Committed stream is FIFO and follows the architectural path."""
        self.checks += 1
        start = self._commit_cursor.get(engine, 0)
        timings = engine.timings
        committed = engine.committed
        for k in range(max(1, start), len(committed)):
            if timings[k].seq <= timings[k - 1].seq:
                self._fail(
                    engine,
                    f"commit FIFO violated: seq {timings[k].seq} committed "
                    f"after seq {timings[k - 1].seq}",
                )
            if committed[k].static_index != committed[k - 1].next_pc:
                self._fail(
                    engine,
                    f"commit stream left the architectural path: commit {k} "
                    f"is instruction {committed[k].static_index}, expected "
                    f"{committed[k - 1].next_pc}",
                )
        self._commit_cursor[engine] = len(committed)

    def _check_done_monotonic(self, engine, stations) -> None:
        """A DONE (ready) station stays DONE until deallocated/squashed."""
        self.checks += 1
        seen = self._done_seen.get(engine, {})
        held = {station.index: station.seq for station in stations}
        current = {station.index: station.seq for station in stations if station.done}
        for position, seq in seen.items():
            if held.get(position) == seq and current.get(position) != seq:
                self._fail(
                    engine,
                    f"ready bit de-asserted: station {position} (seq {seq}) "
                    "was DONE and is no longer",
                )
        self._done_seen[engine] = current

    def _check_producer_links(self, engine: RingProcessor, window) -> None:
        """Each waiting station links to its nearest older writer."""
        self.checks += 1
        nearest: list[Station | None] = [None] * engine.L
        for station in window:
            if station.state is StationState.WAITING:
                for reg, producer, tag in station.sources:
                    linked = producer if producer is not None and producer.tag == tag else None
                    if linked is not nearest[reg]:
                        want = nearest[reg]
                        self._fail(
                            engine,
                            f"station {station.index} (seq {station.seq}) links r{reg} to "
                            f"{_describe(linked)}, nearest older writer is {_describe(want)}",
                        )
            reg = station.writes_register
            if reg is not None:
                nearest[reg] = station

    def _check_wakeup_state(self, engine: RingProcessor, window) -> None:
        """Pending counts, consumer registrations and the ready lists agree."""
        self.checks += 1
        ready_tags = [station.tag for station in engine._ready]
        if any(older >= younger for older, younger in zip(ready_tags, ready_tags[1:])):
            self._fail(engine, f"ready list is not age-ordered: tags {ready_tags}")
        listed = ready_tags + [station.tag for station in engine._woken]
        # (producer tag, consumer tag) of every live registration
        registered = set()
        waiting = set()
        for station in window:
            if station.state is StationState.WAITING:
                waiting.add(station.tag)
            if station.state is not StationState.DONE:
                for consumer, tag in station.consumers:
                    if consumer.tag == tag:
                        registered.add((station.tag, tag))
        strays = [tag for tag in listed if tag not in waiting]
        if strays or len(set(listed)) != len(listed):
            self._fail(engine, f"ready/woken lists hold stale or repeated stations: tags {listed}")
        listed = set(listed)
        for station in window:
            if station.state is not StationState.WAITING:
                continue
            pending = 0
            for reg, producer, tag in station.sources:
                if producer is not None and producer.tag == tag and not producer.done:
                    pending += 1
                    if (tag, station.tag) not in registered:
                        self._fail(
                            engine,
                            f"station {station.index} (seq {station.seq}) waits on "
                            f"{_describe(producer)} for r{reg} but is not among its consumers",
                        )
            if station.pending != pending:
                self._fail(
                    engine,
                    f"station {station.index} (seq {station.seq}) has pending "
                    f"{station.pending}, but {pending} linked producers are unfinished",
                )
            if (pending == 0) != (station.tag in listed):
                self._fail(
                    engine,
                    f"station {station.index} (seq {station.seq}) with pending {pending} is "
                    f"{'' if station.tag in listed else 'not '}on the ready or woken list",
                )

    def _check_ring_ordering(self, engine: RingProcessor, window) -> None:
        """Queue-derived ordering conditions equal the CSPP and the naive walk."""
        self.checks += 1
        if not window:
            return
        heads = engine.oldest_unfinished_tags()
        queued = tuple([station.tag <= head for station in window] for head in heads)
        stores, mems, branches = [], [], []
        store_ok = mem_ok = branch_ok = True
        for station in window:
            stores.append(store_ok)
            mems.append(mem_ok)
            branches.append(branch_ok)
            inst = station.fetched.instruction
            store_ok = store_ok and (not inst.is_store or station.done)
            mem_ok = mem_ok and (not inst.is_memory or station.done)
            branch_ok = branch_ok and (not inst.is_control or station.done)
        walk = (stores, mems, branches)
        references = (("oldest-unfinished queue", queued), ("CSPP", reference_ordering(engine)))
        for source, got in references:
            if got == walk:
                continue
            for name, g, w in zip(("stores", "mem", "branches"), got, walk):
                if g != w:
                    self._fail(
                        engine,
                        f"{source} {name}-ordering condition diverged from the "
                        f"specification walk: {source} {g}, walk {w}",
                    )

    def _check_grid_routing(self, engine: RingProcessor, window) -> None:
        """Register views equal the grid network's routed arguments."""
        self.checks += 1
        if not window:
            return
        writes: list[RegisterBinding | None] = []
        reads: list[list[int]] = []
        for station in window:
            reg = station.writes_register
            if reg is None:
                writes.append(None)
            else:
                published = station.done and station.result is not None
                writes.append(
                    RegisterBinding(
                        reg=reg,
                        value=station.result if published else 0,
                        ready=published,
                    )
                )
            reads.append(list(station.fetched.instruction.reads))
        routed = route_arguments(
            engine.L,
            [(value, True) for value in engine.committed_regs],
            writes,
            reads,
        )
        views = reference_views(engine)
        for idx, requested in enumerate(reads):
            for port, reg in enumerate(requested):
                want = routed.arguments[idx][port]
                got = (views[idx].values[reg], views[idx].ready[reg])
                if got != want:
                    self._fail(
                        engine,
                        f"grid routing diverged at station {idx} r{reg}: "
                        f"view {got}, route_arguments {want}",
                    )


def _describe(station: Station | None) -> str:
    if station is None:
        return "the committed register file"
    return f"station {station.index} (seq {station.seq})"


def checked_run(engine, checker: InvariantChecker | None = None):
    """Drive *engine* to completion under an invariant checker.

    Convenience for engines built without a ``cycle_hook``: installs
    *checker* (default: a fresh one) and calls ``engine.run()``.
    """
    active = checker if checker is not None else InvariantChecker()
    engine._cycle_hook = active
    return engine.run()
