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
* **Ordering-condition consistency** — the engine's CSPP-derived
  Figure 5 conditions (stores done / memory done / branches resolved for
  all older stations) equal a naive O(n²) recomputation; the segmented
  prefix circuit and the specification walk must agree every cycle.
* **Single-writer-per-column routing** (US-II grid, on engines whose one
  cluster spans the window) — the window's register views equal
  :func:`repro.circuits.grid.route_arguments`, the behavioural reference
  for the grid network: each station's arguments come from the
  *nearest* preceding writer column (of which each station contributes
  at most one), else the committed register file.
"""

from __future__ import annotations

import weakref

from repro.circuits.grid import RegisterBinding, route_arguments
from repro.ultrascalar.ring import RingProcessor


class InvariantViolation(AssertionError):
    """An engine-internal property failed during execution."""


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

    def _check_ring_ordering(self, engine: RingProcessor, occupied) -> None:
        """Engine's CSPP ordering conditions equal the naive walk."""
        self.checks += 1
        if not occupied:
            return
        got = engine._ordering_conditions(occupied)
        stores, mems, branches = [], [], []
        store_ok = mem_ok = branch_ok = True
        for station in occupied:
            stores.append(store_ok)
            mems.append(mem_ok)
            branches.append(branch_ok)
            inst = station.fetched.instruction
            store_ok = store_ok and (not inst.is_store or station.done)
            mem_ok = mem_ok and (not inst.is_memory or station.done)
            branch_ok = branch_ok and (not inst.is_control or station.done)
        want = (stores, mems, branches)
        if tuple(got) != want:
            for name, g, w in zip(("stores", "mem", "branches"), got, want):
                if g != w:
                    self._fail(
                        engine,
                        f"CSPP {name}-ordering condition diverged from the "
                        f"specification walk: circuit {g}, walk {w}",
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
        views = engine._register_views(window)
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


def checked_run(engine, checker: InvariantChecker | None = None):
    """Drive *engine* to completion under an invariant checker.

    Convenience for engines built without a ``cycle_hook``: installs
    *checker* (default: a fresh one) and calls ``engine.run()``.
    """
    active = checker if checker is not None else InvariantChecker()
    engine._cycle_hook = active
    return engine.run()
