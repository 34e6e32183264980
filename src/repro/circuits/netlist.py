"""Single-bit gate netlists with an event-driven timing simulator.

The simulator measures *settle time*: inputs are applied at time 0 with
every net initialized to 0, and events propagate until the netlist is
quiescent.  For acyclic circuits the settle time is bounded by the
topological critical path; for cyclic circuits (the mux rings and CSPP
trees of the paper, which tie the top of the tree around) the simulator
reaches the unique fixed point whenever one exists — which the
Ultrascalar constructions guarantee by always having at least one
segment bit set (the oldest station's).

Gate delays default to 1 unit each, so settle times are in "gate delays"
— the unit the paper's complexity results use.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


class GateKind(enum.Enum):
    """Supported gate types (all single output)."""

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    MUX = "mux"  # inputs (sel, a, b): sel ? a : b


_EVAL: dict[GateKind, Callable[[Sequence[bool]], bool]] = {
    GateKind.BUF: lambda ins: ins[0],
    GateKind.NOT: lambda ins: not ins[0],
    GateKind.AND: lambda ins: all(ins),
    GateKind.OR: lambda ins: any(ins),
    GateKind.XOR: lambda ins: sum(ins) % 2 == 1,
    GateKind.XNOR: lambda ins: sum(ins) % 2 == 0,
    GateKind.NAND: lambda ins: not all(ins),
    GateKind.NOR: lambda ins: not any(ins),
    GateKind.MUX: lambda ins: ins[1] if ins[0] else ins[2],
}

#: (min inputs, max inputs, default output-name prefix) per kind, so
#: that ``add_gate`` pays one table lookup
_SPEC: dict[GateKind, tuple[int, int, str]] = {
    GateKind.BUF: (1, 1, "buf"),
    GateKind.NOT: (1, 1, "not"),
    GateKind.AND: (2, 64, "and"),
    GateKind.OR: (2, 64, "or"),
    GateKind.XOR: (2, 64, "xor"),
    GateKind.XNOR: (2, 64, "xnor"),
    GateKind.NAND: (2, 64, "nand"),
    GateKind.NOR: (2, 64, "nor"),
    GateKind.MUX: (3, 3, "mux"),
}


@dataclass(eq=False, slots=True)
class Net:
    """A single-bit wire.  Primary inputs have ``driver is None``."""

    index: int
    name: str
    driver: "Gate | None" = None
    fanout: list["Gate"] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"Net({self.name})"


@dataclass(eq=False, slots=True)
class Gate:
    """A logic gate driving exactly one net."""

    index: int
    kind: GateKind
    inputs: tuple[Net, ...]
    output: Net
    delay: int = 1

    def evaluate(self, values: Sequence[bool]) -> bool:
        """Compute the output for the given ordered input values."""
        return _EVAL[self.kind](values)

    def __repr__(self) -> str:
        return f"Gate({self.kind.value}->{self.output.name})"


@dataclass
class SimulationResult:
    """Outcome of an event-driven simulation run."""

    #: final value of every net, keyed by net
    values: dict[Net, bool]
    #: time at which the last net changed value (0 if nothing toggled)
    settle_time: int
    #: number of gate evaluation events processed
    events: int

    def value_of(self, net: Net) -> bool:
        """Final value of *net*."""
        return self.values[net]


class Netlist:
    """A mutable netlist: create inputs, add gates, then simulate.

    The netlist may be cyclic; :meth:`simulate` runs to a fixed point.
    :meth:`topological_depth` is only available for acyclic netlists.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.nets: list[Net] = []
        self.gates: list[Gate] = []
        self.inputs: list[Net] = []
        self.outputs: dict[str, Net] = {}
        self._const_cache: dict[bool, Net] = {}

    # -- construction -------------------------------------------------

    def add_input(self, name: str) -> Net:
        """Create a primary-input net."""
        net = Net(index=len(self.nets), name=name)
        self.nets.append(net)
        self.inputs.append(net)
        return net

    def add_gate(self, kind: GateKind, *inputs: Net, name: str | None = None, delay: int = 1) -> Net:
        """Add a gate; returns its output net."""
        lo, hi, prefix = _SPEC[kind]
        if not lo <= len(inputs) <= hi:
            raise ValueError(f"{prefix} gate takes {lo}..{hi} inputs, got {len(inputs)}")
        if delay < 0:
            raise ValueError("gate delay must be non-negative")
        nets, gates = self.nets, self.gates
        out = Net(len(nets), name or f"{prefix}{len(gates)}")
        nets.append(out)
        gate = Gate(len(gates), kind, inputs, out, delay)
        out.driver = gate
        gates.append(gate)
        for net in inputs:
            net.fanout.append(gate)
        return out

    def constant(self, value: bool) -> Net:
        """A net tied to a constant (modelled as an input the simulator pins)."""
        if value not in self._const_cache:
            self._const_cache[value] = self.add_input(f"const_{int(value)}")
        return self._const_cache[value]

    def mark_output(self, name: str, net: Net) -> Net:
        """Give *net* an externally-visible output name."""
        self.outputs[name] = net
        return net

    # -- convenience builders -----------------------------------------

    def mux(self, sel: Net, a: Net, b: Net, name: str | None = None) -> Net:
        """``sel ? a : b`` as a single MUX gate."""
        return self.add_gate(GateKind.MUX, sel, a, b, name=name)

    def reduce_tree(self, kind: GateKind, nets: Sequence[Net], name: str | None = None) -> Net:
        """Balanced binary reduction tree of *kind* gates over *nets*."""
        if not nets:
            raise ValueError("cannot reduce zero nets")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.add_gate(kind, level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        if name and level[0].driver is not None:
            level[0].name = name
        return level[0]

    # -- analysis ------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Total number of gates."""
        return len(self.gates)

    def is_cyclic(self) -> bool:
        """True if the gate graph contains a cycle."""
        try:
            self._topo_order()
            return False
        except ValueError:
            return True

    def _topo_order(self) -> list[Gate]:
        indegree: dict[Gate, int] = {}
        for gate in self.gates:
            indegree[gate] = sum(1 for net in gate.inputs if net.driver is not None)
        ready = [gate for gate, deg in indegree.items() if deg == 0]
        order: list[Gate] = []
        while ready:
            gate = ready.pop()
            order.append(gate)
            for successor in gate.output.fanout:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.gates):
            raise ValueError("netlist is cyclic")
        return order

    def topological_depth(self) -> int:
        """Critical-path length in gate delays (acyclic netlists only)."""
        depth: dict[Net, int] = {net: 0 for net in self.inputs}
        for gate in self._topo_order():
            depth[gate.output] = gate.delay + max(
                (depth.get(net, 0) for net in gate.inputs), default=0
            )
        return max(depth.values(), default=0)

    # -- simulation ----------------------------------------------------

    def simulate(
        self,
        assignments: dict[Net, bool],
        max_time: int = 1_000_000,
    ) -> SimulationResult:
        """Event-driven simulation from an all-zeros initial state.

        *assignments* gives the value of every primary input (missing
        inputs default to 0; constants are pinned automatically).  Raises
        ``RuntimeError`` if the netlist has not settled by *max_time*
        (an oscillating cycle).
        """
        nets = self.nets
        values: list[bool] = [False] * len(nets)
        for value, net in self._const_cache.items():
            values[net.index] = value
        for net, value in assignments.items():
            index = net.index
            if net.driver is not None:
                raise ValueError(f"{net} is not a primary input")
            if index >= len(nets) or nets[index] is not net:
                raise ValueError(f"{net} is not a net of netlist {self.name!r}")
            values[index] = bool(value)

        # Schedule every gate once at its delay; thereafter only on input
        # changes.  Evaluation is two-phase per timestamp: all gates due at
        # time t read the pre-t values, then all output changes commit
        # together — so a chain of unit-delay gates takes one time unit per
        # stage, as real hardware timing requires.
        #
        # Net values live in a list indexed by ``Net.index``; ``buckets``
        # holds the gates due at each time and ``times`` the distinct
        # pending times.  A gate is only ever scheduled at non-decreasing
        # times (now plus its fixed delay), so ``queued_at`` — the latest
        # time each gate is queued for — keeps it out of a bucket twice.
        # Gate wiring is read from the live objects, not compiled: builders
        # such as MuxRing rewire ``gate.inputs`` after construction, and
        # most gates are evaluated only once or twice per simulation.
        gates = self.gates
        queued_at = [gate.delay for gate in gates]
        buckets: dict[int, list[Gate]] = {}
        for gate in gates:
            bucket = buckets.get(gate.delay)
            if bucket is None:
                buckets[gate.delay] = [gate]
            else:
                bucket.append(gate)
        times = list(buckets)
        heapq.heapify(times)

        buf, inv, mux, evaluate = GateKind.BUF, GateKind.NOT, GateKind.MUX, _EVAL
        heappop, heappush = heapq.heappop, heapq.heappush
        settle_time = 0
        events = 0
        while times:
            time = heappop(times)
            if time > max_time:
                raise RuntimeError(f"netlist {self.name!r} did not settle by t={max_time}")
            due = buckets.pop(time)
            events += len(due)
            changed: list[Gate] = []
            new_values: list[bool] = []
            for gate in due:
                # unmark, so a zero-delay gate can be queued again at this
                # time; a mark for a later time stays
                if queued_at[gate.index] == time:
                    queued_at[gate.index] = -1
                kind = gate.kind
                ins = gate.inputs
                if kind is buf:
                    new_value = values[ins[0].index]
                elif kind is mux:
                    sel, a, b = ins
                    new_value = values[a.index] if values[sel.index] else values[b.index]
                elif kind is inv:
                    new_value = not values[ins[0].index]
                else:
                    new_value = evaluate[kind]([values[net.index] for net in ins])
                if new_value != values[gate.output.index]:
                    changed.append(gate)
                    new_values.append(new_value)
            if not changed:
                continue
            settle_time = time
            for gate, new_value in zip(changed, new_values):
                values[gate.output.index] = new_value
            for gate in changed:
                for successor in gate.output.fanout:
                    at = time + successor.delay
                    if queued_at[successor.index] != at:
                        queued_at[successor.index] = at
                        bucket = buckets.get(at)
                        if bucket is None:
                            buckets[at] = [successor]
                            heappush(times, at)
                        else:
                            bucket.append(successor)

        return SimulationResult(
            values=dict(zip(nets, values)), settle_time=settle_time, events=events
        )

    def simulate_words(
        self, assignments: dict[str, int], widths: dict[str, int] | None = None
    ) -> SimulationResult:
        """Convenience wrapper: assign multi-bit buses by input-name prefix.

        Inputs named ``foo[k]`` are treated as bit *k* of bus ``foo``.
        """
        by_bus: dict[str, dict[int, Net]] = {}
        for net in self.inputs:
            if "[" in net.name and net.name.endswith("]"):
                bus, _, rest = net.name.partition("[")
                by_bus.setdefault(bus, {})[int(rest[:-1])] = net
        flat: dict[Net, bool] = {}
        for bus, value in assignments.items():
            if bus not in by_bus:
                raise KeyError(f"no bus named {bus!r}")
            for bit, net in by_bus[bus].items():
                flat[net] = bool((value >> bit) & 1)
        return self.simulate(flat)


def bus(netlist: Netlist, name: str, width: int) -> list[Net]:
    """Create a *width*-bit primary-input bus named ``name[i]``."""
    return [netlist.add_input(f"{name}[{i}]") for i in range(width)]


def bus_value(result: SimulationResult, nets: Iterable[Net]) -> int:
    """Read an integer off an ordered little-endian list of nets."""
    value = 0
    for bit, net in enumerate(nets):
        if result.value_of(net):
            value |= 1 << bit
    return value
