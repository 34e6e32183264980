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

A netlist is a set of flat arrays indexed by gate and by net, not a
graph of objects: per gate a kind code, a tuple of input-net indices, an
output-net index and a delay; per net the index of its driving gate.  A
:class:`Net` is a two-integer handle (owning netlist id, net index) that
references no gate, so a dropped netlist is freed by reference counting
and leaves the cyclic garbage collector nothing to do.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class GateKind(enum.Enum):
    """Supported gate types (all single output).

    Each value is (kind code, min inputs, max inputs); netlists store the
    code, which also indexes ``_KINDS``.
    """

    BUF = (0, 1, 1)
    NOT = (1, 1, 1)
    AND = (2, 2, 64)
    OR = (3, 2, 64)
    XOR = (4, 2, 64)
    XNOR = (5, 2, 64)
    NAND = (6, 2, 64)
    NOR = (7, 2, 64)
    MUX = (8, 3, 3)  # inputs (sel, a, b): sel ? a : b

    def __init__(self, code: int, min_inputs: int, max_inputs: int):
        # plain attributes: ``add_gate`` reads them without the enum's
        # Python-level ``value`` property or ``__hash__``
        self.code = code
        self.min_inputs = min_inputs
        self.max_inputs = max_inputs

    def evaluate(self, values: Sequence[bool]) -> bool:
        """Compute the output for the given ordered input values."""
        return _EVAL[self.code](values)


#: gate kinds by kind code
_KINDS: tuple[GateKind, ...] = tuple(GateKind)

#: evaluation function per kind code
_EVAL: tuple[Callable[[Sequence[bool]], bool], ...] = (
    lambda ins: ins[0],
    lambda ins: not ins[0],
    lambda ins: all(ins),
    lambda ins: any(ins),
    lambda ins: sum(ins) % 2 == 1,
    lambda ins: sum(ins) % 2 == 0,
    lambda ins: not all(ins),
    lambda ins: not any(ins),
    lambda ins: ins[1] if ins[0] else ins[2],
)

_BUF, _NOT, _MUX = GateKind.BUF.code, GateKind.NOT.code, GateKind.MUX.code

#: a fresh id per netlist, never reused, so a handle outliving its
#: netlist cannot pass for a net of a later one
_netlist_ids = itertools.count()


class Net:
    """A single-bit wire: net *index* of the netlist whose id is *owner*.

    Handles compare by value; they hold no reference to a gate or a
    netlist.
    """

    __slots__ = ("owner", "index")

    def __init__(self, owner: int, index: int):
        self.owner = owner
        self.index = index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Net):
            return NotImplemented
        return self.index == other.index and self.owner == other.owner

    def __hash__(self) -> int:
        return hash((self.owner, self.index))

    def __repr__(self) -> str:
        return f"Net({self.index}@{self.owner})"


@dataclass
class SimulationResult:
    """Outcome of an event-driven simulation run."""

    #: final value of every net, by net index
    values: list[bool]
    #: time at which the last net changed value (0 if nothing toggled)
    settle_time: int
    #: number of gate evaluation events processed
    events: int
    #: id of the simulated netlist
    owner: int

    def value_of(self, net: Net) -> bool:
        """Final value of *net*, which must belong to the simulated netlist."""
        if net.owner != self.owner:
            raise ValueError(f"{net!r} is not a net of the simulated netlist")
        return self.values[net.index]


class Template:
    """A block of gates built once, then stamped into netlists many times.

    Build the block in a scratch netlist whose primary inputs are exactly
    *ports*, then :meth:`Netlist.stamp` appends copies of its gates with
    their net indices offset: no per-gate checks and no handles but the
    outputs'.  Gate names are not carried over.
    """

    __slots__ = ("ports", "kinds", "delays", "refs", "runs", "outputs")

    def __init__(self, scratch: Netlist, ports: Sequence[Net], outputs: Sequence[Net]):
        drivers = scratch.drivers
        port_of = {scratch._index(net): k for k, net in enumerate(ports)}
        if len(port_of) != len(ports) or set(port_of) != {
            net for net, driver in enumerate(drivers) if driver < 0
        }:
            raise ValueError("template ports must be the scratch netlist's primary inputs")

        def slot(net: int) -> int:
            # a stamp's net table holds the ports, then one net per gate
            driver = drivers[net]
            return port_of[net] if driver < 0 else len(ports) + driver

        self.ports = len(ports)
        self.kinds = tuple(scratch.kinds)
        self.delays = tuple(scratch.delays)
        #: every gate's inputs in gate order, as positions in a stamp's net table
        self.refs = tuple(slot(net) for ins in scratch.gate_inputs for net in ins)
        #: (gate count, inputs per gate) for each run of gates of one arity
        self.runs = tuple(
            (len(list(group)), arity)
            for arity, group in itertools.groupby(len(ins) for ins in scratch.gate_inputs)
        )
        self.outputs = tuple(slot(scratch._index(net)) for net in outputs)


class Netlist:
    """A mutable netlist: create inputs, add gates, then simulate.

    The netlist may be cyclic; :meth:`simulate` runs to a fixed point.
    :meth:`topological_depth` is only available for acyclic netlists.

    The per-gate arrays ``kinds``, ``gate_inputs``, ``gate_outputs`` and
    ``delays`` and the per-net array ``drivers`` (driving gate index, -1
    for a primary input) are public for reading; change them only
    through the methods.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.id = next(_netlist_ids)
        self.inputs: list[Net] = []
        self.outputs: dict[str, Net] = {}
        self.drivers: list[int] = []
        self.kinds: list[int] = []
        self.gate_inputs: list[tuple[int, ...]] = []
        self.gate_outputs: list[int] = []
        self.delays: list[int] = []
        #: names given by callers, by net index
        self._names: dict[int, str] = {}
        self._const_cache: dict[bool, Net] = {}

    def _index(self, net: Net) -> int:
        """Index of *net*, which must belong to this netlist."""
        if net.owner != self.id:
            raise ValueError(f"{net!r} is not a net of netlist {self.name!r}")
        return net.index

    # -- construction -------------------------------------------------

    def add_input(self, name: str) -> Net:
        """Create a primary-input net."""
        index = len(self.drivers)
        self.drivers.append(-1)
        self._names[index] = name
        net = Net(self.id, index)
        self.inputs.append(net)
        return net

    def add_gate(self, kind: GateKind, *inputs: Net, name: str | None = None, delay: int = 1) -> Net:
        """Add a gate; returns its output net."""
        if not kind.min_inputs <= len(inputs) <= kind.max_inputs:
            raise ValueError(
                f"{kind.name.lower()} gate takes {kind.min_inputs}..{kind.max_inputs}"
                f" inputs, got {len(inputs)}"
            )
        if delay < 0:
            raise ValueError("gate delay must be non-negative")
        owner = self.id
        for net in inputs:
            if net.owner != owner:
                raise ValueError(f"{net!r} is not a net of netlist {self.name!r}")
        drivers = self.drivers
        index = len(drivers)
        drivers.append(len(self.kinds))
        self.kinds.append(kind.code)
        self.gate_inputs.append(tuple([net.index for net in inputs]))
        self.gate_outputs.append(index)
        self.delays.append(delay)
        if name is not None:
            self._names[index] = name
        return Net(owner, index)

    def constant(self, value: bool) -> Net:
        """A net tied to a constant (modelled as an input the simulator pins)."""
        if value not in self._const_cache:
            self._const_cache[value] = self.add_input(f"const_{int(value)}")
        return self._const_cache[value]

    def mark_output(self, name: str, net: Net) -> Net:
        """Give *net* an externally-visible output name."""
        self._index(net)
        self.outputs[name] = net
        return net

    def stamp(self, template: Template, ports: Sequence[Net]) -> list[Net]:
        """Append a copy of *template* reading *ports*; returns its output nets.

        The copy's gates are ordinary gates of this netlist, in the order
        the template's builder added them.
        """
        if len(ports) != template.ports:
            raise ValueError(f"template takes {template.ports} ports, got {len(ports)}")
        table = [self._index(net) for net in ports]
        first_net, first_gate = len(self.drivers), len(self.kinds)
        count = len(template.kinds)
        table.extend(range(first_net, first_net + count))
        self.drivers.extend(range(first_gate, first_gate + count))
        self.kinds.extend(template.kinds)
        # regroup the mapped inputs into one tuple per gate, a run at a time
        mapped = map(table.__getitem__, template.refs)
        for gates, arity in template.runs:
            self.gate_inputs.extend(itertools.islice(zip(*[mapped] * arity), gates))
        self.gate_outputs.extend(range(first_net, first_net + count))
        self.delays.extend(template.delays)
        owner = self.id
        return [Net(owner, table[slot]) for slot in template.outputs]

    def rewire(self, placeholder: Net, source: Net) -> None:
        """Make every gate reading primary input *placeholder* read *source*.

        Closes feedback loops: a gate needs its inputs when it is added,
        so a cyclic circuit reads a placeholder input first and is rewired
        once the loop's source exists.  The placeholder stops being an
        input.
        """
        old, new = self._index(placeholder), self._index(source)
        if self.drivers[old] >= 0 or placeholder not in self.inputs:
            raise ValueError(f"net {self.name_of(placeholder)!r} is not a primary input")
        gate_inputs = self.gate_inputs
        # only gates added after the placeholder can read it
        for gate in range(bisect_left(self.gate_outputs, old), len(gate_inputs)):
            ins = gate_inputs[gate]
            if old in ins:
                gate_inputs[gate] = tuple([new if net == old else net for net in ins])
        self.inputs.remove(placeholder)

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
        if name and self.drivers[self._index(level[0])] >= 0:
            self._names[level[0].index] = name
        return level[0]

    # -- analysis ------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Total number of gates."""
        return len(self.kinds)

    def name_of(self, net: Net) -> str:
        """The name a caller gave *net*, else ``<kind><gate index>``."""
        index = self._index(net)
        name = self._names.get(index)
        if name is None:
            gate = self.drivers[index]
            name = f"{_KINDS[self.kinds[gate]].name.lower()}{gate}"
        return name

    def _fanout(self) -> list[list[int]]:
        """Per net, the gates reading it (once per input read)."""
        fanout: list[list[int]] = [[] for _ in self.drivers]
        for gate, ins in enumerate(self.gate_inputs):
            for net in ins:
                fanout[net].append(gate)
        return fanout

    def is_cyclic(self) -> bool:
        """True if the gate graph contains a cycle."""
        try:
            self._topo_order()
            return False
        except ValueError:
            return True

    def _topo_order(self) -> list[int]:
        drivers, gate_outputs = self.drivers, self.gate_outputs
        indegree = [sum(1 for net in ins if drivers[net] >= 0) for ins in self.gate_inputs]
        fanout = self._fanout()
        ready = [gate for gate, degree in enumerate(indegree) if degree == 0]
        order: list[int] = []
        while ready:
            gate = ready.pop()
            order.append(gate)
            for successor in fanout[gate_outputs[gate]]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(indegree):
            raise ValueError("netlist is cyclic")
        return order

    def topological_depth(self) -> int:
        """Critical-path length in gate delays (acyclic netlists only)."""
        depth = [0] * len(self.drivers)
        gate_inputs, gate_outputs, delays = self.gate_inputs, self.gate_outputs, self.delays
        for gate in self._topo_order():
            depth[gate_outputs[gate]] = delays[gate] + max(
                (depth[net] for net in gate_inputs[gate]), default=0
            )
        return max(depth, default=0)

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
        drivers = self.drivers
        values: list[bool] = [False] * len(drivers)
        for value, net in self._const_cache.items():
            values[net.index] = value
        for net, value in assignments.items():
            index = self._index(net)
            if drivers[index] >= 0:
                raise ValueError(f"net {self.name_of(net)!r} is not a primary input")
            values[index] = bool(value)

        # Schedule every gate once at its delay; thereafter only on input
        # changes.  Evaluation is two-phase per timestamp: all gates due at
        # time t read the pre-t values, then all output changes commit
        # together — so a chain of unit-delay gates takes one time unit per
        # stage, as real hardware timing requires.
        #
        # ``buckets`` holds the gates due at each time and ``times`` the
        # distinct pending times.  A gate is only ever scheduled at
        # non-decreasing times (now plus its fixed delay), so ``queued_at``
        # — the latest time each gate is queued for — keeps it out of a
        # bucket twice.
        kinds, gate_inputs, gate_outputs, delays = (
            self.kinds, self.gate_inputs, self.gate_outputs, self.delays
        )
        fanout = self._fanout()
        queued_at = list(delays)
        buckets: dict[int, list[int]] = {}
        for gate, delay in enumerate(delays):
            bucket = buckets.get(delay)
            if bucket is None:
                buckets[delay] = [gate]
            else:
                bucket.append(gate)
        times = list(buckets)
        heapq.heapify(times)

        buf, inv, mux, evaluate = _BUF, _NOT, _MUX, _EVAL
        heappop, heappush = heapq.heappop, heapq.heappush
        settle_time = 0
        events = 0
        while times:
            time = heappop(times)
            if time > max_time:
                raise RuntimeError(f"netlist {self.name!r} did not settle by t={max_time}")
            due = buckets.pop(time)
            events += len(due)
            changed: list[int] = []
            new_values: list[bool] = []
            for gate in due:
                # unmark, so a zero-delay gate can be queued again at this
                # time; a mark for a later time stays
                if queued_at[gate] == time:
                    queued_at[gate] = -1
                kind = kinds[gate]
                ins = gate_inputs[gate]
                if kind == buf:
                    new_value = values[ins[0]]
                elif kind == mux:
                    sel, a, b = ins
                    new_value = values[a] if values[sel] else values[b]
                elif kind == inv:
                    new_value = not values[ins[0]]
                else:
                    new_value = evaluate[kind]([values[net] for net in ins])
                if new_value != values[gate_outputs[gate]]:
                    changed.append(gate)
                    new_values.append(new_value)
            if not changed:
                continue
            settle_time = time
            for gate, new_value in zip(changed, new_values):
                values[gate_outputs[gate]] = new_value
            for gate in changed:
                for successor in fanout[gate_outputs[gate]]:
                    at = time + delays[successor]
                    if queued_at[successor] != at:
                        queued_at[successor] = at
                        bucket = buckets.get(at)
                        if bucket is None:
                            buckets[at] = [successor]
                            heappush(times, at)
                        else:
                            bucket.append(successor)

        return SimulationResult(
            values=values, settle_time=settle_time, events=events, owner=self.id
        )

    def simulate_words(
        self, assignments: dict[str, int], widths: dict[str, int] | None = None
    ) -> SimulationResult:
        """Convenience wrapper: assign multi-bit buses by input-name prefix.

        Inputs named ``foo[k]`` are treated as bit *k* of bus ``foo``.
        """
        by_bus: dict[str, dict[int, Net]] = {}
        for net in self.inputs:
            name = self._names[net.index]
            if "[" in name and name.endswith("]"):
                bus, _, rest = name.partition("[")
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
