"""Unit tests for the netlist framework and event-driven simulator."""

import heapq
import random

import pytest

from repro.circuits.cspp import build_copy_cspp
from repro.circuits.grid import GridNetwork, TreeGridNetwork
from repro.circuits.mux_ring import MuxRing
from repro.circuits.netlist import GateKind, Netlist, SimulationResult, bus, bus_value


class TestConstruction:
    def test_add_input_and_gate(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        out = nl.add_gate(GateKind.AND, a, b)
        assert out.driver is not None
        assert nl.gate_count == 1
        assert a.fanout == [out.driver]

    def test_arity_enforced(self):
        nl = Netlist()
        a = nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate(GateKind.NOT, a, a)
        with pytest.raises(ValueError):
            nl.add_gate(GateKind.MUX, a, a)

    def test_constants_are_cached(self):
        nl = Netlist()
        assert nl.constant(True) is nl.constant(True)
        assert nl.constant(True) is not nl.constant(False)

    def test_reduce_tree_depth_is_logarithmic(self):
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(64)]
        nl.reduce_tree(GateKind.AND, nets)
        assert nl.topological_depth() == 6

    def test_reduce_tree_rejects_empty(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            nl.reduce_tree(GateKind.AND, [])


class TestGateSemantics:
    @pytest.mark.parametrize(
        "kind,inputs,expected",
        [
            (GateKind.AND, (1, 1), 1),
            (GateKind.AND, (1, 0), 0),
            (GateKind.OR, (0, 0), 0),
            (GateKind.OR, (0, 1), 1),
            (GateKind.XOR, (1, 1), 0),
            (GateKind.XOR, (1, 0), 1),
            (GateKind.XNOR, (1, 1), 1),
            (GateKind.NAND, (1, 1), 0),
            (GateKind.NOR, (0, 0), 1),
        ],
    )
    def test_two_input_gates(self, kind, inputs, expected):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        out = nl.add_gate(kind, a, b)
        result = nl.simulate({a: bool(inputs[0]), b: bool(inputs[1])})
        assert result.value_of(out) == bool(expected)

    def test_not_and_buf(self):
        nl = Netlist()
        a = nl.add_input("a")
        inv = nl.add_gate(GateKind.NOT, a)
        buf = nl.add_gate(GateKind.BUF, a)
        result = nl.simulate({a: True})
        assert result.value_of(inv) is False
        assert result.value_of(buf) is True

    @pytest.mark.parametrize("sel,a,b,expected", [(1, 1, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)])
    def test_mux(self, sel, a, b, expected):
        nl = Netlist()
        s, x, y = nl.add_input("s"), nl.add_input("x"), nl.add_input("y")
        out = nl.mux(s, x, y)
        result = nl.simulate({s: bool(sel), x: bool(a), y: bool(b)})
        assert result.value_of(out) == bool(expected)

    def test_wide_and(self):
        nl = Netlist()
        ins = [nl.add_input(f"i{k}") for k in range(5)]
        out = nl.add_gate(GateKind.AND, *ins)
        assert nl.simulate({net: True for net in ins}).value_of(out) is True
        assignment = {net: True for net in ins}
        assignment[ins[3]] = False
        assert nl.simulate(assignment).value_of(out) is False


class TestTiming:
    def test_chain_settle_time_is_linear(self):
        nl = Netlist()
        net = nl.add_input("a")
        for _ in range(10):
            net = nl.add_gate(GateKind.BUF, net)
        result = nl.simulate({nl.inputs[0]: True})
        assert result.settle_time == 10

    def test_tree_settle_time_is_logarithmic(self):
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(32)]
        nl.reduce_tree(GateKind.OR, nets)
        result = nl.simulate({nets[5]: True})
        assert result.settle_time == 5

    def test_custom_gate_delay(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_gate(GateKind.BUF, a, delay=7)
        result = nl.simulate({a: True})
        assert result.settle_time == 7

    def test_no_toggles_settles_at_zero(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_gate(GateKind.BUF, a)
        assert nl.simulate({a: False}).settle_time == 0

    def test_oscillator_detected(self):
        nl = Netlist()
        a = nl.add_input("enable")
        # ring oscillator: out = NOT(AND(enable, out))
        feedback = nl.add_input("fb_placeholder")
        inner = nl.add_gate(GateKind.AND, a, feedback)
        out = nl.add_gate(GateKind.NOT, inner)
        # close the loop manually
        gate = inner.driver
        gate.inputs = (a, out)
        out.fanout.append(gate)
        feedback.fanout.clear()
        nl.inputs.remove(feedback)
        with pytest.raises(RuntimeError, match="did not settle"):
            nl.simulate({a: True}, max_time=100)


class TestTopology:
    def test_acyclic_depth(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        x = nl.add_gate(GateKind.AND, a, b)
        y = nl.add_gate(GateKind.OR, x, b)
        nl.add_gate(GateKind.NOT, y)
        assert nl.topological_depth() == 3
        assert not nl.is_cyclic()

    def test_cyclic_detection(self):
        from repro.circuits.mux_ring import MuxRing

        ring = MuxRing(4, 1)
        assert ring.netlist.is_cyclic()
        with pytest.raises(ValueError, match="cyclic"):
            ring.netlist.topological_depth()

    def test_simulate_rejects_driving_internal_net(self):
        nl = Netlist()
        a = nl.add_input("a")
        out = nl.add_gate(GateKind.BUF, a)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.simulate({out: True})

    def test_simulate_rejects_another_netlists_input(self):
        nl, other = Netlist(), Netlist()
        nl.add_gate(GateKind.BUF, nl.add_input("a"))
        foreign = other.add_input("b")
        with pytest.raises(ValueError, match="not a net of netlist"):
            nl.simulate({foreign: True})


class TestBusHelpers:
    def test_bus_and_bus_value(self):
        nl = Netlist()
        nets = bus(nl, "data", 8)
        outs = [nl.add_gate(GateKind.BUF, net) for net in nets]
        result = nl.simulate({nets[i]: bool((0xA5 >> i) & 1) for i in range(8)})
        assert bus_value(result, outs) == 0xA5

    def test_simulate_words(self):
        nl = Netlist()
        nets = bus(nl, "data", 4)
        outs = [nl.add_gate(GateKind.NOT, net) for net in nets]
        result = nl.simulate_words({"data": 0b0101})
        assert bus_value(result, outs) == 0b1010

    def test_simulate_words_unknown_bus(self):
        nl = Netlist()
        bus(nl, "data", 2)
        with pytest.raises(KeyError):
            nl.simulate_words({"nope": 1})


def reference_simulate(netlist, assignments, max_time=1_000_000):
    """The heap-and-set simulator that ``Netlist.simulate`` replaced,
    kept as the reference its results must match."""
    values = {net: False for net in netlist.nets}
    for value, net in netlist._const_cache.items():
        values[net] = value
    for net, value in assignments.items():
        if net.driver is not None:
            raise ValueError(f"{net} is not a primary input")
        values[net] = bool(value)
    queue = []
    queued = set()

    def schedule(time, gate):
        key = (time, gate.index)
        if key not in queued:
            queued.add(key)
            heapq.heappush(queue, key)

    for gate in netlist.gates:
        schedule(gate.delay, gate)
    settle_time = 0
    events = 0
    while queue:
        time = queue[0][0]
        if time > max_time:
            raise RuntimeError(f"netlist {netlist.name!r} did not settle by t={max_time}")
        due = []
        while queue and queue[0][0] == time:
            _, gate_index = heapq.heappop(queue)
            queued.discard((time, gate_index))
            due.append(netlist.gates[gate_index])
        updates = []
        for gate in due:
            events += 1
            new_value = gate.evaluate([values[net] for net in gate.inputs])
            if new_value != values[gate.output]:
                updates.append((gate, new_value))
        for gate, new_value in updates:
            values[gate.output] = new_value
        if updates:
            settle_time = max(settle_time, time)
            for gate, _ in updates:
                for successor in gate.output.fanout:
                    schedule(time + successor.delay, successor)
    return SimulationResult(values=values, settle_time=settle_time, events=events)


def random_netlist(rng, cyclic):
    """Random gates of every kind with delays 0-3 over a few inputs.

    A cyclic netlist gets feedback wires like MuxRing's: placeholder
    inputs rewired to later gates' outputs.  Only gates with a nonzero
    delay read feedback, so every cycle advances time and the simulation
    either settles or trips ``max_time``.
    """
    nl = Netlist("random")
    nets = [nl.add_input(f"i{k}") for k in range(rng.randint(2, 6))]
    if rng.random() < 0.5:
        nets.append(nl.constant(rng.random() < 0.5))
    placeholders = [nl.add_input(f"fb{k}") for k in range(rng.randint(1, 4))] if cyclic else []
    kinds = list(GateKind)
    for _ in range(rng.randint(4, 40)):
        kind = rng.choice(kinds)
        if kind in (GateKind.BUF, GateKind.NOT):
            arity = 1
        elif kind is GateKind.MUX:
            arity = 3
        else:
            arity = rng.randint(2, 4)
        delay = rng.randint(0, 3)
        pool = nets + placeholders if delay else nets
        nets.append(nl.add_gate(kind, *rng.choices(pool, k=arity), delay=delay))
    outputs = [net for net in nets if net.driver is not None]
    for placeholder in placeholders:
        source = rng.choice(outputs)
        for gate in placeholder.fanout:
            gate.inputs = tuple(source if net is placeholder else net for net in gate.inputs)
            source.fanout.append(gate)
        placeholder.fanout.clear()
        nl.inputs.remove(placeholder)
    return nl


def random_assignment(rng, netlist):
    return {net: rng.random() < 0.5 for net in netlist.inputs if rng.random() < 0.9}


def outcome(simulate, netlist, assignments, max_time):
    """What one simulator makes of a run: its result or its error."""
    try:
        result = simulate(netlist, assignments, max_time=max_time)
    except RuntimeError as error:
        return ("RuntimeError", str(error))
    return (result.settle_time, result.events, list(result.values.items()))


class TestAgainstReference:
    """The flat-array simulator matches the heap-and-set reference on
    settle time, event count, every net value and oscillation."""

    @pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "cyclic"])
    def test_random_netlists(self, cyclic):
        rng = random.Random(2024 + cyclic)
        oscillations = 0
        for _ in range(300):
            nl = random_netlist(rng, cyclic)
            assignments = random_assignment(rng, nl)
            expected = outcome(reference_simulate, nl, assignments, 64)
            assert outcome(Netlist.simulate, nl, assignments, 64) == expected
            oscillations += expected[0] == "RuntimeError"
        # cyclic cases both settle and oscillate; acyclic ones always settle
        assert (0 < oscillations < 300) if cyclic else oscillations == 0

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: MuxRing(n, 1),
            lambda n: build_copy_cspp(n, 1),
            lambda n: GridNetwork(n, n),
            lambda n: TreeGridNetwork(n, n),
        ],
        ids=["mux_ring", "copy_cspp", "grid", "tree_grid"],
    )
    def test_paper_circuits(self, build, n):
        nl = build(n).netlist
        rng = random.Random(n)
        for _ in range(3):
            assignments = random_assignment(rng, nl)
            expected = outcome(reference_simulate, nl, assignments, 10_000)
            assert outcome(Netlist.simulate, nl, assignments, 10_000) == expected
