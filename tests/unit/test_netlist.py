"""Unit tests for the netlist framework and event-driven simulator."""

import gc
import heapq
import random

import pytest

from repro.circuits.comparator import (
    build_constant_match,
    build_equality_comparator,
    constant_match_template,
    equality_template,
)
from repro.circuits.cspp import build_copy_cspp
from repro.circuits.fanout import build_fanout_tree, fanout_template
from repro.circuits.grid import GridNetwork, TreeGridNetwork
from repro.circuits.mux_ring import MuxRing
from repro.circuits.netlist import (
    GateKind,
    Netlist,
    SimulationResult,
    Template,
    bus,
    bus_value,
)
from repro.ultrascalar.scheduler import SchedulerCircuit


class TestConstruction:
    def test_add_input_and_gate(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        out = nl.add_gate(GateKind.AND, a, b)
        assert nl.drivers[out.index] == 0
        assert nl.gate_count == 1
        assert nl.gate_inputs == [(a.index, b.index)]
        assert nl.gate_outputs == [out.index]

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
        nl.rewire(feedback, out)
        assert nl.inputs == [a]
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

    def test_add_gate_rejects_another_netlists_net(self):
        a, b = Netlist("a"), Netlist("b")
        x, y = a.add_input("x"), b.add_input("y")
        with pytest.raises(ValueError, match="not a net of netlist 'b'"):
            b.add_gate(GateKind.AND, x, y)
        assert b.gate_count == 0

    def test_value_of_rejects_another_netlists_net(self):
        a, b = Netlist("a"), Netlist("b")
        x, y = a.add_input("x"), b.add_input("y")
        result = b.simulate({y: True})
        assert result.value_of(y) is True
        with pytest.raises(ValueError, match="not a net of the simulated netlist"):
            result.value_of(x)

    def test_rewire_rejects_a_placeholder_that_is_not_a_primary_input(self):
        nl = Netlist()
        a = nl.add_input("a")
        out = nl.add_gate(GateKind.NOT, a)
        loop = nl.add_gate(GateKind.BUF, out)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.rewire(out, loop)
        nl.rewire(a, loop)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.rewire(a, loop)  # no longer an input once rewired

    def test_rewire_rejects_another_netlists_nets(self):
        nl, other = Netlist("nl"), Netlist("other")
        placeholder = nl.add_input("fb")
        out = nl.add_gate(GateKind.NOT, placeholder)
        foreign = other.add_input("x")
        with pytest.raises(ValueError, match="not a net of netlist 'nl'"):
            nl.rewire(placeholder, foreign)
        with pytest.raises(ValueError, match="not a net of netlist 'nl'"):
            nl.rewire(foreign, out)
        assert nl.gate_inputs == [(placeholder.index,)]


def arrays(netlist):
    return (
        netlist.drivers, netlist.kinds, netlist.gate_inputs, netlist.gate_outputs, netlist.delays
    )


class TestTemplates:
    def test_stamping_adds_the_gates_building_in_place_adds(self):
        built, stamped = Netlist(), Netlist()
        a, b, s = bus(built, "a", 3), bus(built, "b", 3), built.add_input("s")
        outputs = [
            build_equality_comparator(built, a, b),
            build_constant_match(built, a, 5),
            *build_fanout_tree(built, s, 7, radix=3).leaves,
            build_constant_match(built, [s], 0),
        ]
        a, b, s = bus(stamped, "a", 3), bus(stamped, "b", 3), stamped.add_input("s")
        stamps = [
            stamped.stamp(equality_template(3), a + b),
            stamped.stamp(constant_match_template(3, 5), a),
            stamped.stamp(fanout_template(7, radix=3), [s]),
            stamped.stamp(constant_match_template(1, 0), [s]),
        ]
        assert arrays(stamped) == arrays(built)
        assert [net.index for stamp in stamps for net in stamp] == [net.index for net in outputs]
        assert stamped.topological_depth() == built.topological_depth()

    def test_a_one_copy_fanout_returns_its_port(self):
        nl = Netlist()
        source = nl.add_input("s")
        assert nl.stamp(fanout_template(1), [source]) == [source]
        assert nl.gate_count == 0

    def test_stamped_gates_are_owner_checked_and_rewireable(self):
        nl, other = Netlist("nl"), Netlist("other")
        template = fanout_template(4)
        with pytest.raises(ValueError, match="takes 1 ports, got 2"):
            nl.stamp(template, [nl.add_input("x"), nl.add_input("y")])
        with pytest.raises(ValueError, match="not a net of netlist 'nl'"):
            nl.stamp(template, [other.add_input("z")])
        assert nl.gate_count == 0
        enable = nl.add_input("enable")
        placeholder = nl.add_input("fb")
        leaves = nl.stamp(template, [placeholder])
        # a ring oscillator through the stamped tree: fb = NOT(AND(enable, leaf))
        gated = nl.add_gate(GateKind.AND, enable, leaves[0])
        nl.rewire(placeholder, nl.add_gate(GateKind.NOT, gated))
        assert nl.is_cyclic()
        assert nl.simulate({enable: False}).value_of(leaves[3]) is True
        with pytest.raises(RuntimeError, match="did not settle"):
            nl.simulate({enable: True}, max_time=100)

    def test_template_ports_must_be_the_scratch_inputs(self):
        scratch = Netlist()
        a = scratch.add_input("a")
        out = scratch.add_gate(GateKind.AND, a, scratch.constant(True))
        with pytest.raises(ValueError, match="primary inputs"):
            Template(scratch, [a], [out])


class TestNoReferenceCycles:
    def test_dropped_netlists_leave_the_collector_nothing(self):
        """Handles reference no gate, so refcounting frees a dropped
        netlist and its builder."""
        n = 8
        gc.collect()
        gc.disable()
        try:
            grid = TreeGridNetwork(n, n)
            grid.settle_time([(1, True)] * n, [None] * n, [[0, 0]] * n)
            ring = MuxRing(n, 1)
            ring.settle_time([1] * n, [True] + [False] * (n - 1))
            # builders whose sweeps recurse
            tree = build_copy_cspp(n, 1)
            scheduler = SchedulerCircuit(n, 3)
            del grid, ring, tree, scheduler
            assert gc.collect() == 0
        finally:
            gc.enable()


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


KINDS = {kind.code: kind for kind in GateKind}


def reference_simulate(netlist, assignments, max_time=1_000_000):
    """The heap-and-set simulator that ``Netlist.simulate`` replaced,
    kept as the reference its results must match."""
    values = [False] * len(netlist.drivers)
    for value, net in netlist._const_cache.items():
        values[net.index] = value
    for net, value in assignments.items():
        if netlist.drivers[net.index] >= 0:
            raise ValueError(f"{net} is not a primary input")
        values[net.index] = bool(value)
    fanout = [[] for _ in netlist.drivers]
    for gate, ins in enumerate(netlist.gate_inputs):
        for net in ins:
            fanout[net].append(gate)
    queue = []
    queued = set()

    def schedule(time, gate):
        key = (time, gate)
        if key not in queued:
            queued.add(key)
            heapq.heappush(queue, key)

    for gate, delay in enumerate(netlist.delays):
        schedule(delay, gate)
    settle_time = 0
    events = 0
    while queue:
        time = queue[0][0]
        if time > max_time:
            raise RuntimeError(f"netlist {netlist.name!r} did not settle by t={max_time}")
        due = []
        while queue and queue[0][0] == time:
            _, gate = heapq.heappop(queue)
            queued.discard((time, gate))
            due.append(gate)
        updates = []
        for gate in due:
            events += 1
            kind = KINDS[netlist.kinds[gate]]
            new_value = kind.evaluate([values[net] for net in netlist.gate_inputs[gate]])
            if new_value != values[netlist.gate_outputs[gate]]:
                updates.append((gate, new_value))
        for gate, new_value in updates:
            values[netlist.gate_outputs[gate]] = new_value
        if updates:
            settle_time = max(settle_time, time)
            for gate, _ in updates:
                for successor in fanout[netlist.gate_outputs[gate]]:
                    schedule(time + netlist.delays[successor], successor)
    return SimulationResult(
        values=values, settle_time=settle_time, events=events, owner=netlist.id
    )


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
    outputs = [net for net in nets if nl.drivers[net.index] >= 0]
    for placeholder in placeholders:
        nl.rewire(placeholder, rng.choice(outputs))
    return nl


def random_assignment(rng, netlist):
    return {net: rng.random() < 0.5 for net in netlist.inputs if rng.random() < 0.9}


def outcome(simulate, netlist, assignments, max_time):
    """What one simulator makes of a run: its result or its error."""
    try:
        result = simulate(netlist, assignments, max_time=max_time)
    except RuntimeError as error:
        return ("RuntimeError", str(error))
    return (result.settle_time, result.events, result.values)


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
