"""Register-number equality comparators (the paper's Figure 7/8 crosspoints).

Each Ultrascalar II crosspoint compares a column's requested register
number with a row's written register number.  The comparator is built
from per-bit XNORs followed by an AND reduction tree, giving gate depth
``1 + ceil(log2(bits))`` — the paper's "additional O(log log L) gate
delay" for ``bits = ceil(log2 L)``.
"""

from __future__ import annotations

from repro.circuits.netlist import GateKind, Net, Netlist, Template, bus


def register_number_bits(num_registers: int) -> int:
    """Bits needed to name one of *num_registers* registers (min 1)."""
    if num_registers < 1:
        raise ValueError("need at least one register")
    return max(1, (num_registers - 1).bit_length())


def build_equality_comparator(netlist: Netlist, a: list[Net], b: list[Net]) -> Net:
    """Build ``a == b`` over two equal-width buses; returns the match net."""
    if len(a) != len(b):
        raise ValueError("bus widths differ")
    if not a:
        raise ValueError("cannot compare zero-width buses")
    bits = [netlist.add_gate(GateKind.XNOR, ai, bi) for ai, bi in zip(a, b)]
    if len(bits) == 1:
        return bits[0]
    return netlist.reduce_tree(GateKind.AND, bits)


def build_constant_match(netlist: Netlist, a: list[Net], constant: int) -> Net:
    """Build ``a == constant`` (used by the register-file rows, whose numbers are fixed)."""
    if not a:
        raise ValueError("cannot compare zero-width buses")
    bits = []
    for i, net in enumerate(a):
        if (constant >> i) & 1:
            bits.append(netlist.add_gate(GateKind.BUF, net))
        else:
            bits.append(netlist.add_gate(GateKind.NOT, net))
    if len(bits) == 1:
        return bits[0]
    return netlist.reduce_tree(GateKind.AND, bits)


def equality_template(width: int) -> Template:
    """:func:`build_equality_comparator` as a template: ports ``a + b``, output the match."""
    scratch = Netlist("equal")
    a, b = bus(scratch, "a", width), bus(scratch, "b", width)
    return Template(scratch, a + b, [build_equality_comparator(scratch, a, b)])


def constant_match_template(width: int, constant: int) -> Template:
    """:func:`build_constant_match` as a template: ports ``a``, output the match."""
    scratch = Netlist("match")
    a = bus(scratch, "a", width)
    return Template(scratch, a, [build_constant_match(scratch, a, constant)])
