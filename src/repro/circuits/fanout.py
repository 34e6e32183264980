"""Buffer fan-out trees (the F nodes of the paper's Figure 8).

The Ultrascalar II avoids broadcasting register numbers and bindings
along Θ(n + L) wires by fanning them out "through a tree of buffers
(i.e., one-input gates that compute the identity)", reducing the fan-out
gate delay from Θ(n + L) to Θ(log(n + L)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import GateKind, Net, Netlist, Template


@dataclass(frozen=True)
class FanoutTree:
    """A constructed fan-out tree: one source, ``copies`` buffered leaf nets."""

    source: Net
    leaves: tuple[Net, ...]
    depth: int


def build_fanout_tree(
    netlist: Netlist, source: Net, copies: int, radix: int = 2
) -> FanoutTree:
    """Fan *source* out to *copies* leaf nets via a balanced buffer tree.

    Each tree node is a BUF gate with fan-out at most *radix*, so the
    depth is ``ceil(log_radix(copies))`` gate delays.  (A naive broadcast
    has gate depth 1 but unbounded electrical fan-out; the paper's
    gate-delay model charges bounded fan-out, which the tree restores.)
    A single copy is the source itself (depth 0).

    Every node splits its *k* copies into ``min(radix, k)`` near-equal
    parts, larger parts first, and drives one BUF per part; gates are
    added depth-first, left to right.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    if radix < 2:
        raise ValueError("radix must be >= 2")
    buf = GateKind.BUF
    leaves: list[Net] = []
    depth = 0
    # (parent net, copies the node supplies, node depth); every node but
    # the root is a BUF of its parent, added when it is popped
    stack = [(source, copies, 0)]
    while stack:
        parent, k, level = stack.pop()
        net = netlist.add_gate(buf, parent) if level else parent
        if k == 1:
            leaves.append(net)
            depth = max(depth, level)
            continue
        parts = min(radix, k)
        stack.extend(
            (net, k // parts + (1 if i < k % parts else 0), level + 1)
            for i in reversed(range(parts))
        )
    return FanoutTree(source=source, leaves=tuple(leaves), depth=depth)


def fanout_template(copies: int, radix: int = 2) -> Template:
    """:func:`build_fanout_tree` as a template: one port, the leaves as outputs."""
    scratch = Netlist("fanout")
    source = scratch.add_input("source")
    return Template(scratch, [source], build_fanout_tree(scratch, source, copies, radix).leaves)
