"""Interconnection-network substrates.

The Ultrascalar processors use two network families:

* :mod:`repro.network.htree` -- H-tree geometry: the recursive 4-way
  layout that places execution stations on a square and routes the CSPP
  and fat-tree links (the paper's Figure 6 floorplan).
* :mod:`repro.network.fattree` -- fat-trees "with bandwidth increasing
  along each link on the way to the root" (Leiserson), used to connect
  stations to the interleaved data cache with capacity ``M(n)`` at the
  root; includes a cycle-level contention model.

The Ultrascalar II's mesh-of-trees is built gate by gate in
:class:`repro.circuits.grid.TreeGridNetwork`.
"""

from repro.network.fattree import FatTree, FatTreeRouting
from repro.network.htree import (
    htree_leaf_positions,
    htree_side_length,
    successor_tree_distances,
    wire_length_root_to_leaf,
)

__all__ = [
    "FatTree",
    "FatTreeRouting",
    "htree_leaf_positions",
    "htree_side_length",
    "successor_tree_distances",
    "wire_length_root_to_leaf",
]
