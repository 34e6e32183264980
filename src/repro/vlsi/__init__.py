"""Parametric VLSI layout models.

The paper's empirical section lays the three register datapaths out in
Magic (0.35 um CMOS, 3 metal layers) and compares areas.  We replace
the fabricated layouts with a parametric model that keeps the same
*structure* — the same wire counts, the same floorplans, the same
recurrences — so that relative areas, wire lengths, and growth
exponents are preserved (see DESIGN.md, substitution table).

* :mod:`repro.vlsi.tech` -- technology parameters and the calibrated
  constants (documented against the paper's published absolute sizes).
* :mod:`repro.vlsi.cells` -- standard-cell/station area estimates
  derived from the gate-level netlists of :mod:`repro.circuits`.
* :mod:`repro.vlsi.htree_layout` -- the Ultrascalar I H-tree floorplan
  (Figure 6): side length X(n), root-to-leaf wire W(n), area.
* :mod:`repro.vlsi.grid_layout` -- the Ultrascalar II floorplan
  (Figure 7): side Θ(n + L) linear, Θ((n+L) log(n+L)) for the tree
  variant, with the paper's mixed strategy in between.
* :mod:`repro.vlsi.hybrid_layout` -- Ultrascalar II clusters connected
  by the Ultrascalar I H-tree (Figure 10): side U(n), optimal cluster
  size C = Θ(L).
* :mod:`repro.vlsi.wires` -- repeatered wire delay, linear in length.

The Section 7 three-dimensional bounds are closed forms in
:mod:`repro.analysis.three_d` (experiment E7).
"""

from repro.vlsi.cells import station_cell, StationCell
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout, optimal_cluster_size
from repro.vlsi.tech import Technology, PAPER_TECH
from repro.vlsi.wires import wire_delay

__all__ = [
    "station_cell",
    "StationCell",
    "Ultrascalar2Layout",
    "Ultrascalar1Layout",
    "HybridLayout",
    "optimal_cluster_size",
    "Technology",
    "PAPER_TECH",
    "wire_delay",
]
