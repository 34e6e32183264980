"""Experiment drivers: one module per paper table/figure (see DESIGN.md §4).

Each module exposes a ``run(...)`` function returning structured results
and a ``report(...)`` / ``main()`` that renders the paper-shaped table.
Tier-1 pins every report byte for byte (``tests/golden/``) and asserts
the paper's qualitative claims on ``run()`` (who wins, by what factor,
where the crossovers fall) in ``tests/unit/test_experiments.py`` and
``tests/unit/test_new_experiments.py``.
"""

from repro.experiments import (
    cluster_sweep,
    crossover,
    dominance_map,
    fig3_timing,
    fig11_table,
    fig12_layout,
    gate_depth,
    ilp_limits,
    ipc_equivalence,
    performance_projection,
    memory_bw,
    one_cm_chip,
    selftimed,
    three_d,
    window_vs_issue,
)

__all__ = [
    "cluster_sweep",
    "crossover",
    "dominance_map",
    "fig3_timing",
    "fig11_table",
    "fig12_layout",
    "gate_depth",
    "ilp_limits",
    "ipc_equivalence",
    "performance_projection",
    "memory_bw",
    "one_cm_chip",
    "selftimed",
    "three_d",
    "window_vs_issue",
]
