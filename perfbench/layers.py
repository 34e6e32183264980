"""Per-layer metrics of the traced run, and which end-to-end metric each moves.

Every name here is listed under ``per_layer`` in ``BENCHMARK.json`` and is
reported on every workload; a layer a workload never calls reads 0.
"""

from __future__ import annotations

from perfbench.spans import ENGINE_DESIGNS, SpanRecorder

EXPERIMENT_KEYS = (
    "fig3", "fig11", "fig12", "crossover", "cluster", "membw", "3d", "selftimed",
    "gates", "ipc", "window", "map", "perf", "ilp", "1cm",
)
SWEEP_WINDOWS = (128, 512)

PAPER = "op_ms.p50 on paper-all"
SWEEP = "work_per_s on engine-sweep"
FUZZ = "work_per_s on verify-fuzz"
SAME = "none: a simulator-only change leaves every count unchanged"


def _metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, the end-to-end metric and workload it should move)."""
    rows = [(f"experiments.{key}.s", "s", PAPER) for key in EXPERIMENT_KEYS]
    rows += [
        ("runner.cache.get.s", "s", PAPER),
        ("runner.cache.put.s", "s", PAPER),
        ("runner.cache.miss.count", "count", PAPER),
    ]
    for design in ENGINE_DESIGNS:
        rows.append((f"ultrascalar.{design}.run.s", "s", f"{SWEEP}; {PAPER}"))
        for window in SWEEP_WINDOWS:
            rows.append((f"ultrascalar.{design}.us_per_sim_cycle.n{window}", "us", SWEEP))
    rows += [
        ("ultrascalar.squashed_share", "ratio", SWEEP),
        ("ultrascalar.build.s", "s", "op_ms.p50 on verify-fuzz"),
        ("ultrascalar.vector.run.s", "s", PAPER),
        ("ultrascalar.vector.us_per_sim_cycle", "us", PAPER),
        ("circuits.cyclic_segmented_and.s", "s", SWEEP),
        ("circuits.cyclic_segmented_and.count", "count", SWEEP),
        ("circuits.segmented_scan.s", "s", SWEEP),
        ("circuits.segmented_scan.count", "count", SWEEP),
        ("circuits.netlist.simulate.s", "s", PAPER),
        ("circuits.netlist.events", "count", PAPER),
        ("circuits.netlist.us_per_event", "us", PAPER),
        ("frontend.fetch_cycle.s", "s", SWEEP),
        ("frontend.fetch_cycle.count", "count", SWEEP),
        ("frontend.mispredict_share", "ratio", SWEEP),
        ("memory.tick.s", "s", SWEEP),
        ("memory.requests", "count", SWEEP),
        ("memory.cache.hit_ratio", "ratio", SWEEP),
        ("isa.run_program.s", "s", FUZZ),
        ("isa.run_program.count", "count", FUZZ),
        ("verify.run_oracle.s", "s", FUZZ),
        ("verify.run_differential.s", "s", f"{FUZZ}; op_ms.p90 on verify-fuzz"),
        ("verify.invariants.s", "s", f"{FUZZ}; op_ms.p90 on verify-fuzz"),
        ("verify.invariants.checks", "count", FUZZ),
        ("baseline.dataflow_schedule.s", "s", FUZZ),
        ("workloads.generate.s", "s", "setup_s on every workload"),
        ("sim.cycles", "count", SAME),
        ("sim.instructions", "count", SAME),
        ("sim.squashed", "count", SAME),
    ]
    for design in ENGINE_DESIGNS:
        for window in SWEEP_WINDOWS:
            for counter in ("cycles", "instructions", "squashed"):
                rows.append((f"sim.{counter}.{design}.n{window}", "count", SAME))
    rows.append(("bench.trace_overhead_share", "ratio", "none: the cost of the spans"))
    return rows


METRICS = _metric_table()

#: telemetry counter behind each ``sim.*`` count
SIM_COUNTERS = {
    "cycles": "cycles",
    "instructions": "commit.instructions",
    "squashed": "commit.squashed",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(
    rec: SpanRecorder,
    spans: dict[str, dict[str, float]],
    sim_total: dict[str, int],
    sim_by_run: dict[tuple[str, int], dict[str, int]],
    overhead_share: float,
) -> dict[str, float]:
    """Every metric of :data:`METRICS` from one traced pass."""

    def seconds(span: str) -> float:
        return spans.get(span, {}).get("total_s", 0.0)

    def calls(span: str) -> int:
        return int(spans.get(span, {}).get("calls", 0))

    values: dict[str, float] = {}
    for key in EXPERIMENT_KEYS:
        values[f"experiments.{key}.s"] = seconds(f"experiments.{key}")
    values["runner.cache.get.s"] = seconds("runner.cache.get")
    values["runner.cache.put.s"] = seconds("runner.cache.put")
    values["runner.cache.miss.count"] = rec.counts["runner.cache.miss"]
    for design in ENGINE_DESIGNS:
        values[f"ultrascalar.{design}.run.s"] = seconds(f"ultrascalar.{design}.run")
        for window in SWEEP_WINDOWS:
            key = f"{design}.n{window}"
            values[f"ultrascalar.{design}.us_per_sim_cycle.n{window}"] = 1e6 * _ratio(
                rec.sums[f"run_s.{key}"], rec.sums[f"cycles.{key}"]
            )
    committed, squashed = rec.counts["engine.committed"], rec.counts["engine.squashed"]
    values["ultrascalar.squashed_share"] = _ratio(squashed, committed + squashed)
    values["ultrascalar.build.s"] = seconds("ultrascalar.build")
    values["ultrascalar.vector.run.s"] = seconds("ultrascalar.vector.run")
    values["ultrascalar.vector.us_per_sim_cycle"] = 1e6 * _ratio(
        seconds("ultrascalar.vector.run"), rec.sums["vector.cycles"]
    )
    for scan in ("cyclic_segmented_and", "segmented_scan"):
        values[f"circuits.{scan}.s"] = seconds(f"circuits.{scan}")
        values[f"circuits.{scan}.count"] = calls(f"circuits.{scan}")
    events = rec.counts["circuits.netlist.events"]
    values["circuits.netlist.simulate.s"] = seconds("circuits.netlist.simulate")
    values["circuits.netlist.events"] = events
    values["circuits.netlist.us_per_event"] = 1e6 * _ratio(
        seconds("circuits.netlist.simulate"), events
    )
    values["frontend.fetch_cycle.s"] = seconds("frontend.fetch_cycle")
    values["frontend.fetch_cycle.count"] = calls("frontend.fetch_cycle")
    values["frontend.mispredict_share"] = _ratio(
        rec.counts["engine.mispredictions"], rec.counts["engine.branches"]
    )
    hits, misses = rec.counts["memory.cache.hits"], rec.counts["memory.cache.misses"]
    values["memory.tick.s"] = seconds("memory.tick")
    values["memory.requests"] = rec.counts["memory.requests"]
    values["memory.cache.hit_ratio"] = _ratio(hits, hits + misses)
    values["isa.run_program.s"] = seconds("isa.run_program")
    values["isa.run_program.count"] = calls("isa.run_program")
    values["verify.run_oracle.s"] = seconds("verify.run_oracle")
    values["verify.run_differential.s"] = seconds("verify.run_differential")
    values["verify.invariants.s"] = seconds("verify.invariants")
    values["verify.invariants.checks"] = rec.counts["verify.invariants.checks"]
    values["baseline.dataflow_schedule.s"] = seconds("baseline.dataflow_schedule")
    values["workloads.generate.s"] = seconds("workloads.generate")
    for counter, source in SIM_COUNTERS.items():
        values[f"sim.{counter}"] = sim_total.get(source, 0)
        for design in ENGINE_DESIGNS:
            for window in SWEEP_WINDOWS:
                run = sim_by_run.get((design, window), {})
                values[f"sim.{counter}.{design}.n{window}"] = run.get(source, 0)
    values["bench.trace_overhead_share"] = overhead_share
    return values
