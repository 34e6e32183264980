"""Run one benchmark workload; print its metrics and check its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-sweep --seed 1999 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and its median taken, then operations from the workload's input
stream run until ``--seconds`` have gone by.  ``--trace 1`` runs the first
inputs of the stream (at most :data:`TRACE_INPUTS`) untraced, then the
set-up and the same inputs again with spans around every layer (see
``perfbench/spans.py``), and reports the per-layer metrics.

Times are normalised for the host's speed (see ``perfbench/meter.py``);
the raw times are printed beside them.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it print every metric by name with its
unit, and the host.  The full result, with the host fingerprint, goes to
``.perfbench_out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
#: the workload seed used when none is given (the paper's year)
DEFAULT_SEED = 1999
SETUP_REPEATS = 3
#: the traced run's fixed share of the input stream, so that its counts
#: do not depend on how fast the host or the program is
TRACE_INPUTS = 500

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_ops(workload, meter, *, seconds: float = 0.0, count: int | None = None):
    """Run operations in stream order: exactly *count* of them, or else
    until *seconds* have passed (at least one).  Returns (outputs checked,
    outputs wrong)."""
    attempted = failed = index = 0
    gc.collect()
    deadline = perf_counter() + seconds

    def done() -> bool:
        if count is not None:
            return index == count
        return index > 0 and perf_counter() >= deadline

    while not done():
        meter.input = index % len(workload)
        checked, wrong = workload.run_op(meter.input, meter)
        attempted += checked
        failed += wrong
        index += 1
    return attempted, failed


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def _rates(meter, normalised: bool = True, tag: str | None = None) -> dict[str, float]:
    """work_per_s, op_ms.p50 and op_ms.p90 of the operations (with *tag*).

    Each input first gets the median time of its operations, so that an
    input run once more than another, when the deadline falls mid-stream,
    does not shift the percentiles.
    """
    runs: dict[int, list] = {}
    for op in meter.ops:
        if tag is None or op.tag == tag:
            runs.setdefault(op.input, []).append(op)
    samples = [
        statistics.median(meter.seconds(op, normalised) for op in ops) for ops in runs.values()
    ]
    return {
        "work_per_s": sum(ops[0].amount for ops in runs.values()) / sum(samples),
        "op_ms.p50": 1e3 * statistics.median(samples),
        "op_ms.p90": 1e3 * _p90(samples),
    }


def _named(workload_name: str, meter, normalised: bool) -> dict[str, tuple[float, str]]:
    """The same numbers under the names the workload's users know them by."""
    rates = _rates(meter, normalised)
    if workload_name == "paper-all":
        return {"paper_cold_s": (rates["op_ms.p50"] / 1e3, "s")}
    if workload_name == "engine-sweep":
        return {
            f"sim_cycles_per_s.{tag}": (_rates(meter, normalised, tag)["work_per_s"], "1/s")
            for tag in sorted({op.tag for op in meter.ops})
        }
    return {
        "verify_cases_per_s": (rates["work_per_s"], "1/s"),
        "verify_case_ms.p50": (rates["op_ms.p50"], "ms"),
        "verify_case_ms.p90": (rates["op_ms.p90"], "ms"),
    }


def _print_rows(rows) -> None:
    for name, value, raw, unit, note in rows:
        raw_text = "" if raw is None else f"{raw:>14.6g}"
        print(f"  {name:44s} {value:>14.6g} {raw_text:>14s} {unit:6s} {note}")


def _traced(workload, untraced, count):
    from repro.telemetry import CountingTracer, collecting

    from perfbench.layers import METRICS, layer_values
    from perfbench.meter import Meter
    from perfbench.spans import SpanRecorder, install

    rec = SpanRecorder()
    meter = Meter(calibrated=False)
    workload.counters = {}
    patches = install(rec)
    try:
        with collecting() as session:
            with rec.span("bench.setup"):
                workload.setup()
            with rec.span("bench.pass"):
                attempted, failed = _run_ops(workload, meter, count=count)
    finally:
        patches.restore()
    sim_total = CountingTracer()
    sim_total.merge(session.snapshot())
    for tracer in workload.counters.values():
        sim_total.merge(tracer.snapshot())
    sim_by_run = {key: tracer.snapshot() for key, tracer in workload.counters.items()}
    spans = rec.summary()
    wall = spans["bench.setup"]["total_s"] + spans["bench.pass"]["total_s"]
    overhead = sum(map(meter.seconds, meter.ops)) / sum(map(untraced.seconds, untraced.ops)) - 1
    values = layer_values(rec, spans, sim_total.snapshot(), sim_by_run, overhead)

    print(f"  traced wall {wall:.3f} s; self time per span:")
    print(f"  {'span':44s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
    for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"  {name:44s} {row['calls']:>10d} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%}"
        )
    print("  per-layer metrics, each with the end-to-end metric it should move:")
    _print_rows([(name, values[name], None, unit, moves) for name, unit, moves in METRICS])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    return metrics, spans, rec, attempted, failed


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no golden reports under {ROOT / 'tests'}", file=sys.stderr)
        return 2
    # the script's own directory comes first on sys.path; import the
    # benchmark as a package instead
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    args = _parse(argv)

    from perfbench.meter import Meter
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR / f"work-{args.workload}")
    with Meter(calibrated=not args.trace) as setup:
        setup.start()
        workload.import_modules()
        setup.stop()
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            gc.collect()
            setup.start()
            workload.setup()
            setup.stop()

    from repro.bench.timing import host_fingerprint

    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  host: {json.dumps(host, sort_keys=True)}")
    # the traced run does not sample the host's speed: spans would time the
    # calibration kernel as part of whatever layer it interrupted
    meter = Meter(calibrated=not args.trace)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host}
    if args.trace:
        count = min(len(workload), TRACE_INPUTS)
        attempted, failed = _run_ops(workload, meter, count=count)
        metrics, spans, rec, traced_attempted, traced_failed = _traced(workload, meter, count)
        attempted += traced_attempted
        failed += traced_failed
        result["spans"] = spans
        span_file = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        rec.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
    else:
        with meter:
            attempted, failed = _run_ops(workload, meter, seconds=args.seconds)
        imports, *setups = setup.ops
        values, raw = {}, {}
        for normalised, into in ((True, values), (False, raw)):
            into["setup_s"] = setup.seconds(imports, normalised) + statistics.median(
                setup.seconds(op, normalised) for op in setups
            )
            into["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            into.update(_rates(meter, normalised))
        named = _named(args.workload, meter, True)
        named_raw = _named(args.workload, meter, False)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        inputs = f"{len({op.input for op in meter.ops})} inputs, {len(meter.ops)} operations"
        notes = {
            "setup_s": f"imports + median of {len(setups)} set-ups",
            "work_per_s": inputs,
            "op_ms.p50": inputs,
            "op_ms.p90": inputs,
        }
        print(f"  {'metric':44s} {'normalised':>14s} {'raw':>14s}")
        _print_rows(
            [(n, values[n], raw[n], END_TO_END[n], notes.get(n, "")) for n in END_TO_END]
            + [(n, v, named_raw[n][0], u, "") for n, (v, u) in named.items()]
        )
        result["raw"] = raw
        result["named"] = {n: v for n, (v, _) in named.items()}
        result["named_raw"] = {n: v for n, (v, _) in named_raw.items()}
        kernels = [kernel for _, _, kernel in meter.cal]
        result["calibration_s"] = {
            "samples": len(kernels),
            "median": statistics.median(kernels),
            "min": min(kernels),
            "max": max(kernels),
        }

    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted} checked outputs)")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    result.update(summary)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
