"""Outside-in tracing: spans around each layer's public functions.

Nothing in ``src/`` is edited.  :func:`install` replaces the module (or
class) attribute each caller looks up -- for example
``repro.ultrascalar.ring.cyclic_segmented_and`` -- with a wrapper that
records a span, and :meth:`Patches.restore` puts the originals back.

A span is (name, start, end, parent).  Spans are kept in memory in flat
arrays and written out when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ENGINE_DESIGNS = ("us1", "us2", "hybrid")


class SpanRecorder:
    """Spans in flat arrays, plus counts and sums taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        #: 1 when no enclosing span has the same name (so totals never double count)
        self.outermost = array("b")
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.sums: defaultdict[str, float] = defaultdict(float)

    def _open(self, label: str) -> int:
        name_id = self._name_ids.get(label)
        if name_id is None:
            name_id = self._name_ids[label] = len(self.names)
            self.names.append(label)
        index = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(0 if self._active[label] else 1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self._active[label] += 1
        return index

    def _close(self, index: int, label: str, start: float, end: float) -> None:
        self._stack.pop()
        self._active[label] -= 1
        self.starts[index] = start
        self.ends[index] = end

    @contextmanager
    def span(self, label: str):
        index = self._open(label)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, label, start, perf_counter())

    def wrap(self, fn, label, after=None):
        """*fn* recording a span named *label* (a string, or a function of
        the call's arguments); ``after(args, result, seconds)`` runs once
        the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(index, name, start, end)
            if after is not None:
                after(args, result, end - start)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost) seconds and self seconds."""
        count = len(self.starts)
        covered = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        table: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(count):
            row = table[self.names[self.name_of[index]]]
            duration = self.ends[index] - self.starts[index]
            row["calls"] += 1
            row["self_s"] += duration - covered[index]
            if self.outermost[index]:
                row["total_s"] += duration
        return table

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: [name, start, end, parent index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index in range(len(self.starts)):
                out.write(
                    json.dumps(
                        [
                            self.names[self.name_of[index]],
                            self.starts[index],
                            self.ends[index],
                            self.parents[index],
                        ]
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, cls, name: str, make) -> None:
        self.set(cls, name, make(cls.__dict__[name]))

    def function(self, module_name: str, name: str, make) -> None:
        """Replace a function in its home module and in every ``repro``
        module that imported it by name."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = make(original)
        for module_key, module in list(sys.modules.items()):
            if module_key == "repro" or module_key.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, attr, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def _count(rec: SpanRecorder, key: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def install(rec: SpanRecorder) -> Patches:
    """Wrap every traced layer; returns the patches to restore."""
    from repro.circuits.netlist import Netlist
    from repro.frontend.fetch import FetchUnit
    from repro.memory.cluster_cache import ClusteredMemory
    from repro.runner.cache import ResultCache
    from repro.runner.registry import REGISTRY
    from repro.ultrascalar.memsys import CachedMemory, IdealMemory
    from repro.ultrascalar.ring import RingProcessor
    from repro.ultrascalar.us2 import BatchProcessor
    from repro.ultrascalar.vector_engine import VectorRingEngine
    from repro.verify.invariants import InvariantChecker

    patches = Patches()
    wrap = rec.wrap

    # experiments: each report() the runner looks up by module attribute
    for key, spec in REGISTRY.items():
        patches.function(spec.module, spec.func, lambda fn, k=key: wrap(fn, f"experiments.{k}"))

    # runner cache
    def after_get(args, entry, seconds):
        if entry is None:
            rec.counts["runner.cache.miss"] += 1

    patches.method(ResultCache, "get", lambda fn: wrap(fn, "runner.cache.get", after_get))
    patches.method(ResultCache, "put", lambda fn: wrap(fn, "runner.cache.put"))

    # engine construction: the factories name the design the engine runs
    design_of: dict[int, str] = {}
    for factory, design in (
        ("make_ultrascalar1", "us1"),
        ("make_ultrascalar2", "us2"),
        ("make_hybrid", "hybrid"),
    ):
        def after_build(args, engine, seconds, design=design):
            design_of[id(engine)] = design

        patches.function(
            "repro.ultrascalar.processor",
            factory,
            lambda fn, after=after_build: wrap(fn, "ultrascalar.build", after),
        )

    def engine_design(engine) -> str:
        if id(engine) in design_of:
            return design_of[id(engine)]
        if isinstance(engine, BatchProcessor):
            return "us2"
        return "us1" if engine.cluster_size == 1 else "hybrid"

    def after_run(args, result, seconds):
        engine = args[0]
        design = design_of.pop(id(engine), None) or engine_design(engine)
        key = f"{design}.n{engine.n}"
        rec.sums[f"run_s.{key}"] += seconds
        rec.sums[f"cycles.{key}"] += result.cycles
        rec.counts["engine.committed"] += len(result.committed)
        rec.counts["engine.squashed"] += result.squashed
        rec.counts["engine.mispredictions"] += result.mispredictions
        rec.counts["engine.branches"] += sum(
            1 for step in result.committed if step.instruction.is_branch
        )
        cache = getattr(engine.memory, "cache", None)
        stats = getattr(cache, "stats", None)
        if stats is not None:
            rec.counts["memory.cache.hits"] += stats.hits
            rec.counts["memory.cache.misses"] += stats.misses

    def run_span(args) -> str:
        return f"ultrascalar.{engine_design(args[0])}.run"

    for cls in (RingProcessor, BatchProcessor):
        patches.method(cls, "run", lambda fn: wrap(fn, run_span, after_run))

    def after_vector(args, result, seconds):
        rec.sums["vector.cycles"] += result.cycles

    patches.method(
        VectorRingEngine, "run", lambda fn: wrap(fn, "ultrascalar.vector.run", after_vector)
    )

    # circuits: the ordering scans as the engines call them, and the netlist
    patches.function(
        "repro.circuits.cspp",
        "cyclic_segmented_and",
        lambda fn: wrap(fn, "circuits.cyclic_segmented_and"),
    )
    patches.function(
        "repro.circuits.prefix", "segmented_scan", lambda fn: wrap(fn, "circuits.segmented_scan")
    )

    def after_simulate(args, result, seconds):
        rec.counts["circuits.netlist.events"] += result.events

    patches.method(
        Netlist, "simulate", lambda fn: wrap(fn, "circuits.netlist.simulate", after_simulate)
    )

    # frontend and memory
    patches.method(FetchUnit, "fetch_cycle", lambda fn: wrap(fn, "frontend.fetch_cycle"))
    for cls in (IdealMemory, CachedMemory, ClusteredMemory):
        patches.method(cls, "tick", lambda fn: wrap(fn, "memory.tick"))
        patches.method(cls, "submit_load", _count(rec, "memory.requests"))
        patches.method(cls, "submit_store", _count(rec, "memory.requests"))

    # isa, verify, baseline
    patches.function("repro.isa.interpreter", "run_program", lambda fn: wrap(fn, "isa.run_program"))
    patches.function("repro.verify.oracle", "run_oracle", lambda fn: wrap(fn, "verify.run_oracle"))

    def after_diff(args, report, seconds):
        rec.counts["verify.invariants.checks"] += report.invariant_checks

    patches.function(
        "repro.verify.diff",
        "run_differential",
        lambda fn: wrap(fn, "verify.run_differential", after_diff),
    )
    patches.method(InvariantChecker, "__call__", lambda fn: wrap(fn, "verify.invariants"))
    patches.function(
        "repro.baseline.dataflow",
        "dataflow_schedule",
        lambda fn: wrap(fn, "baseline.dataflow_schedule"),
    )

    # workload generation: every generator returning a Workload, and the fuzz grammar
    for module_name in ("repro.workloads.generators", "repro.workloads.kernels"):
        module = importlib.import_module(module_name)
        for name, fn in list(vars(module).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module_name
                and not name.startswith("_")
                and inspect.signature(fn).return_annotation in ("Workload", "'Workload'")
            ):
                patches.function(module_name, name, lambda f: wrap(f, "workloads.generate"))
    for name in ("generate_case", "corpus_cases"):
        patches.function("repro.verify.fuzz", name, lambda f: wrap(f, "workloads.generate"))
    return patches
