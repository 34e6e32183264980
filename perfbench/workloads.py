"""The benchmark's three workloads, each driven by one closed-loop caller.

A workload is built in three steps, so that each can be timed on its own:

* ``import_modules()`` imports everything the workload drives (once per
  process; it cannot be repeated in-process);
* ``setup()`` generates the inputs from the seed and loads the reference
  outputs the checks compare against (repeatable, so set-up time is a
  median);
* ``run_op(index, meter)`` runs operation ``index`` of the input stream,
  times it with the :class:`~perfbench.meter.Meter` and checks its
  outputs; it returns (outputs checked, outputs wrong).

An operation is what ``op_ms`` times; its amount of work is what
``work_per_s`` counts:

* ``paper-all``: one cold regeneration of all 15 reports through
  ``repro.runner`` with one worker, from an empty result cache; amount 1;
* ``engine-sweep``: one engine run; its amount is its simulated cycles, so
  ``work_per_s`` is simulated cycles per second in ``Processor.run``;
* ``verify-fuzz``: one differential fuzz case; amount 1.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
import shutil
import sys
from pathlib import Path

#: CI fuzzes shard seeds 0:8 and the nightly job 0:100; the benchmark's
#: shard seeds start above both ranges so it never replays their cases
VERIFY_SEED_FLOOR = 1_000

#: engine-sweep grid: the paper's window sizes and the three designs
#: (hybrid with clusters of 16 stations)
WINDOWS = (128, 512)
DESIGNS = (("us1", 1), ("us2", 1), ("hybrid", 16))
FETCH_WIDTH = 16
#: long enough that a run's cycles, and so its host time per cycle, vary
#: little from seed to seed (the critical path of a short program does)
ILP_COUNT = 1200
SORT_COUNT = 16

#: verify-fuzz stream: shards of corpus cases plus random-grammar cases,
#: enough that a run covers distinct cases rather than repeating a few.
#: Grammar sizes follow one fixed schedule over [6, 48], so that seeds
#: change the programs but not the mix of sizes, which sets a case's cost.
VERIFY_SHARDS = 48
VERIFY_GRAMMAR_SIZES = tuple(6 + (index * 17) % 43 for index in range(35))
VERIFY_SIZES = (4, 16)


def _nonzero(memory: dict[int, int]) -> dict[int, int]:
    """Memory as the program sees it: a word never stored reads 0, and a
    cache writes back whole lines, zero words included."""
    return {address: value for address, value in memory.items() if value}


class PaperAll:
    """Regenerate all 15 reports cold and byte-compare them with the goldens."""

    name = "paper-all"

    def __init__(self, root: Path, seed: int, scratch: Path):
        # the reports are the paper's; the seed changes nothing here
        self.root = root
        self.cache_dir = scratch / "cache"

    def import_modules(self) -> None:
        # every module, so the experiments' lazy imports are set-up, not
        # a cost only the first regeneration in a process pays
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)

    def setup(self) -> None:
        from repro.runner.registry import REGISTRY, build_jobs

        self.jobs = build_jobs(list(REGISTRY.values()))
        golden = self.root / "tests" / "golden"
        self.expected = {
            key: (golden / f"{key}.txt").read_text(encoding="utf-8") for key in REGISTRY
        }

    def __len__(self) -> int:
        return 1

    def run_op(self, index: int, meter) -> tuple[int, int]:
        from repro.runner.cache import ResultCache
        from repro.runner.pool import run_jobs

        # a regeneration in a fresh process starts with empty memo caches too
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro."):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        outputs: dict[str, list[str]] = {}

        def on_result(job) -> None:
            if job.ok:
                outputs.setdefault(job.experiment, []).append(job.output)

        meter.start()
        cache = ResultCache(self.cache_dir)
        run_jobs(self.jobs, workers=1, cache=cache, retries=0, on_result=on_result)
        meter.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        failed = sum(
            "\n".join(outputs.get(key, ["<missing>"])) != want
            for key, want in self.expected.items()
        )
        return len(self.expected), failed


class EngineSweep:
    """us1, us2 and hybrid at windows 128 and 512 on three program shapes."""

    name = "engine-sweep"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.seed = seed
        #: set by the traced run: per (design, window) telemetry counters
        self.counters = None

    def import_modules(self) -> None:
        import repro.api  # noqa: F401
        import repro.frontend.branch_predictor  # noqa: F401
        import repro.isa.interpreter  # noqa: F401
        import repro.memory.interleaved_cache  # noqa: F401
        import repro.workloads  # noqa: F401

    def setup(self) -> None:
        from repro.isa.interpreter import MachineState, run_program
        from repro.util.rng import derive_seed
        from repro.workloads.generators import daxpy_loop, random_ilp
        from repro.workloads.kernels import bubble_sort

        rng = random.Random(derive_seed("perfbench.engine-sweep", self.seed))
        programs = [
            # (workload, memory kind, predictor kind)
            (
                random_ilp(ILP_COUNT, 0.5, seed=derive_seed("perfbench.ilp", self.seed)),
                "ideal",
                "perfect",
            ),
            (daxpy_loop(40), "cached", "bimodal"),
            (bubble_sort([rng.randrange(1000) for _ in range(SORT_COUNT)]), "ideal", "bimodal"),
        ]
        references = []
        for workload, _, _ in programs:
            state = MachineState(workload.registers_for(), dict(workload.memory_image))
            golden = run_program(workload.program, state=state)
            references.append((list(golden.state.registers), _nonzero(golden.state.memory)))
        self.grid = [
            (window, design, cluster, program, reference)
            for window in WINDOWS
            for design, cluster in DESIGNS
            for program, reference in zip(programs, references)
        ]

    def __len__(self) -> int:
        return len(self.grid)

    def _memory(self, workload, kind):
        from repro.api import CachedMemory, IdealMemory
        from repro.memory.interleaved_cache import InterleavedCache

        memory = CachedMemory(InterleavedCache(banks=8)) if kind == "cached" else IdealMemory()
        # without the image the loads would silently read zeros
        memory.load_image(dict(workload.memory_image))
        return memory

    def run_op(self, index: int, meter) -> tuple[int, int]:
        from repro.api import CountingTracer, ProcessorConfig, build_processor
        from repro.frontend.branch_predictor import BimodalPredictor

        window, design, cluster, (workload, memory_kind, predictor_kind), (regs, mem) = (
            self.grid[index]
        )
        config = ProcessorConfig(window_size=window, fetch_width=FETCH_WIDTH)
        processor = build_processor(design, config, cluster_size=cluster)
        memory = self._memory(workload, memory_kind)
        predictor = BimodalPredictor() if predictor_kind == "bimodal" else None
        tracer = CountingTracer() if self.counters is not None else None
        registers = workload.registers_for()
        meter.start()
        run = processor.run(
            workload.program,
            memory=memory,
            predictor=predictor,
            initial_registers=registers,
            tracer=tracer,
        )
        meter.stop(amount=run.cycles, tag=f"n{window}")
        if tracer is not None:
            self.counters.setdefault((design, window), CountingTracer()).merge(tracer.snapshot())
        return 1, int(run.registers != regs or _nonzero(run.memory) != mem)


class VerifyFuzz:
    """A fixed, seeded stream of fuzz cases through ``run_case``."""

    name = "verify-fuzz"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.seed = seed

    def import_modules(self) -> None:
        import repro.verify.fuzz  # noqa: F401

    def shard_seeds(self) -> list[int]:
        """Shard seeds derived from the benchmark seed, above CI's ranges."""
        from repro.util.rng import derive_seed

        return [
            VERIFY_SEED_FLOOR + derive_seed("perfbench.verify", self.seed, shard) % 10**9
            for shard in range(VERIFY_SHARDS)
        ]

    def setup(self) -> None:
        from repro.util.rng import derive_seed
        from repro.verify.fuzz import corpus_cases, generate_case

        # as a fuzz shard draws them: its corpus cases, then the grammar
        self.cases = []
        for shard_seed in self.shard_seeds():
            self.cases.extend(corpus_cases(shard_seed))
            for index, size in enumerate(VERIFY_GRAMMAR_SIZES):
                self.cases.append(generate_case(derive_seed(shard_seed, index), size))

    def __len__(self) -> int:
        return len(self.cases)

    def run_op(self, index: int, meter) -> tuple[int, int]:
        from repro.verify.fuzz import run_case

        meter.start()
        try:
            failure = run_case(self.cases[index], sizes=VERIFY_SIZES, check_invariants=True)
        except Exception:  # a crash outside the engines is a failed case too
            failure = True
        meter.stop()
        return 1, int(failure is not None)


WORKLOADS = {cls.name: cls for cls in (PaperAll, EngineSweep, VerifyFuzz)}
