"""Frozen engine corpus: every (program, configuration) replays exactly.

``tests/golden/engine_corpus.json`` records, for about 400 runs of the
ring engine drawn over designs, windows, fetch widths, predictors,
memory systems and the ``ProcessorConfig`` knobs, the cycle count, the
squash and misprediction counts, and a SHA-256 over every
``TimingRecord``, the final registers, the final memory and every
telemetry counter.  Any change to the engine's behaviour moves at least
one digest.  Predictors are explicit objects, so a change to the
factories' default predictor cannot move the corpus.

``tests/golden/engine_corpus_wide.json`` does the same at the paper's
window sizes (128 and 512), where the other corpus's windows of 16 or
less never reach: us1, us2 and the hybrid with C=16 on a cached-memory
daxpy loop and an 8-value bubble sort (both bimodal prediction) and a
300-instruction random ILP program (perfect prediction), each under
the default knobs, ``self_timed`` alone and all three knobs.

Regenerate (only for a reviewed behaviour change) with
``PYTHONPATH=src python -m pytest tests/integration/test_engine_corpus.py
--update-golden``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.frontend.branch_predictor import AlwaysNotTaken, BimodalPredictor, PerfectPredictor
from repro.isa.interpreter import MachineState, run_program
from repro.isa.latency import LatencyModel
from repro.memory.interleaved_cache import InterleavedCache
from repro.telemetry import CountingTracer
from repro.ultrascalar import CachedMemory, IdealMemory, ProcessorConfig
from repro.ultrascalar.ring import RingProcessor
from repro.verify.fuzz import generate_case
from repro.workloads import daxpy_loop, random_ilp, store_load_pairs
from repro.workloads.kernels import bubble_sort

CORPUS = Path(__file__).resolve().parents[1] / "golden" / "engine_corpus.json"
WIDE_CORPUS = CORPUS.with_name("engine_corpus_wide.json")

#: (name, window -> cluster size); us2 spans the window
DESIGNS = (
    ("us1", lambda window: 1),
    ("us2", lambda window: window),
    ("hybrid2", lambda window: 2),
    ("hybrid4", lambda window: 4),
)
WINDOWS = (2, 4, 8, 16)
FETCH_WIDTHS = (1, 4, 16)
PREDICTORS = ("perfect", "not_taken", "bimodal")
MEMORIES = ("ideal", "ideal_lat3", "cached")
#: name -> ProcessorConfig keyword overrides
KNOBS = {
    "default": {},
    "alus1": {"num_alus": 1},
    "alus2_fwd": {"num_alus": 2, "store_forwarding": True},
    "fwd": {"store_forwarding": True},
    "timed": {"self_timed": True},
    "all": {"num_alus": 2, "store_forwarding": True, "self_timed": True},
}
ENTRIES = 400

#: the wide corpus: every combination of these, in this order
WIDE_DESIGNS = (
    ("us1", lambda window: 1),
    ("us2", lambda window: window),
    ("hybrid16", lambda window: 16),
)
WIDE_WINDOWS = (128, 512)
WIDE_KNOBS = ("default", "timed", "all")
#: program name -> (memory, predictor)
WIDE_PROGRAMS = {
    "daxpy12": ("cached", "bimodal"),
    "bubble8": ("ideal", "bimodal"),
    "ilp300": ("ideal", "perfect"),
}
WIDE_FETCH = 16
CLUSTERS = dict(DESIGNS + WIDE_DESIGNS)


def _programs() -> dict[str, tuple]:
    """name -> (program, initial registers, memory image)."""
    programs = {}
    for seed in range(8):
        for size in (6, 12, 24):
            case = generate_case(seed, size)
            programs[f"fuzz.s{seed}.n{size}"] = (
                case.program,
                case.initial_registers,
                case.memory_image,
            )
    for name, workload in (
        ("daxpy3", daxpy_loop(3)),
        ("bubble4", bubble_sort([3, 1, 4, 1])),
        ("ilp24", random_ilp(24, 0.5, seed=5)),
        ("stld4", store_load_pairs(4)),
    ):
        programs[name] = (workload.program, workload.registers_for(), dict(workload.memory_image))
    return programs


def _wide_programs() -> dict[str, tuple]:
    """name -> (program, initial registers, memory image)."""
    return {
        name: (workload.program, workload.registers_for(), dict(workload.memory_image))
        for name, workload in (
            ("daxpy12", daxpy_loop(12)),
            ("bubble8", bubble_sort([5, 3, 7, 0, 6, 2, 7, 1])),
            ("ilp300", random_ilp(300, 0.5, seed=7)),
        )
    }


def _wide_entries() -> list[tuple[str, str, dict]]:
    """The wide corpus's (key, program name, configuration) triples."""
    entries = []
    for design, _ in WIDE_DESIGNS:
        for window in WIDE_WINDOWS:
            for program, (memory, predictor) in WIDE_PROGRAMS.items():
                for knobs in WIDE_KNOBS:
                    config = {
                        "program": program,
                        "design": design,
                        "window": window,
                        "fetch": WIDE_FETCH,
                        "predictor": predictor,
                        "memory": memory,
                        "knobs": knobs,
                    }
                    key = "|".join(str(config[k]) for k in sorted(config))
                    entries.append((key, program, config))
    return entries


def _entries() -> list[tuple[str, str, dict]]:
    """The (key, program name, configuration) triples, in corpus order."""
    rng = random.Random(20260417)
    names = sorted(_programs())
    entries = []
    seen = set()
    while len(entries) < ENTRIES:
        config = {
            "program": rng.choice(names),
            "design": rng.choice(DESIGNS)[0],
            "window": rng.choice(WINDOWS),
            "fetch": rng.choice(FETCH_WIDTHS),
            "predictor": rng.choice(PREDICTORS),
            "memory": rng.choice(MEMORIES),
            "knobs": rng.choice(sorted(KNOBS)),
        }
        cluster = dict(DESIGNS)[config["design"]](config["window"])
        if config["window"] % cluster:
            continue
        key = "|".join(str(config[k]) for k in sorted(config))
        if key in seen:
            continue
        seen.add(key)
        entries.append((key, config["program"], config))
    return entries


def _predictor(kind: str, program, registers, image):
    if kind == "not_taken":
        return AlwaysNotTaken()
    if kind == "bimodal":
        return BimodalPredictor()
    golden = run_program(program, state=MachineState(list(registers), dict(image)))
    return PerfectPredictor.from_trace(golden.trace)


def _memory(kind: str, image):
    if kind == "cached":
        memory = CachedMemory(InterleavedCache(banks=4))
    elif kind == "ideal_lat3":
        memory = IdealMemory(load_latency=3)
    else:
        memory = IdealMemory()
    memory.load_image(dict(image))
    return memory


def fingerprint(program, registers, image, config: dict) -> dict:
    """Run one corpus configuration; its recorded fingerprint."""
    window = config["window"]
    processor_config = ProcessorConfig(
        window_size=window,
        fetch_width=config["fetch"],
        latencies=LatencyModel(),
        max_cycles=20_000,
        **KNOBS[config["knobs"]],
    )
    tracer = CountingTracer()
    engine = RingProcessor(
        program,
        processor_config,
        predictor=_predictor(config["predictor"], program, registers, image),
        memory=_memory(config["memory"], image),
        cluster_size=CLUSTERS[config["design"]](window),
        initial_registers=list(registers),
        tracer=tracer,
    )
    result = engine.run()
    timings = [
        (t.seq, t.static_index, str(t.instruction), t.fetch_cycle, t.issue_cycle,
         t.complete_cycle, t.commit_cycle)
        for t in result.timings
    ]
    payload = json.dumps(
        {
            "timings": timings,
            "registers": result.registers,
            "memory": sorted(result.memory.items()),
            "counters": sorted(result.stats.items()),
            "halted": result.halted,
            "forwarded_loads": result.forwarded_loads,
        },
        separators=(",", ":"),
    )
    return {
        "cycles": result.cycles,
        "squashed": result.squashed,
        "mispredictions": result.mispredictions,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


def build_corpus(programs=None, entries=None) -> dict[str, dict]:
    """Fingerprint every corpus entry with the current engine."""
    programs = _programs() if programs is None else programs
    entries = _entries() if entries is None else entries
    return {key: fingerprint(*programs[name], config) for key, name, config in entries}


def _replay(path: Path, corpus: dict[str, dict], update_golden: bool) -> None:
    if update_golden:
        path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    frozen = json.loads(path.read_text())
    assert sorted(frozen) == sorted(corpus), "corpus configurations changed"
    mismatches = [key for key in sorted(frozen) if frozen[key] != corpus[key]]
    assert not mismatches, f"{len(mismatches)} of {len(frozen)} entries moved: {mismatches[:5]}"


def test_engine_corpus_replays(update_golden):
    _replay(CORPUS, build_corpus(), update_golden)


def test_wide_engine_corpus_replays(update_golden):
    _replay(WIDE_CORPUS, build_corpus(_wide_programs(), _wide_entries()), update_golden)


def test_corpus_covers_squashes_and_every_design():
    frozen = json.loads(CORPUS.read_text())
    assert len(frozen) == ENTRIES
    assert sum(1 for entry in frozen.values() if entry["squashed"]) >= ENTRIES // 10
    used = {key.split("|")[0] for key in frozen}  # sorted config keys: design first
    assert used == {name for name, _ in DESIGNS}
