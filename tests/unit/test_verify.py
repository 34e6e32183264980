"""Unit tests for the differential-verification subsystem (repro.verify).

The centerpiece is the mutation test: inject a forwarding bug into the
ring engine's rename step and show that the fuzzer (a) detects the
divergence against the architectural oracle, (b) shrinks the failing
program to a minimal reproducer (at most 8 instructions), and (c) the
recorded reproducer replays the failure.
"""

import json

import pytest

from repro.api import build_processor
from repro.isa import assemble
from repro.ultrascalar import ProcessorConfig
from repro.ultrascalar.ring import RingProcessor
from repro.ultrascalar.station import StationState
from repro.verify import (
    DESIGNS,
    InvariantChecker,
    InvariantViolation,
    build_verify_artifact,
    corpus_cases,
    generate_case,
    load_reproducer,
    run_case,
    run_differential,
    run_oracle,
    shard_report,
    shrink_case,
    validate_verify_artifact,
    write_reproducer,
)
from repro.verify.cli import main as verify_main
from repro.verify.fuzz import CaseFailure, parse_shard_report
from repro.workloads import memory_stream, paper_sequence, random_ilp

#: fuzz parameters kept small so the mutation tests stay fast
FAST = dict(sizes=(4,), designs=("us1",), check_invariants=False)


class TestOracle:
    def test_paper_sequence_commits(self):
        w = paper_sequence()
        oracle = run_oracle(w.program, w.registers_for(), dict(w.memory_image))
        assert oracle.halted
        assert oracle.dynamic_length == len(w.program)
        # commits follow the static order for this straight-line program
        assert [c[0] for c in oracle.commits] == list(range(len(w.program)))

    def test_memory_image_round_trips(self):
        w = memory_stream(6)
        oracle = run_oracle(w.program, w.registers_for(), dict(w.memory_image))
        # every preloaded address is still present in the final image
        assert set(w.memory_image) <= set(oracle.memory)


class TestRunDifferential:
    @pytest.mark.parametrize("window", [None, 4, 8])
    def test_known_workloads_agree(self, window):
        w = random_ilp(30, 0.5, seed=7)
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            memory_image=dict(w.memory_image),
            window=window,
        )
        assert report.ok, report.divergences
        assert set(report.cycles) >= {"us1", "us2", "hybrid"}
        assert report.invariant_checks > 0

    def test_wrap_free_ilp_equivalence_enforced(self):
        w = paper_sequence()
        report = run_differential(
            w.program, initial_registers=w.registers_for()
        )
        assert report.ok
        engine_cycles = {report.cycles[d] for d in ("us1", "us2", "hybrid")}
        assert len(engine_cycles) == 1

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            run_differential(paper_sequence().program, designs=("us1", "nope"))

    def test_stats_collected_for_triage(self):
        w = paper_sequence()
        report = run_differential(
            w.program, initial_registers=w.registers_for(), collect_stats=True
        )
        assert set(report.stats) == {"us1", "us2", "hybrid"}
        assert all(report.stats[d] for d in report.stats)


class TestInvariantChecker:
    def test_clean_runs_accumulate_checks(self):
        checker = InvariantChecker()
        w = random_ilp(20, 0.3, seed=11)
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            memory_image=dict(w.memory_image),
            window=4,
        )
        assert report.ok and report.invariant_checks > 0
        assert checker.checks == 0  # fresh checker untouched

    def test_commit_fifo_violation_detected(self, monkeypatch):
        # corrupt commitment: report the stream in reversed order
        original = RingProcessor.step

        def scrambled(self):
            outcome = original(self)
            if len(self.committed) >= 2:
                self.committed[-1], self.committed[-2] = (
                    self.committed[-2],
                    self.committed[-1],
                )
            return outcome

        monkeypatch.setattr(RingProcessor, "step", scrambled)
        w = paper_sequence()
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            designs=("us1",),
        )
        assert not report.ok
        assert any(d.field in ("invariant", "commits") for d in report.divergences)

    def test_no_state_inherited_through_a_reused_id(self, monkeypatch):
        """A fresh engine never inherits a finished engine's bookkeeping,
        even when it reuses the finished engine's id (forced here)."""
        from repro.verify import invariants

        monkeypatch.setattr(invariants, "id", lambda engine: 0, raising=False)
        program = assemble("addi r1, r0, 1\naddi r2, r1, 1\nhalt")
        config = ProcessorConfig(window_size=8)
        checker = InvariantChecker()
        # the hybrid halts with its partly filled cluster still occupied
        build_processor("hybrid", config, cluster_size=4).run(program, cycle_hook=checker)
        build_processor("us1", config).run(program, cycle_hook=checker)

    #: a DIV holds up a dependent store, branch and ALU op, so all three
    #: oldest-unfinished queues and a rename link are live mid-run
    STALLED = (
        "li r1, 7\nli r2, 3\ndiv r3, r1, r2\nsw r3, 0(r28)\n"
        "beq r3, r3, @6\naddi r5, r3, 1\nhalt"
    )

    def _stalled_engine(self, cycles=2):
        from repro.frontend.branch_predictor import AlwaysNotTaken
        from repro.ultrascalar import IdealMemory

        engine = RingProcessor(
            assemble(self.STALLED),
            ProcessorConfig(window_size=8, fetch_width=8),
            predictor=AlwaysNotTaken(),
            memory=IdealMemory(),
        )
        for _ in range(cycles):
            engine.step()
        return engine

    def test_clean_stalled_engine_passes(self):
        engine = self._stalled_engine()
        InvariantChecker()(engine)
        waiting = [s for s in engine.window if s.state is StationState.WAITING]
        assert len(waiting) >= 3  # the store, the branch and the addi

    def test_wrong_producer_link_detected(self):
        engine = self._stalled_engine()
        by_pc = {station.fetched.static_index: station for station in engine.window}
        consumer = by_pc[5]  # addi r5, r3, 1: linked to the div
        [(reg, producer, tag)] = consumer.sources
        assert producer is by_pc[2] and producer.tag == tag
        consumer.sources = ((reg, None, -1),)  # read the stale committed r3
        with pytest.raises(InvariantViolation, match="links r3"):
            InvariantChecker()(engine)

    @pytest.mark.parametrize(
        "queue", ["_unfinished_stores", "_unfinished_memory", "_unfinished_control"]
    )
    def test_wrong_queue_head_detected(self, queue):
        engine = self._stalled_engine()
        getattr(engine, queue).clear()  # lose the unfinished store / branch
        with pytest.raises(InvariantViolation, match="oldest-unfinished queue"):
            InvariantChecker()(engine)

    def test_lost_wakeup_detected(self, monkeypatch):
        """A finished producer that forgets one consumer fails that cycle."""
        healthy = RingProcessor._wake
        lost = []

        def lossy(self, producer):
            if not lost:
                lost.append(producer.consumers.pop(0))
            healthy(self, producer)

        monkeypatch.setattr(RingProcessor, "_wake", lossy)
        engine = self._stalled_engine(cycles=0)
        engine._cycle_hook = InvariantChecker()
        with pytest.raises(InvariantViolation, match="has pending 1, but 0"):
            engine.run()

    def test_wrong_pending_count_detected(self):
        engine = self._stalled_engine()
        by_pc = {station.fetched.static_index: station for station in engine.window}
        by_pc[5].pending += 1  # addi r5, r3, 1 would wait for a second producer
        with pytest.raises(InvariantViolation, match="has pending 2, but 1"):
            InvariantChecker()(engine)

    def test_pending_zero_off_the_ready_list_detected(self):
        engine = self._stalled_engine(cycles=1)
        # the li results woke the div this cycle; lose that wakeup
        assert [s.fetched.static_index for s in engine._woken] == [2]
        engine._woken.clear()
        with pytest.raises(InvariantViolation, match="not on the ready or woken list"):
            InvariantChecker()(engine)

    def test_unregistered_consumer_detected(self):
        engine = self._stalled_engine()
        by_pc = {station.fetched.static_index: station for station in engine.window}
        by_pc[2].consumers.clear()  # the div forgets who waits for it
        with pytest.raises(InvariantViolation, match="is not among its consumers"):
            InvariantChecker()(engine)

    def test_cspp_reference_checked(self, monkeypatch):
        from repro.circuits import cspp

        engine = self._stalled_engine()
        monkeypatch.setattr(
            cspp, "cyclic_segmented_and", lambda values, segments: [True] * len(values)
        )
        with pytest.raises(InvariantViolation, match="CSPP"):
            InvariantChecker()(engine)


def _forwarding_bug(monkeypatch):
    """Install the classic bug: a consumer reads a stale register value.

    The rename step drops every link to an in-flight producer of r1, so
    a consumer of r1 takes the committed register file's (pre-write)
    value in place of its producer's result — a broken result bus,
    invisible to anything but differential testing.
    """
    healthy = RingProcessor._rename

    def buggy(self, inst):
        return tuple(
            (reg, None, -1) if reg == 1 else (reg, producer, tag)
            for reg, producer, tag in healthy(self, inst)
        )

    monkeypatch.setattr(RingProcessor, "_rename", buggy)


class TestMutationCatchAndShrink:
    def test_forwarding_bug_caught_and_shrunk(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        assert failure is not None, "fuzzer missed the injected forwarding bug"

        shrunk = shrink_case(failure, **FAST)
        assert len(shrunk.program) <= 8, shrunk.program.disassemble()
        # the minimal program still fails on its own
        assert run_case(shrunk, **FAST) is not None

        path = write_reproducer(tmp_path, failure, shrunk)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-failure/1"
        assert payload["shrunk_size"] == len(shrunk.program)

        # the recorded reproducer replays the failure (shrunk program)
        replayed = load_reproducer(path)
        assert len(replayed.program) == len(shrunk.program)
        assert run_case(replayed, **FAST) is not None

    def test_shrinking_keeps_the_program_terminating(self, monkeypatch):
        """A removal that breaks a loop's exit is no reduction."""
        _forwarding_bug(monkeypatch)
        loops = [case for case in corpus_cases(1) if run_case(case, **FAST) is not None]
        assert loops, "no corpus workload caught the injected bug"
        for case in loops:
            shrunk = shrink_case(run_case(case, **FAST), **FAST)
            original = run_oracle(case.program, case.initial_registers, case.memory_image)
            reduced = run_oracle(
                shrunk.program,
                shrunk.initial_registers,
                shrunk.memory_image,
                max_steps=original.dynamic_length,
            )
            assert reduced.halted

    def test_reproducer_clean_after_fix(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        assert failure is not None
        path = write_reproducer(tmp_path, failure)
        monkeypatch.undo()  # "fix" the bug
        assert run_case(load_reproducer(path), **FAST) is None


class TestPredictorDraw:
    def test_cases_draw_every_predictor(self):
        drawn = {generate_case(seed, 12).predictor for seed in range(40)}
        assert drawn == {"perfect", "not_taken", "bimodal"}

    def test_squashes_are_fuzzed(self):
        mispredicted = 0
        for seed in range(20):
            case = generate_case(seed, 24)
            report = run_differential(
                case.program,
                initial_registers=case.initial_registers,
                memory_image=case.memory_image,
                window=8,
                designs=("us1",),
                predictor=case.predictor,
                collect_stats=True,
            )
            assert report.ok, report.divergences
            mispredicted += report.stats["us1"].get("commit.mispredictions", 0)
        assert mispredicted > 0

    def test_perfect_prediction_never_mispredicts(self):
        for seed in range(20):
            case = generate_case(seed, 24)
            report = run_differential(
                case.program,
                initial_registers=case.initial_registers,
                memory_image=case.memory_image,
                window=8,
                designs=("us1", "us2", "hybrid"),
                collect_stats=True,
            )
            assert all(s.get("commit.mispredictions", 0) == 0 for s in report.stats.values())

    def test_reproducer_records_predictor(self, tmp_path):
        case = next(
            c for c in (generate_case(seed, 8) for seed in range(40)) if c.predictor == "bimodal"
        )
        path = write_reproducer(tmp_path, CaseFailure(case=case, window=4, report=None, error="x"))
        assert json.loads(path.read_text())["predictor"] == "bimodal"
        assert load_reproducer(path).predictor == "bimodal"

    def test_reproducer_without_predictor_loads_perfect(self, tmp_path):
        case = generate_case(0, 8)
        path = write_reproducer(tmp_path, CaseFailure(case=case, window=4, report=None, error="x"))
        payload = json.loads(path.read_text())
        del payload["predictor"]
        path.write_text(json.dumps(payload))
        assert load_reproducer(path).predictor == "perfect"

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            run_differential(paper_sequence().program, predictor="psychic")


class TestShardAndReproducers:
    def test_clean_shard(self):
        outcome = parse_shard_report(shard_report(seed=0, budget=60))
        assert outcome.ok
        # the corpus workloads run first, so the budget can overshoot
        assert outcome.instructions >= 60
        assert outcome.cases >= len(corpus_cases(0))

    def test_shard_is_deterministic(self):
        assert shard_report(seed=3, budget=60) == shard_report(seed=3, budget=60)

    def test_corpus_cases_clean_and_deterministic(self):
        cases = corpus_cases(2)
        assert [c.size for c in cases] == [c.size for c in corpus_cases(2)]
        for case in cases:
            assert run_case(case, **FAST) is None

    def test_failing_shard_writes_reproducers(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        outcome = parse_shard_report(
            shard_report(
                seed=1,
                budget=400,
                sizes=(4,),
                designs=("us1",),
                check_invariants=False,
                failures_dir=str(tmp_path),
            )
        )
        assert not outcome.ok
        for failure in outcome.failures:
            assert (tmp_path / f"seed{failure['seed']:08d}.json").exists()

    def test_load_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="schema"):
            load_reproducer(path)


class TestVerifyArtifact:
    def _document(self, shards):
        return build_verify_artifact(
            shards, designs=DESIGNS, sizes=(4, 16), budget=100, minimize=True
        )

    def test_valid_document(self):
        shard = {
            "seed": 0,
            "status": "ok",
            "cases": 3,
            "instructions": 100,
            "failures": [],
            "error": None,
        }
        document = self._document([shard])
        assert validate_verify_artifact(document) == []
        assert document["totals"]["failures"] == 0

    def test_problems_reported(self):
        assert validate_verify_artifact([]) == ["artifact is not a JSON object"]
        document = self._document(
            [{"seed": 0, "status": "weird", "failures": [{"nope": 1}]}]
        )
        problems = validate_verify_artifact(document)
        assert any("status" in p for p in problems)
        assert any("missing program/divergences" in p for p in problems)


class TestVerifyCli:
    def test_smoke_run_with_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "verify.json"
        code = verify_main(
            [
                "--seeds",
                "0:2",
                "--budget",
                "40",
                "--json",
                str(artifact),
                "--failures-dir",
                str(tmp_path / "failures"),
            ]
        )
        assert code == 0
        document = json.loads(artifact.read_text())
        assert validate_verify_artifact(document) == []
        assert document["totals"]["shards"] == 2
        out = capsys.readouterr()
        assert "verify: 2 shard(s)" in out.err

    def test_divergence_sets_exit_code(self, monkeypatch, tmp_path, capsys):
        _forwarding_bug(monkeypatch)
        code = verify_main(
            [
                "--seeds",
                "0:1",
                "--budget",
                "300",
                "--sizes",
                "4",
                "--designs",
                "us1",
                "--no-invariants",
                "--failures-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert any(tmp_path.glob("seed*.json"))

    def test_repro_replay(self, monkeypatch, tmp_path, capsys):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        path = write_reproducer(tmp_path, failure)
        code = verify_main(
            ["--repro", str(path), "--sizes", "4", "--designs", "us1", "--no-invariants"]
        )
        assert code == 1
        monkeypatch.undo()
        code = verify_main(
            ["--repro", str(path), "--sizes", "4", "--designs", "us1", "--no-invariants"]
        )
        assert code == 0

    def test_bad_arguments(self, capsys):
        assert verify_main(["--seeds", "5:5"]) == 2
        assert verify_main(["--designs", "warp-drive"]) == 2
        assert verify_main(["--sizes", "0"]) == 2


class TestMainDispatch:
    def test_verify_routed_from_package_main(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            [
                "verify",
                "--seeds",
                "0:1",
                "--budget",
                "30",
                "--failures-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "shard seed=0" in capsys.readouterr().out
