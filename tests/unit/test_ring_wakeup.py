"""Wakeup-list edge cases of the ring engine.

Issue walks only stations whose producers have all finished; a producer
that finishes wakes its consumers, which join the ready list at the next
issue phase.  Each case below pins the cycle count, every
``TimingRecord`` and the issue counters the engine produced before it
had wakeup lists (when issue walked every waiting station), and runs
under the invariant checker.
"""

from __future__ import annotations

from repro.frontend.branch_predictor import AlwaysNotTaken
from repro.isa import assemble
from repro.telemetry import CountingTracer
from repro.ultrascalar import IdealMemory, ProcessorConfig
from repro.ultrascalar.ring import RingProcessor
from repro.verify import InvariantChecker


def _run(source: str, **config):
    tracer = CountingTracer()
    engine = RingProcessor(
        assemble(source),
        ProcessorConfig(**config),
        predictor=AlwaysNotTaken(),
        memory=IdealMemory(),
        tracer=tracer,
        cycle_hook=InvariantChecker(),
    )
    result = engine.run()
    timings = [
        (t.static_index, t.fetch_cycle, t.issue_cycle, t.complete_cycle, t.commit_cycle)
        for t in result.timings
    ]
    issue = {k: v for k, v in result.stats.items() if k.startswith("issue.")}
    return result, timings, issue


def test_consumer_woken_then_squashed_in_the_same_execute_phase():
    # The mul (older than the branch) finishes in the execute phase in
    # which the branch resolves mispredicted: it wakes `addi r4`, which
    # is younger than the branch and squashed a moment later.  The
    # correct path then refills that station with `addi r6`.
    result, timings, issue = _run(
        "li r2, 5\nli r3, 5\nmul r1, r2, r3\naddi r7, r2, 0\naddi r7, r7, 0\n"
        "beq r7, r3, @9\naddi r4, r1, 1\naddi r5, r4, 1\nhalt\n"
        "addi r6, r1, 2\nhalt",
        window_size=16,
        fetch_width=16,
    )
    assert (result.cycles, result.squashed, result.mispredictions) == (5, 3, 1)
    assert result.registers[:8] == [0, 25, 5, 5, 0, 0, 27, 5]
    assert timings == [
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 1, 3, 3), (3, 0, 1, 1, 3),
        (4, 0, 2, 2, 3), (5, 0, 3, 3, 3), (9, 4, 4, 4, 4), (10, 4, 4, 4, 4),
    ]
    assert issue == {"issue.cycles_active": 5, "issue.instructions": 9}


def test_woken_self_timed_consumer_waits_for_the_h_tree():
    # Both consumers of r1 are woken when the li finishes in cycle 0.
    # The neighbour (one H-tree level away) issues at cycle 1; station
    # 40, three levels away, stays on the ready list until cycle 3.
    result, timings, issue = _run(
        "li r1, 5\naddi r4, r1, 3\n" + "nop\n" * 38 + "addi r2, r1, 1\nhalt",
        window_size=64,
        fetch_width=64,
        self_timed=True,
    )
    assert result.cycles == 4
    assert result.registers[:5] == [0, 5, 6, 0, 8]
    assert timings[:2] == [(0, 0, 0, 0, 0), (1, 0, 1, 1, 1)]
    assert timings[2:40] == [(pc, 0, 0, 0, 1) for pc in range(2, 40)]
    assert timings[40:] == [(40, 0, 3, 3, 3), (41, 0, 0, 0, 3)]
    assert issue == {"issue.cycles_active": 3, "issue.instructions": 42}


def test_candidate_denied_an_alu_retries_next_cycle():
    # One shared ALU: the ready candidates issue one per cycle, oldest
    # first; HALT needs no ALU and issues at once.
    result, timings, issue = _run(
        "li r1, 1\nli r2, 2\naddi r3, r1, 1\naddi r4, r2, 1\nadd r5, r3, r4\nhalt",
        window_size=8,
        fetch_width=8,
        num_alus=1,
    )
    assert result.cycles == 5
    assert result.registers[:6] == [0, 1, 2, 2, 3, 5]
    assert timings == [
        (0, 0, 0, 0, 0), (1, 0, 1, 1, 1), (2, 0, 2, 2, 2), (3, 0, 3, 3, 3),
        (4, 0, 4, 4, 4), (5, 0, 0, 0, 4),
    ]
    assert issue == {
        "issue.alu_denied": 3,
        "issue.cycles_active": 5,
        "issue.instructions": 6,
    }


def test_loads_behind_an_unfinished_store_wait_for_it():
    # Both loads have their address operand from cycle 0, but the store
    # ahead of them waits for the div until cycle 10 and finishes in 11:
    # neither load may issue before cycle 12, whatever its address.
    result, timings, issue = _run(
        "li r1, 7\nli r2, 3\ndiv r3, r1, r2\nsw r3, 0(r28)\nlw r4, 4(r28)\n"
        "lw r5, 0(r28)\naddi r6, r4, 1\nhalt",
        window_size=8,
        fetch_width=8,
    )
    assert result.cycles == 14
    assert result.registers[:7] == [0, 7, 3, 2, 0, 2, 1]
    assert timings == [
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 1, 10, 10), (3, 0, 11, 11, 11),
        (4, 0, 12, 12, 12), (5, 0, 12, 12, 12), (6, 0, 13, 13, 13), (7, 0, 0, 0, 13),
    ]
    assert issue == {"issue.cycles_active": 5, "issue.instructions": 8}
