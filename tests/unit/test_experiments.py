"""Unit tests for the experiment drivers E1-E10: structure, invariants
and the paper's qualitative claims (who wins, by what factor, where the
crossovers fall).

The paper-shape checks run each experiment at its default arguments,
which equal the golden sweep point; where several tests share that
outcome, a class-scoped ``outcome`` fixture computes it once.
"""

import pytest

from repro.analysis.asymptotics import evaluate_cell
from repro.analysis.regimes import Regime, regularity_holds
from repro.analysis.three_d import lookup
from repro.experiments import (
    cluster_sweep,
    crossover,
    fig3_timing,
    fig11_table,
    fig12_layout,
    gate_depth,
    ipc_equivalence,
    memory_bw,
    selftimed,
    three_d,
)
from repro.network.fattree import bandwidth_power
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout


class TestFig3:
    def test_run_matches_everything(self):
        outcome = fig3_timing.run()
        # the Ultrascalar I reproduces the published diagram exactly
        assert outcome.matches_paper
        assert outcome.matches_dataflow
        assert len(outcome.ultrascalar_spans) == 8
        assert outcome.cycles == 12
        assert outcome.ultrascalar_spans == fig3_timing.PAPER_FIGURE3_SPANS

    def test_report_contains_table_and_diagram(self):
        text = fig3_timing.report()
        assert "div r3, r1, r2" in text
        assert "#" in text  # diagram bars
        assert "matches paper: True" in text

    def test_paper_spans_constant(self):
        assert fig3_timing.PAPER_FIGURE3_SPANS[0] == (0, 10)
        assert len(fig3_timing.PAPER_FIGURE3_SPANS) == 8


class TestFig11:
    def test_validation_exponents(self):
        v = fig11_table.validate(sizes=[4**k for k in range(3, 8)])
        assert 0.4 < v.us1_exponent < 0.6
        assert 0.85 < v.us2_exponent < 1.1
        assert 0.4 < v.hybrid_exponent < 0.65

    def test_exponents_match_case1_growth_laws(self):
        outcome = fig11_table.validate()
        assert abs(outcome.us1_exponent - 0.5) < 0.06
        assert abs(outcome.us2_exponent - 1.0) < 0.06
        assert abs(outcome.hybrid_exponent - 0.5) < 0.08

    def test_hybrid_dominates_every_regime_and_quantity(self):
        n, L = 1 << 16, 32
        for regime in Regime:
            m = {Regime.CASE1: 1.0, Regime.CASE2: n**0.5, Regime.CASE3: n**0.75}[regime]
            for quantity in ("wire_delay", "total_delay", "area"):
                hybrid = evaluate_cell(regime, "hybrid", quantity, n, L, m)
                us1 = evaluate_cell(regime, "ultrascalar1", quantity, n, L, m)
                us2 = evaluate_cell(regime, "ultrascalar2-linear", quantity, n, L, m)
                assert hybrid <= us1 * 1.001, (regime, quantity)
                assert hybrid <= us2 * 1.001, (regime, quantity)

    def test_incomparability_of_us1_us2(self):
        """US-I and US-II each win somewhere: small n favours US-II wire
        delay, large n favours US-I (the paper's 'incomparable')."""
        small_n, large_n, L = 64, 1 << 16, 64

        def wire(processor, n):
            return evaluate_cell(Regime.CASE1, processor, "wire_delay", n, L, 1)

        assert wire("ultrascalar2-linear", small_n) < wire("ultrascalar1", small_n)
        assert wire("ultrascalar1", large_n) < wire("ultrascalar2-linear", large_n)

    def test_report_renders_all_regimes(self):
        text = fig11_table.report()
        assert text.count("Figure 11") >= 3

    def test_example_values_table(self):
        table = fig11_table.example_values(n=64, L=8)
        assert len(table.rows) == 12  # 3 regimes x 4 processors


class TestFig12:
    @pytest.fixture(scope="class")
    def outcome(self):
        return fig12_layout.run()

    def test_ratio_matches(self, outcome):
        assert outcome.ratio_matches_paper

    def test_density(self, outcome):
        # the hybrid is an order of magnitude denser, ~11.5x
        assert outcome.density_ratio > 8.0
        # absolute calibration: US-I 64-wide lands near 7cm x 7cm
        assert 5.0 < outcome.us1["side_cm"] < 9.0
        assert 10_000 < outcome.us1["stations_per_m2"] < 17_000
        assert 100_000 < outcome.hybrid["stations_per_m2"] < 210_000

    def test_win_holds_across_scales(self):
        """The hybrid's density advantage persists (and grows mildly) with n."""
        for n in (64, 256, 1024):
            us1 = Ultrascalar1Layout(n, 32, 32)
            hybrid = HybridLayout(n * 2, 32, 32, 32)
            assert hybrid.stations_per_m2 / us1.stations_per_m2 > 8.0

    def test_report_shows_both_layouts(self):
        text = fig12_layout.report()
        assert "US-I 64-wide" in text
        assert "Hybrid 128-wide" in text


class TestCrossover:
    @pytest.fixture(scope="class")
    def outcome(self):
        return crossover.run()

    def test_structure(self):
        outcome = crossover.run(L_values=[8, 16], sizes=[16, 256, 4096], n=16384)
        assert set(outcome.crossovers) == {8, 16}
        assert outcome.crossover_tracks_L_squared()

    def test_crossover_at_L_squared(self, outcome):
        # every crossover exists and sits at a fixed multiple of L^2
        assert all(n_star is not None for n_star in outcome.crossovers.values())
        assert outcome.crossover_tracks_L_squared()

    def test_us2_wins_small_us1_wins_large(self, outcome):
        for L, sweep in outcome.ratio_sweep.items():
            small_n_ratio = sweep[0][1]
            large_n_ratio = sweep[-1][1]
            # ratio = US1 wire / US2 wire: big for small n (US2 wins),
            # below 1 for large n (US1 wins)
            assert small_n_ratio > large_n_ratio
            if L <= 32:
                assert large_n_ratio < 1.0

    def test_hybrid_beats_us1_by_sqrt_L(self, outcome):
        assert outcome.hybrid_factor_grows_like_sqrt_L()
        # and the hybrid always wins at large n
        assert all(factor > 1.0 for factor in outcome.hybrid_factors.values())

    def test_report(self):
        assert "crossover" in crossover.report().lower()


class TestClusterSweep:
    @pytest.fixture(scope="class")
    def outcome(self):
        return cluster_sweep.run()

    def test_structure(self):
        outcome = cluster_sweep.run(n=1024, L_values=[8, 32])
        assert outcome.optimum_tracks_L()
        assert set(outcome.best) == {8, 32}

    def test_optimal_cluster_is_theta_L(self, outcome):
        assert outcome.optimum_tracks_L(slack=4.0)
        # the optimum grows monotonically with L
        optima = [outcome.best[L] for L in sorted(outcome.best)]
        assert optima == sorted(optima)

    def test_sweep_has_interior_minimum(self, outcome):
        """U(C) is U-shaped: both tiny and huge clusters lose."""
        for L, sides in outcome.sweeps.items():
            best = outcome.best[L]
            assert sides[best] < sides[1]          # better than no clustering
            assert sides[best] < sides[max(sides)]  # better than one giant cluster

    def test_closed_form_agrees_with_model(self, outcome):
        for L in outcome.best:
            model, closed = outcome.best[L], outcome.closed_form_best[L]
            assert max(model, closed) / min(model, closed) <= 2.0

    def test_report_marks_minimum(self):
        assert "*" in cluster_sweep.report(n=1024)


class TestMemoryBw:
    @pytest.fixture(scope="class")
    def outcome(self):
        return memory_bw.run()

    def test_exponents(self):
        outcome = memory_bw.run(exponents=[0.0, 1.0])
        assert outcome.exponents_match_paper()
        assert outcome.wire_tracks_side()

    def test_side_length_exponents(self, outcome):
        assert outcome.exponents_match_paper(tolerance=0.1)

    def test_wire_length_is_theta_of_side(self, outcome):
        """W(n) = Θ(X(n)) in every regime (the paper's Section 3 solution)."""
        assert outcome.wire_tracks_side()

    def test_bandwidth_dominates_beyond_sqrt(self, outcome):
        """'Memory bandwidth is the dominating factor': in Case 3 the side
        grows strictly faster than Case 1's sqrt(n)."""
        assert outcome.fitted[1.0] > outcome.fitted[0.0] + 0.3
        assert outcome.fitted[0.75] > outcome.fitted[0.0] + 0.1

    def test_regularity_condition(self):
        """The Case 3 analysis requires M(n/4) <= c M(n)/2 — power laws with
        exponent > 1/2 satisfy it, slower ones need not."""
        assert regularity_holds(bandwidth_power(0.75))
        assert regularity_holds(bandwidth_power(1.0))
        assert not regularity_holds(bandwidth_power(0.25))

    def test_report(self):
        assert "case1" in memory_bw.report()


class TestThreeD:
    @pytest.fixture(scope="class")
    def outcome(self):
        return three_d.run()

    def test_improvement_grows(self, outcome):
        assert outcome.improvement_grows_with_L()

    def test_3d_cluster_smaller_than_2d(self, outcome):
        """Optimal C drops from Θ(L) to Θ(L^(3/4)) in three dimensions."""
        for L, c3d in outcome.optimal_cluster_3d.items():
            if L > 1:
                assert c3d < L

    def test_3d_volume_beats_2d_area(self):
        """US-I: 3-D volume Θ(n L^(3/2)) vs 2-D area Θ(n L²) — 3-D wins by
        Θ(sqrt(L)); so does the wire delay."""
        n, L = 4096, 64
        assert n * L**2 / lookup("ultrascalar1", "volume").evaluate(n, L, 0) > 1.0
        assert n**0.5 * L / lookup("ultrascalar1", "wire_delay").evaluate(n, L, 0) > 1.0

    def test_report(self):
        assert "Θ(n L^(3/2))" in three_d.report()


class TestSelfTimed:
    @pytest.fixture(scope="class")
    def outcome(self):
        return selftimed.run()

    def test_locality(self):
        outcome = selftimed.run(sizes=[16, 64])
        assert outcome.at_least_half_local()

    def test_successor_locality(self, outcome):
        # the paper's claim — at least half the successor paths are
        # local — holds at every size (the census finds 3/4)
        assert outcome.at_least_half_local()
        assert all(abs(f - 0.75) < 0.01 for f in outcome.local_fraction.values())

    def test_mean_wire_stays_bounded(self, outcome):
        """Mean successor wire length converges to a constant even as the
        max (the wrap-around hop) grows with sqrt(n) — exactly why a
        self-timed design favours near-neighbour dependence."""
        means = list(outcome.mean_wire.values())
        maxes = list(outcome.max_wire.values())
        assert means[-1] < 4.5          # bounded mean
        assert maxes[-1] > maxes[0] * 3  # growing worst case

    def test_report(self):
        assert "%" in selftimed.report()


class TestGateDepth:
    @pytest.fixture(scope="class")
    def outcome(self):
        return gate_depth.run()

    def test_small_sweep(self):
        outcome = gate_depth.run(sizes=[4, 8, 16])
        assert outcome.ring_times == [4, 8, 16]
        assert outcome.cspp_exponent < 0.7

    def test_settle_time_growth(self, outcome):
        # linear families
        assert 0.85 <= outcome.ring_exponent <= 1.1
        assert 0.85 <= outcome.grid_exponent <= 1.1
        # logarithmic families (power-law exponent far below sqrt)
        assert outcome.cspp_exponent < 0.6
        assert outcome.tree_grid_exponent < 0.5

    def test_cspp_beats_ring_everywhere(self, outcome):
        for ring, cspp in zip(outcome.ring_times, outcome.cspp_times):
            if ring > 4:
                assert cspp < ring

    def test_tree_grid_beats_linear_grid_at_scale(self, outcome):
        assert outcome.tree_grid_times[-1] < outcome.grid_times[-1]

    def test_cspp_settle_additive_per_doubling(self, outcome):
        """Θ(log n): each doubling of n adds a constant number of gate delays."""
        diffs = [b - a for a, b in zip(outcome.cspp_times, outcome.cspp_times[1:])]
        assert max(diffs) <= 3

    def test_report(self):
        assert "fitted exponents" in gate_depth.report(sizes=[4, 8])


class TestIpcEquivalence:
    @pytest.fixture(scope="class")
    def outcome(self):
        return ipc_equivalence.run()

    def test_full_run(self, outcome):
        assert outcome.us1_always_matches()
        assert outcome.us2_never_faster()

    def test_conventional_delay_quadratic_vs_log(self, outcome):
        conventional = outcome.conventional_delays
        ultrascalar = outcome.ultrascalar_gate_delays
        widths = sorted(conventional)
        # conventional delay grows super-linearly; ultrascalar adds a
        # constant per doubling
        conv_growth = conventional[widths[-1]] / conventional[widths[-3]]
        assert conv_growth > (widths[-1] / widths[-3]) * 1.5
        us_diffs = [ultrascalar[b] - ultrascalar[a] for a, b in zip(widths, widths[1:])]
        assert max(us_diffs) <= 1.01
        # and the ultrascalar wins decisively at high issue width
        assert ultrascalar[widths[-1]] < conventional[widths[-1]] / 10

    def test_report(self):
        text = ipc_equivalence.report()
        assert "Dataflow" in text
        assert "Conventional" in text
