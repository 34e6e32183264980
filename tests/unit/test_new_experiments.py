"""Unit tests for the later experiment drivers (E12-E16).

Each class computes its experiment once at the default arguments, which
equal the golden sweep point, in a class-scoped ``outcome`` fixture; a
``small`` fixture holds the cheaper sweep some structural tests use.
"""

import pytest

from repro.experiments import (
    dominance_map,
    ilp_limits,
    one_cm_chip,
    performance_projection,
    window_vs_issue,
)
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.hybrid_layout import HybridLayout
from repro.vlsi.tech import PAPER_TECH


class TestWindowVsIssue:
    """The Memo-2 scheduler decouples window size from issue width."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return window_vs_issue.run()

    def test_monotone_both_axes(self, outcome):
        assert outcome.monotone_in_window()
        assert outcome.monotone_in_alus()

    def test_one_alu_pins_ipc(self, outcome):
        assert outcome.ipc_at(16, 1) <= 1.05

    def test_window_finds_parallelism_alus_execute_it(self, outcome):
        """A large window with few ALUs beats a small window with many:
        the window discovers ILP; ALUs merely retire it."""
        assert outcome.ipc_at(64, 4) > outcome.ipc_at(4, 16) * 1.3

    def test_saturation_along_both_axes(self, outcome):
        # one ALU: IPC pinned at ~1 regardless of window
        one_alu = [outcome.ipc_at(w, 1) for w in outcome.windows]
        assert max(one_alu) - min(one_alu) < 0.1
        # tiny window: extra ALUs past the window's ILP do nothing
        assert outcome.ipc_at(4, 8) == outcome.ipc_at(4, 16)

    def test_wraparound_area_tax(self):
        """The paper's aside: wrap-around support for the Ultrascalar II
        'appears to cost nearly a factor of two in area'."""
        plain = Ultrascalar2Layout(256, 32).area
        wrapped = Ultrascalar2Layout(256, 32, wraparound=True).area
        assert 1.8 < wrapped / plain < 2.2


class TestDominanceMap:
    @pytest.fixture(scope="class")
    def outcome(self):
        return dominance_map.run()

    @pytest.fixture(scope="class")
    def small(self):
        return dominance_map.run(sizes=[16, 256, 4096], L_values=[8, 64])

    def test_incomparability(self, small, outcome):
        # "The Ultrascalar I and Ultrascalar II are incomparable, each
        # beating the other in certain cases."
        for result in (small, outcome):
            assert result.us1_wins_somewhere()
            assert result.us2_wins_somewhere()

    def test_monotone_boundary(self, small, outcome):
        """Each register-file size has one crossover (n = Θ(L²)), not a
        patchwork: the winner flips exactly once as n grows."""
        assert small.pairwise_boundary_is_monotone()
        assert outcome.pairwise_boundary_is_monotone()

    def test_full_coverage(self, small):
        assert len(small.winner_pairwise) == 6
        assert set(small.winner_overall.values()) <= {"US1", "US2", "HYB"}

    def test_hybrid_dominates_at_scale(self, outcome):
        """"For n >= L the hybrid dominates both" — asymptotically: every
        grid cell with n >= 16 L goes to the hybrid."""
        assert outcome.hybrid_wins_at_scale(factor=16)

    def test_crossover_diagonal_tracks_L_squared(self, outcome):
        """The US1/US2 boundary moves diagonally: quadrupling L pushes the
        crossover 16x in n."""

        def first_us1_n(L):
            for n in outcome.n_values:
                if outcome.winner_pairwise[(n, L)] == "US1":
                    return n
            return None

        n_at_8 = first_us1_n(8)
        n_at_32 = first_us1_n(32)
        assert n_at_8 is not None and n_at_32 is not None
        assert n_at_32 == 16 * n_at_8

    def test_report_shows_both_maps(self):
        text = dominance_map.report()
        assert "incomparability" in text
        assert "Overall winner" in text


class TestPerformanceProjection:
    @pytest.fixture(scope="class")
    def outcome(self):
        return performance_projection.run()

    @pytest.fixture(scope="class")
    def small(self):
        return performance_projection.run(sizes=[16, 256])

    def test_conventional_collapses(self, small, outcome):
        perf = [row.conventional_performance for row in small.rows]
        assert perf[-1] < perf[0]
        # the quadratic conventional machine wins small, then collapses —
        # exactly why it was built in 1999 and why it cannot scale
        assert outcome.conventional_collapses()

    def test_rows_carry_all_designs(self, small):
        for row in small.rows:
            assert row.us1.clock.processor == "ultrascalar1"
            assert row.hybrid.clock.processor == "hybrid"
            assert row.ipc > 0

    def test_hybrid_wins_at_scale(self, outcome):
        # at the largest window, the hybrid posts the best projection
        assert outcome.hybrid_wins_at_scale()

    def test_hybrid_beats_us1_in_projection_everywhere(self, outcome):
        for row in outcome.rows:
            assert row.hybrid.instructions_per_time >= row.us1.instructions_per_time

    def test_clock_periods_ordering(self, outcome):
        """Clock periods: hybrid <= US-I at scale; all grow with n."""
        us1_periods = [row.us1.clock.period for row in outcome.rows]
        hybrid_periods = [row.hybrid.clock.period for row in outcome.rows]
        assert us1_periods == sorted(us1_periods)
        assert hybrid_periods == sorted(hybrid_periods)
        assert hybrid_periods[-1] < us1_periods[-1]


class TestIlpLimits:
    @pytest.fixture(scope="class")
    def outcome(self):
        return ilp_limits.run()

    @pytest.fixture(scope="class")
    def small(self):
        return ilp_limits.run(densities=[0.2, 0.8], sizes=[8, 64, 512], instructions=1500)

    def test_curves_monotone(self, small, outcome):
        assert all(curve.monotone() for curve in small.curves)
        assert all(curve.monotone() for curve in outcome.curves)

    def test_density_ordering(self, small, outcome):
        assert small.looser_code_has_more_ilp()
        assert outcome.looser_code_has_more_ilp()

    def test_thousand_wide_window_pays(self, outcome):
        # the thousand-wide-window claim (Patt et al., as the paper
        # cites): 128 -> 2048 still multiplies IPC by >= 1.5x at every
        # density
        assert outcome.thousand_wide_window_pays(factor=1.5)

    def test_gain_beyond_uses_nearest_window(self, small):
        curve = small.curves[0]
        assert curve.gain_beyond(100) == pytest.approx(
            curve.saturation_ipc / curve.ipc[curve.windows.index(512)]
        )


class TestOneCmChip:
    @pytest.fixture(scope="class")
    def outcome(self):
        return one_cm_chip.run()

    def test_fits(self, outcome):
        assert outcome.fits_one_cm
        assert outcome.area_cm2 < 1.0
        # and the configuration actually computes, at a healthy IPC
        assert outcome.ipc > 4.0

    def test_shrink_factor(self):
        assert one_cm_chip.SHRINK == pytest.approx(0.1 / 0.35)
        assert one_cm_chip.TECH_01UM.track_um < 2.0

    def test_shrink_is_consistent(self):
        """The 0.1 um projection is exactly a linear shrink of the calibrated
        0.35 um model — same tracks, smaller track."""
        big = HybridLayout(128, 32, 32, tech=PAPER_TECH)
        small = HybridLayout(128, 32, 32, tech=one_cm_chip.TECH_01UM)
        assert big.side_length() == small.side_length()  # identical geometry in tracks
        assert one_cm_chip.SHRINK < 1.0

    def test_report_renders(self):
        text = one_cm_chip.report()
        assert "1 cm" in text
        assert "0.1 um" in text
