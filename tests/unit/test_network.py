"""Unit tests for the network substrates (H-tree, fat-tree)."""

import math

import pytest

from repro.network.fattree import (
    FatTree,
    bandwidth_constant,
    bandwidth_linear,
    bandwidth_power,
)
from repro.network.htree import (
    htree_leaf_positions,
    htree_side_length,
    is_power_of_4,
    lca_level,
    successor_tree_distances,
    successor_wire_lengths,
    wire_length_root_to_leaf,
)

class TestHTreeGeometry:
    def test_power_of_4_check(self):
        assert is_power_of_4(1) and is_power_of_4(4) and is_power_of_4(64)
        assert not is_power_of_4(2) and not is_power_of_4(8) and not is_power_of_4(0)

    @pytest.mark.parametrize("n", [2, 8, 32, 0])
    def test_rejects_non_power_of_4(self, n):
        with pytest.raises(ValueError):
            htree_leaf_positions(n)

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    def test_side_length(self, n):
        assert htree_side_length(n) == math.isqrt(n)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_leaves_fill_the_square_exactly(self, n):
        positions = htree_leaf_positions(n)
        side = htree_side_length(n)
        assert positions.shape == (n, 2)
        coords = {(int(x), int(y)) for x, y in positions}
        assert coords == {(x, y) for x in range(side) for y in range(side)}

    def test_quadrants_hold_contiguous_blocks(self):
        positions = htree_leaf_positions(16)
        # stations 0..3 in one 2x2 quadrant, 4..7 in the next, etc.
        for q in range(4):
            block = positions[4 * q : 4 * (q + 1)]
            assert block[:, 0].max() - block[:, 0].min() == 1
            assert block[:, 1].max() - block[:, 1].min() == 1

    def test_root_to_leaf_wire_length_is_sqrt_n(self):
        # W(n) = sum side/2 over levels ~ sqrt(n)
        for n in (16, 64, 256):
            w = wire_length_root_to_leaf(n)
            assert w == pytest.approx(math.isqrt(n) - 1, rel=0.01)

    def test_lca_level(self):
        assert lca_level(0, 0, 16) == 0
        assert lca_level(0, 1, 16) == 1
        assert lca_level(0, 3, 16) == 1
        assert lca_level(0, 4, 16) == 2
        assert lca_level(3, 12, 16) == 2

    def test_lca_range_checked(self):
        with pytest.raises(ValueError):
            lca_level(0, 16, 16)


class TestSuccessorCensus:
    """The paper's self-timed argument: successor paths are mostly local."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_at_least_half_of_successor_paths_are_local(self, n):
        distances = successor_tree_distances(n)
        local = sum(1 for d in distances if d <= 1)
        assert local / n >= 0.5

    def test_exactly_three_quarters_within_level_1(self):
        # contiguous quadrant assignment: 3 of every 4 hops stay in a
        # 4-leaf subtree
        distances = successor_tree_distances(64)
        assert sum(1 for d in distances if d == 1) == 48

    def test_wire_lengths_match_distances(self):
        lengths = successor_wire_lengths(16)
        distances = successor_tree_distances(16)
        for length, dist in zip(lengths, distances):
            assert (length == 0) == (dist == 0)
            if dist == 1:
                assert length == 2.0 * (2 / 2)  # up one level and back


class TestFatTree:
    def test_level_capacities_follow_bandwidth(self):
        tree = FatTree(64, bandwidth_power(0.5), radix=4)
        # level k uplink leaves a subtree of 4**(k+1) leaves
        assert tree.level_capacity[0] == math.ceil(4**0.5)
        assert tree.level_capacity[2] == math.ceil(64**0.5)

    def test_root_capacity_is_m_of_n(self):
        assert FatTree(64, bandwidth_linear(1.0)).root_capacity() == 64
        assert FatTree(64, bandwidth_constant(2.0)).root_capacity() == 2

    def test_admission_respects_root_capacity(self):
        tree = FatTree(16, bandwidth_constant(2.0), radix=4)
        routing = tree.admit([0, 5, 10, 15])
        assert len(routing.granted) == 2
        assert len(routing.denied) == 2

    def test_oldest_first_priority(self):
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        routing = tree.admit([3, 7])
        assert routing.granted == (0,)
        assert routing.denied == (1,)

    def test_leaf_level_conflicts(self):
        tree = FatTree(16, bandwidth_constant(16.0), radix=4)
        # both requests from the same 4-leaf subtree share the level-0 uplink
        tree.level_capacity[0] = 1
        routing = tree.admit([0, 1])
        assert routing.granted == (0,)

    def test_full_bandwidth_admits_everything(self):
        tree = FatTree(16, bandwidth_linear(1.0), radix=4)
        routing = tree.admit(list(range(16)))
        assert len(routing.granted) == 16

    def test_path_groups(self):
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        assert tree.path_groups(5) == [(0, 1), (1, 0)]
        with pytest.raises(ValueError):
            tree.path_groups(16)

    def test_wire_count(self):
        tree = FatTree(16, bandwidth_linear(1.0), radix=4)
        assert tree.wire_count_at_level(0, 32) == tree.level_capacity[0] * 32

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTree(0, bandwidth_constant())
        with pytest.raises(ValueError):
            FatTree(4, bandwidth_constant(), radix=1)

