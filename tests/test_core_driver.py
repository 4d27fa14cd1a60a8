"""Unit tests for FIND-MAX-CLIQUES (the end-to-end driver)."""

from __future__ import annotations

import warnings

import pytest

from conftest import FIGURE1_CLIQUES, nx_cliques
from repro.core.driver import decompose_only, decompose_only_csr, find_max_cliques
from repro.errors import ConvergenceError
from repro.graph.adjacency import Graph
from repro.graph.cores import degeneracy
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    h_n,
    social_network,
    star_graph,
)
from repro.mce.registry import Combo


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [6, 10, 20, 50])
    def test_matches_networkx_random(self, seed, m):
        g = erdos_renyi(30, 0.25, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = find_max_cliques(g, m)
        assert len(result.cliques) == len(set(result.cliques))
        assert set(result.cliques) == nx_cliques(g)

    def test_matches_networkx_social(self):
        g = social_network(150, attachment=3, planted_cliques=(9,), seed=2)
        result = find_max_cliques(g, 25)
        assert set(result.cliques) == nx_cliques(g)

    def test_figure1_complete_output(self, figure1):
        result = find_max_cliques(figure1, 5)
        assert set(result.cliques) == FIGURE1_CLIQUES

    def test_figure1_hub_clique_provenance(self, figure1):
        # {D, S, E} is found in the recursion on the hub triangle.
        result = find_max_cliques(figure1, 5)
        assert result.provenance[frozenset({"D", "S", "E"})] == 1
        assert result.provenance[frozenset({"A", "J", "H"})] == 0
        assert result.hub_cliques() == [frozenset({"D", "S", "E"})]

    def test_empty_graph(self):
        result = find_max_cliques(Graph(), 5)
        assert result.cliques == []
        assert result.recursion_depth == 0

    def test_isolated_nodes(self):
        g = Graph(nodes=[1, 2])
        result = find_max_cliques(g, 3)
        assert set(result.cliques) == {frozenset({1}), frozenset({2})}

    def test_star_small_m(self):
        g = star_graph(8)
        result = find_max_cliques(g, 4)
        assert set(result.cliques) == nx_cliques(g)


class TestRecursion:
    def test_depth_grows_as_m_shrinks(self):
        g = social_network(200, attachment=4, planted_cliques=(10,), seed=5)
        d = g.max_degree()
        depths = []
        for ratio in (0.9, 0.3):
            result = find_max_cliques(g, max(int(ratio * d), degeneracy(g) + 1))
            depths.append(result.recursion_depth)
        assert depths[1] >= depths[0]

    def test_level_stats_shrinking(self):
        g = social_network(200, attachment=4, planted_cliques=(10,), seed=5)
        result = find_max_cliques(g, degeneracy(g) + 10)
        sizes = [level.num_nodes for level in result.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert all(s1 > s2 for s1, s2 in zip(sizes, sizes[1:]))

    def test_level_zero_counts(self):
        g = social_network(120, attachment=3, seed=6)
        result = find_max_cliques(g, 20)
        level0 = result.levels[0]
        assert level0.num_nodes == g.num_nodes
        assert level0.num_feasible + level0.num_hubs == g.num_nodes


class TestConvergenceGuard:
    def test_raise_mode(self):
        with pytest.raises(ConvergenceError) as excinfo:
            find_max_cliques(complete_graph(6), 3, fallback="raise")
        assert excinfo.value.core_size == 6

    def test_exact_fallback_warns_and_is_correct(self):
        g = complete_graph(6)
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = find_max_cliques(g, 3)
        assert result.fallback_used
        assert set(result.cliques) == {frozenset(range(6))}

    def test_fallback_at_deeper_level(self):
        # Feasible at level 0, but the hub core is too dense for m.
        g = complete_graph(8)
        g.add_edge(0, "pendant")
        with pytest.warns(RuntimeWarning):
            result = find_max_cliques(g, 6)
        assert result.fallback_used
        assert set(result.cliques) == nx_cliques(g)

    def test_h_n_converges_with_m_above_degeneracy(self):
        m_construction = 3
        g = h_n(25, m_construction)
        result = find_max_cliques(g, m_construction + 2, fallback="raise")
        assert set(result.cliques) == nx_cliques(g)
        # The pathological structure forces many recursion rounds.
        assert result.recursion_depth > 5

    def test_unknown_fallback(self):
        with pytest.raises(ValueError):
            find_max_cliques(Graph(), 3, fallback="retry")

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            find_max_cliques(Graph(), 0)

    def test_split_threshold_without_split(self):
        with pytest.raises(ValueError, match="split_threshold requires split"):
            find_max_cliques(complete_graph(4), 5, split_threshold=0.0)

    def test_batch_cutoff_without_batch_blocks(self):
        with pytest.raises(ValueError, match="batch_cutoff requires batch_blocks"):
            find_max_cliques(complete_graph(4), 5, batch_cutoff=64)


class TestOptions:
    def test_forced_combo(self):
        g = erdos_renyi(25, 0.3, seed=1)
        combo = Combo("tomita", "matrix")
        result = find_max_cliques(g, 10, combo=combo)
        assert set(result.block_combos) == {combo.name}
        assert set(result.cliques) == nx_cliques(g)

    def test_collect_reports(self):
        g = erdos_renyi(25, 0.3, seed=2)
        result = find_max_cliques(g, 10, collect_reports=True)
        assert len(result.block_reports) == result.recursion_depth
        for level, reports in zip(result.levels, result.block_reports):
            assert len(reports) == level.num_blocks

    def test_reports_not_collected_by_default(self):
        g = erdos_renyi(25, 0.3, seed=2)
        assert find_max_cliques(g, 10).block_reports == []

    def test_min_adjacency_changes_blocks_not_output(self):
        g = social_network(100, attachment=3, seed=8)
        loose = find_max_cliques(g, 20, min_adjacency=1)
        strict = find_max_cliques(g, 20, min_adjacency=3)
        assert set(loose.cliques) == set(strict.cliques)


class TestResultAccessors:
    def test_sizes(self):
        g = social_network(100, attachment=3, planted_cliques=(8,), seed=9)
        result = find_max_cliques(g, 20)
        assert result.max_clique_size() >= 8
        assert 0 < result.average_clique_size() <= result.max_clique_size()

    def test_largest_k(self):
        g = social_network(100, attachment=3, planted_cliques=(8,), seed=9)
        result = find_max_cliques(g, 20)
        top = result.largest(5)
        assert len(top) == 5
        assert len(top[0]) >= len(top[-1])

    def test_largest_negative(self):
        result = find_max_cliques(Graph(), 3)
        with pytest.raises(ValueError):
            result.largest(-1)

    def test_hub_share_bounds(self):
        g = social_network(100, attachment=4, planted_cliques=(8,), seed=10)
        result = find_max_cliques(g, 15)
        assert 0.0 <= result.hub_share_of_largest(50) <= 1.0

    def test_timing_totals(self):
        g = erdos_renyi(25, 0.3, seed=3)
        result = find_max_cliques(g, 10)
        assert result.total_decomposition_seconds() > 0.0
        assert result.total_analysis_seconds() > 0.0

    def test_repr(self):
        result = find_max_cliques(complete_graph(4), 5)
        assert "cliques=1" in repr(result)


class TestDecomposeOnly:
    def test_stats_match_driver(self):
        g = social_network(120, attachment=3, seed=11)
        stats, iterations = decompose_only_csr(g, 20)
        full = find_max_cliques(g, 20)
        assert iterations == full.recursion_depth
        assert [s.num_blocks for s in stats] == [
            level.num_blocks for level in full.levels
        ]
        # The dict reference grows a different partition, but the
        # partition-invariant counts agree.
        reference, reference_iterations = decompose_only(g, 20)
        assert reference_iterations == iterations
        assert [(s.num_feasible, s.num_hubs) for s in reference] == [
            (s.num_feasible, s.num_hubs) for s in stats
        ]

    def test_nonconvergent_stops_quietly_by_default(self):
        stats, iterations = decompose_only(complete_graph(6), 3)
        assert iterations == 0

    def test_nonconvergent_raise(self):
        with pytest.raises(ConvergenceError):
            decompose_only(complete_graph(6), 3, fallback="raise")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            decompose_only(Graph(), 0)
        with pytest.raises(ValueError):
            decompose_only(Graph(), 3, fallback="nope")
