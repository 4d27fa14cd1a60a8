"""Property-based invariants of the CSR-native two-level decomposition.

The CSR path (``cut_csr`` / ``blocks_csr`` / ``induced_csr``) must obey
the same structural guarantees as the dict path, and the two paths must
agree on everything that is invariant to the kernel partition: the
feasible/hub split of every level, the level node/edge counts, and the
final clique sets.  Block *shapes* are allowed to differ — the greedy
growth sees candidates in different orders — which is exactly why these
tests pin partition-invariant quantities and not block memberships.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import blocks_csr, build_blocks
from repro.core.driver import decompose_only, decompose_only_csr
from repro.core.feasibility import cut, cut_csr
from repro.errors import DecompositionError
from repro.graph.adjacency import Graph
from repro.graph.cores import degeneracy
from repro.graph.csr import CSRGraph, induced_csr
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import barabasi_albert, social_network
from repro.graph.views import induced_subgraph


@st.composite
def graphs(draw, max_nodes: int = 14):
    """A random simple graph, possibly with isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    return Graph(edges=edges, nodes=range(n))


block_sizes = st.integers(min_value=2, max_value=16)


class TestCutCSR:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), block_sizes)
    def test_matches_dict_cut(self, graph, m):
        feasible, hubs = cut(graph, m)
        csr = CSRGraph(graph)
        feasible_ids, hub_ids = cut_csr(csr, m)
        assert {csr.label(int(i)) for i in feasible_ids} == set(feasible)
        assert {csr.label(int(i)) for i in hub_ids} == set(hubs)

    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_sizes)
    def test_partitions_all_nodes(self, graph, m):
        csr = CSRGraph(graph)
        feasible_ids, hub_ids = cut_csr(csr, m)
        merged = np.concatenate([feasible_ids, hub_ids])
        assert sorted(merged.tolist()) == list(range(csr.num_nodes))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            cut_csr(CSRGraph(Graph(nodes=[0])), 0)


class TestBlocksCSRInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), block_sizes)
    def test_kernels_partition_feasible_set(self, graph, m):
        csr = CSRGraph(graph)
        feasible_ids, _ = cut_csr(csr, m)
        seen: list[int] = []
        for descriptor in blocks_csr(csr, feasible_ids, m):
            seen.extend(descriptor.kernel_ids.tolist())
        assert sorted(seen) == sorted(feasible_ids.tolist())
        assert len(seen) == len(set(seen))

    @settings(max_examples=60, deadline=None)
    @given(graphs(), block_sizes)
    def test_blocks_contain_full_kernel_neighbourhoods(self, graph, m):
        csr = CSRGraph(graph)
        feasible_ids, _ = cut_csr(csr, m)
        for descriptor in blocks_csr(csr, feasible_ids, m):
            members = set(descriptor.kernel_ids.tolist())
            members.update(descriptor.border_ids.tolist())
            members.update(descriptor.visited_ids.tolist())
            assert len(members) <= m
            for kernel in descriptor.kernel_ids.tolist():
                row = set(csr.neighbor_indices(kernel).tolist())
                assert row <= members

    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_sizes)
    def test_visited_are_earlier_kernels(self, graph, m):
        csr = CSRGraph(graph)
        feasible_ids, _ = cut_csr(csr, m)
        used: set[int] = set()
        for descriptor in blocks_csr(csr, feasible_ids, m):
            visited = descriptor.visited_ids.tolist()
            border = descriptor.border_ids.tolist()
            assert set(visited) <= used
            assert not set(border) & used & set(feasible_ids.tolist())
            assert visited == sorted(visited)
            assert border == sorted(border)
            used.update(descriptor.kernel_ids.tolist())

    def test_oversized_neighbourhood_raises(self):
        # A feasible seed whose closed neighbourhood exceeds m on its own
        # cannot seed any block: the dict path raises the same error.
        star = Graph(edges=[(0, i) for i in range(1, 5)])
        csr = CSRGraph(star)
        feasible_ids = np.arange(csr.num_nodes, dtype=np.int64)
        with pytest.raises(DecompositionError):
            list(blocks_csr(csr, feasible_ids, 3))
        with pytest.raises(DecompositionError):
            build_blocks(star, list(star.nodes()), 3)


class TestHubRecursion:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), block_sizes)
    def test_hub_degrees_never_increase(self, graph, m):
        """Each surviving hub's degree is non-increasing level to level.

        (Strict decrease of the *maximum* hub degree is not universal —
        a hub clique can keep every neighbour for a level — but holds on
        scale-free networks; see ``test_strict_decrease_on_social``.)
        """
        csr = CSRGraph(graph)
        for _ in range(csr.num_nodes + 1):
            feasible_ids, hub_ids = cut_csr(csr, m)
            if not len(feasible_ids) or not len(hub_ids):
                break
            before = {
                csr.label(int(i)): int(d)
                for i, d in zip(hub_ids, csr.degree_array()[hub_ids])
            }
            smaller = induced_csr(csr, hub_ids)
            assert smaller.num_nodes < csr.num_nodes
            after = dict(zip(smaller.labels, smaller.degree_array().tolist()))
            assert set(after) == set(before)
            assert all(after[node] <= before[node] for node in after)
            csr = smaller

    @pytest.mark.parametrize(
        "graph",
        [
            social_network(150, attachment=3, planted_cliques=(6, 5), seed=7),
            social_network(400, attachment=4, closure_probability=0.3, seed=5),
            barabasi_albert(500, 4, seed=1),
        ],
        ids=["social-150", "social-400", "ba-500"],
    )
    def test_strict_decrease_on_social(self, graph):
        m = degeneracy(graph) + 2
        csr = CSRGraph(graph)
        maxima = []
        while csr.num_nodes:
            feasible_ids, hub_ids = cut_csr(csr, m)
            assert len(feasible_ids), "m above degeneracy must converge"
            if not len(hub_ids):
                break
            maxima.append(int(csr.degree_array()[hub_ids].max()))
            csr = induced_csr(csr, hub_ids)
        assert len(maxima) >= 2, "fixture must recurse at least twice"
        assert all(b < a for a, b in zip(maxima, maxima[1:]))


class TestDictVsCSRPinned:
    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_sizes)
    def test_level_stats_pinned(self, graph, m):
        """Node/edge/feasible/hub counts per level agree across paths.

        Block counts may differ (different kernel partitions); the
        feasible/hub split and the residual graphs may not.
        """
        dict_levels, dict_depth = decompose_only(graph, m, fallback="exact")
        csr_levels, csr_depth = decompose_only_csr(graph, m, fallback="exact")
        assert dict_depth == csr_depth
        assert len(dict_levels) == len(csr_levels)
        for ours, theirs in zip(dict_levels, csr_levels):
            assert ours.level == theirs.level
            assert ours.num_nodes == theirs.num_nodes
            assert ours.num_edges == theirs.num_edges
            assert ours.num_feasible == theirs.num_feasible
            assert ours.num_hubs == theirs.num_hubs
            assert ours.fallback_used == theirs.fallback_used


# sha256 over every level's descriptor id arrays (see partition_digest)
# for each stand-in at m = d/2, generated by an independent numpy
# implementation of the same growth rule (adjacency counters plus a
# heap per count), so the pins check the rule, not one implementation.
PINNED_PARTITIONS = {
    "facebook": "19ed358cb2a2da1ca511a352948ce794c9c66e566e48aa6fbd413be684edf886",
    "google+": "5dc689374bdc46156efa402c5ca58fc8ba7f895fe4db7b887c493fdf963ba556",
    "twitter1": "d96f91b576ca1b02ce5d33be4d94133d8fc88f9d720e263b361c91c90dc0652d",
    "twitter2": "6b446d2ccadd228e3c625cf74e117ff07bbde4b7cdc9ace61d5acf97f9b7f1c3",
    "twitter3": "7599a98ba3a21048be83e69b49638436b7392726d2b8a562152c17d7e1bd96f2",
}


def partition_digest(graph: Graph, m: int) -> str:
    """Digest of the exact ``blocks_csr`` partition of every level."""
    digest = hashlib.sha256()
    csr = CSRGraph(graph)
    level = 0
    while csr.num_nodes:
        feasible, hubs = cut_csr(csr, m)
        if not len(feasible):
            break
        for descriptor in blocks_csr(csr, feasible, m):
            digest.update(f"{level}:{descriptor.block_id}|".encode())
            for ids in (
                descriptor.kernel_ids,
                descriptor.border_ids,
                descriptor.visited_ids,
            ):
                digest.update(np.asarray(ids, dtype=np.int64).tobytes())
                digest.update(b"|")
        if not len(hubs):
            break
        csr = induced_csr(csr, hubs)
        level += 1
    return digest.hexdigest()


class TestPinnedPartition:
    @pytest.mark.parametrize("name", sorted(DATASET_NAMES))
    def test_stand_in_partition_is_pinned(self, name):
        graph = load_dataset(name)
        m = max(2, graph.max_degree() // 2)
        assert partition_digest(graph, m) == PINNED_PARTITIONS[name]


class TestInducedCSR:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.data())
    def test_matches_dict_induced_subgraph(self, graph, data):
        csr = CSRGraph(graph)
        keep = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=max(0, csr.num_nodes - 1)),
                    max_size=csr.num_nodes,
                )
            )
        ) if csr.num_nodes else []
        keep_ids = np.asarray(keep, dtype=np.int64)
        smaller = induced_csr(csr, keep_ids)
        expected = induced_subgraph(graph, [csr.label(int(i)) for i in keep_ids])
        assert smaller.num_nodes == expected.num_nodes
        assert smaller.num_edges == expected.num_edges
        round_trip = smaller.to_graph()
        assert {frozenset(e) for e in round_trip.edges()} == {
            frozenset(e) for e in expected.edges()
        }

    def test_rejects_unsorted_and_out_of_range(self):
        csr = CSRGraph(Graph(edges=[(0, 1), (1, 2)]))
        with pytest.raises(ValueError):
            induced_csr(csr, np.array([1, 0], dtype=np.int64))
        with pytest.raises(ValueError):
            induced_csr(csr, np.array([0, 0], dtype=np.int64))
        with pytest.raises(ValueError):
            induced_csr(csr, np.array([0, 3], dtype=np.int64))
