"""One block materialization for every analysis path.

Every executor analyses a block through the same steps: one flat CSR
gather packs the member rows (``extract_block_bitmap``), the rows become
Python-int masks (``bitmap_masks``), and one bucket-mask peel
(``peel_masks`` / ``peel_features``) yields the features and the kernel
anchor order.  This module pins those steps against the loops they
replaced, kept here as references:

* the per-member ``searchsorted`` + ``bitwise_or.at`` extraction loop
  (:func:`reference_block_bitmap`);
* the numpy packed peels ``degeneracy_order_packed`` /
  ``degeneracy_packed``;
* ``BlockFeatures.of`` on the ``Graph`` induced by the same members.

It also pins what the serial default path no longer does: build a
``Graph`` per block, or produce a packed store that differs by a byte
from the pool executors'.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import blocks as blocks_module
from repro.core import driver as driver_module
from repro.core.block_analysis import (
    BlockBucket,
    analyze_block_csr_splittable,
    analyze_bucket_csr,
    analyze_subtask_csr,
    build_subtasks,
    merge_fragment_reports,
)
from repro.core.blocks import Block, blocks_csr, build_blocks
from repro.core.driver import find_max_cliques
from repro.core.feasibility import cut
from repro.decision.features import BlockFeatures, features_from_bitmap, peel_features
from repro.distributed.executor import ProcessExecutor, SharedMemoryExecutor
from repro.graph.adjacency import Graph
from repro.graph.cores import peel_masks
from repro.graph.csr import (
    BitmapScratch,
    CSRGraph,
    bitmap_masks,
    extract_block_bitmap,
    induced_edge_count,
)
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import erdos_renyi, social_network
from repro.graph.views import induced_subgraph
from repro.mce.bitmatrix import degeneracy_order_packed, degeneracy_packed

_ONE = np.uint64(1)


def reference_block_bitmap(
    indptr: np.ndarray, indices: np.ndarray, member_ids: np.ndarray
) -> np.ndarray:
    """The per-member extraction loop: one ``searchsorted`` per member row."""
    member_ids = np.asarray(member_ids, dtype=np.int64)
    n = len(member_ids)
    bitmap = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    if n == 0:
        return bitmap
    order = np.argsort(member_ids, kind="stable")
    sorted_ids = member_ids[order]
    for i in range(n):
        u = int(member_ids[i])
        row = indices[indptr[u] : indptr[u + 1]]
        if not len(row):
            continue
        positions = np.searchsorted(sorted_ids, row)
        positions[positions == n] = 0  # out-of-range probes; masked below
        hits = sorted_ids[positions] == row
        local = order[positions[hits]]
        np.bitwise_or.at(
            bitmap[i], local >> 6, _ONE << (local.astype(np.uint64) & np.uint64(63))
        )
    return bitmap


def level_with_hubs(n: int, p: float, seed: int, hubs: int) -> Graph:
    """An ER level graph whose first ``hubs`` nodes neighbour every node."""
    graph = erdos_renyi(n, p, seed=seed)
    for hub in range(min(hubs, n)):
        graph.add_edges((hub, other) for other in range(n) if other != hub)
    return graph


def check_materialization(
    graph: Graph, member_ids: np.ndarray, scratch: BitmapScratch
) -> None:
    """Every materialization step against its reference, on one block."""
    csr = CSRGraph(graph)
    reference = reference_block_bitmap(csr.indptr, csr.indices, member_ids)
    fresh = extract_block_bitmap(csr.indptr, csr.indices, member_ids)
    borrowed = extract_block_bitmap(csr.indptr, csr.indices, member_ids, scratch)
    assert np.array_equal(fresh, reference)
    assert np.array_equal(borrowed, reference)
    # The borrowed position map is handed back all -1.
    assert (scratch.positions(csr.num_nodes)[: csr.num_nodes] == -1).all()

    masks = bitmap_masks(reference)
    assert masks == [int.from_bytes(row.tobytes(), "little") for row in reference]
    order, degeneracy = peel_masks(masks)
    assert order == degeneracy_order_packed(reference)
    assert degeneracy == degeneracy_packed(reference)

    induced = induced_subgraph(graph, [csr.label(i) for i in member_ids.tolist()])
    features, peel_order = peel_features(masks)
    assert peel_order == order
    assert features == BlockFeatures.of(induced)
    assert features_from_bitmap(reference) == features
    assert induced_edge_count(csr.indptr, csr.indices, member_ids) == induced.num_edges


@st.composite
def levels_and_blocks(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    graph = level_with_hubs(
        n,
        draw(st.integers(min_value=0, max_value=40)) / 100,
        draw(st.integers(min_value=0, max_value=10_000)),
        draw(st.integers(min_value=0, max_value=2)),
    )
    members = draw(st.permutations(range(n)))
    size = draw(st.integers(min_value=0, max_value=n))
    return graph, np.asarray(members[:size], dtype=np.int64)


class TestGatherAndPeelParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(levels_and_blocks())
    def test_random_blocks_match_references(self, case):
        graph, member_ids = case
        check_materialization(graph, member_ids, BitmapScratch())

    @pytest.mark.parametrize("size", [63, 64, 65, 130])
    def test_wide_blocks_with_hub_rows(self, size):
        # Two hubs adjacent to all 200 level nodes: their CSR rows are
        # far longer than the block, and blocks span one to three words.
        graph = level_with_hubs(200, 0.08, seed=size, hubs=2)
        rng = np.random.default_rng(size)
        member_ids = np.concatenate(
            [[1, 0], rng.permutation(np.arange(2, 200))[: size - 2]]
        ).astype(np.int64)
        check_materialization(graph, member_ids, BitmapScratch())

    def test_one_scratch_serves_levels_of_different_sizes(self):
        scratch = BitmapScratch()
        for n in (120, 30, 200):
            graph = level_with_hubs(n, 0.1, seed=n, hubs=1)
            check_materialization(graph, np.arange(0, n, 2, dtype=np.int64), scratch)


class TestSelectionSeconds:
    """Every path that consults the selector reports its time."""

    @pytest.fixture(scope="class")
    def level(self):
        csr = CSRGraph(erdos_renyi(120, 0.15, seed=8))
        feasible = np.flatnonzero(csr.degree_array() + 1 <= 40)
        descriptors = [
            d for d in blocks_csr(csr, feasible, 40) if len(d.kernel_ids) > 2
        ]
        return csr, descriptors

    def test_probe_subtasks_and_merged_report(self, level):
        csr, descriptors = level
        args = (csr.indptr, csr.indices, csr.labels)
        split = analyze_block_csr_splittable(descriptors[0], *args, probe=True)
        subtasks = build_subtasks(
            descriptors[0], split.kernel_order, split.anchor_costs, 0, 2
        )
        fragments = [(0, 0, split.partial)] + [
            (task.start, task.stop, analyze_subtask_csr(task, *args))
            for task in subtasks
        ]
        for _, _, report in fragments:
            assert report.extra["selection_seconds"] > 0
        merged = merge_fragment_reports(
            descriptors[0].block_id,
            len(descriptors[0].kernel_ids),
            len(split.kernel_order),
            fragments,
        )
        assert merged.extra["selection_seconds"] == pytest.approx(
            sum(report.extra["selection_seconds"] for _, _, report in fragments)
        )

    def test_bucket_reports(self, level):
        csr, descriptors = level
        bucket = BlockBucket(n_pad=40, descriptors=tuple(descriptors[:3]))
        for report in analyze_bucket_csr(bucket, csr.indptr, csr.indices, csr.labels):
            assert report.extra["selection_seconds"] > 0


class TestLazyBlockGraph:
    @pytest.fixture(scope="class")
    def level(self):
        return social_network(300, attachment=3, planted_cliques=(9,), seed=4)

    def test_graph_is_built_on_first_access(self, level):
        feasible, _ = cut(level, 40)
        block = build_blocks(level, feasible, 40)[0]
        assert block._graph is None
        assert block.size == len(block.members)
        graph = block.graph
        assert graph is block.graph
        assert list(graph.nodes()) == block.members
        assert graph == induced_subgraph(level, block.members)

    def test_pickle_ships_the_induced_graph_not_the_level(self, level):
        feasible, _ = cut(level, 40)
        block = build_blocks(level, feasible, 40)[0]
        payload = pickle.dumps(block)
        assert len(payload) < len(pickle.dumps(level)) // 4
        restored = pickle.loads(payload)
        assert restored == block
        assert restored._level is None

    def test_explicit_graph_constructor_still_works(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        block = Block(
            kernel=("b",),
            border=frozenset({"a", "c"}),
            visited=frozenset(),
            graph=graph,
        )
        assert block.graph is graph
        assert block.size == 3
        with pytest.raises(AttributeError):
            block.kernel = ("a",)


class TestSerialDefaultPath:
    def test_induced_subgraph_only_for_the_hub_recursion(self, monkeypatch):
        # The hub recursion induces CSR levels, so a default run never
        # calls induced_subgraph, not even between levels.
        graph = social_network(
            600, attachment=4, closure_probability=0.3, planted_cliques=(8, 6), seed=2
        )
        calls = {"induced_subgraph": 0, "CSRGraph": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in (blocks_module, driver_module):
            monkeypatch.setattr(
                module,
                "induced_subgraph",
                counting("induced_subgraph", module.induced_subgraph),
            )
        monkeypatch.setattr(
            CSRGraph, "__init__", counting("CSRGraph", CSRGraph.__init__)
        )
        result = find_max_cliques(graph, 20)
        assert result.recursion_depth > 1
        # induced_csr builds levels with CSRGraph.from_arrays; only the
        # input graph is converted.
        assert calls == {"induced_subgraph": 0, "CSRGraph": 1}

    @pytest.mark.parametrize("name", sorted(DATASET_NAMES))
    def test_packed_store_is_byte_identical_across_executors(self, name):
        graph = load_dataset(name)
        m = max(2, graph.max_degree() // 2)
        serial = find_max_cliques(graph, m).store
        for executor in (
            SharedMemoryExecutor(max_workers=2),
            ProcessExecutor(max_workers=2),
        ):
            store = find_max_cliques(graph, m, executor=executor).store
            for field in ("offsets", "vertices", "levels"):
                expected = getattr(serial, field)
                actual = getattr(store, field)
                assert actual.dtype == expected.dtype, field
                assert actual.tobytes() == expected.tobytes(), field
            assert list(store.labels) == list(serial.labels)
