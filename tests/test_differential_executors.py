"""Differential tests: every executor × algorithm × backend agrees.

The harness (``differential.py``) canonicalizes clique output so the
comparisons are order-independent; the serial executor is the reference
everywhere.  Property tests sample random ER/BA/SBM graphs and check
the shared-memory executor against both the serial path and the
networkx oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import nx_cliques
from differential import (
    DRIVER_MODES,
    EXECUTOR_FACTORIES,
    blocks_of,
    canonical_cliques,
    canonical_report_cliques,
    driver_result,
    run_blocks,
    run_driver,
    run_driver_levels,
)
from repro.core import blocks as blocks_module
from repro.core import driver as driver_module
from repro.core import feasibility as feasibility_module
from repro.core.block_analysis import analyze_blocks, descriptors_of
from repro.distributed.executor import SharedMemoryExecutor
from repro.graph import views as views_module
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    planted_straggler,
    social_network,
    stochastic_block_model,
)
from repro.mce.registry import ALL_COMBOS

M = 16


@pytest.fixture(scope="module")
def graph():
    return social_network(70, attachment=3, planted_cliques=(6,), seed=11)


@pytest.fixture(scope="module")
def blocks(graph):
    return blocks_of(graph, M)


@pytest.fixture(scope="module")
def references(graph, blocks):
    """Serial reference output per combo (plus the tree default)."""
    refs = {}
    for combo in (None, *ALL_COMBOS):
        cliques, _ = analyze_blocks(blocks, combo=combo)
        refs[combo] = canonical_cliques(cliques)
    return refs


class TestExecutorMatrix:
    """Same blocks, same combo, every executor: identical clique sets."""

    @pytest.mark.parametrize("executor_name", sorted(EXECUTOR_FACTORIES))
    @pytest.mark.parametrize("combo", ALL_COMBOS, ids=lambda c: c.name)
    def test_combo_matrix(self, executor_name, combo, graph, blocks, references):
        assert run_blocks(executor_name, blocks, graph, combo=combo) == references[combo]

    @pytest.mark.parametrize("executor_name", sorted(EXECUTOR_FACTORIES))
    def test_tree_selected_combos(self, executor_name, graph, blocks, references):
        # No forced combo: the decision tree picks per block.
        assert run_blocks(executor_name, blocks, graph) == references[None]


class TestDriverMatrix:
    """Full two-level runs agree with each other and with networkx.

    ``DRIVER_MODES`` crosses the executors with the streaming pipeline
    (``shared-pipeline``), so the CSR-native decompose→dispatch path is
    pinned to the same clique sets as every barrier-mode run.
    """

    @pytest.mark.parametrize("mode", DRIVER_MODES)
    def test_driver_matches_oracle(self, mode, graph):
        assert run_driver(mode, graph, M) == canonical_cliques(
            nx_cliques(graph)
        )

    @pytest.mark.parametrize("combo", ALL_COMBOS, ids=lambda c: c.name)
    def test_pipeline_combo_matrix(self, combo, graph):
        """Pipeline mode agrees with the serial driver on every combo."""
        assert run_driver("shared-pipeline", graph, M, combo=combo) == run_driver(
            "serial", graph, M, combo=combo
        )

    def test_pipeline_levels_match_barrier(self, graph):
        """Per-level clique sets are partition-invariant.

        Block shapes differ between the dict and CSR decompositions
        (their greedy tie-breaks see candidates in different orders),
        but the level at which each clique is found may not.
        """
        barrier = run_driver_levels("shared", graph, M)
        pipeline = run_driver_levels("shared-pipeline", graph, M)
        assert barrier == pipeline


class TestStragglerSplitting:
    """The crafted straggler graph: one dense block among many tiny ones.

    The dense community's block crosses the *adaptive* threshold (no
    forced ``split_threshold=0.0`` here), so these tests pin the whole
    production path — cost-based split decision, subtask dispatch
    through the steal deque, and fragment merging — to the serial
    oracle, clique for clique.
    """

    M = 32

    @pytest.fixture(scope="class")
    def straggler(self):
        return planted_straggler(
            dense_nodes=24, dense_p=0.5, tiny_blocks=12, tiny_size=5, seed=3
        )

    def test_split_blocks_match_serial(self, straggler):
        blocks = blocks_of(straggler, self.M)
        level = descriptors_of(blocks, straggler)
        serial = canonical_report_cliques(
            EXECUTOR_FACTORIES["serial"]().map_blocks(*level)
        )
        executor = SharedMemoryExecutor(max_workers=2, split=True)
        split = canonical_report_cliques(executor.map_blocks(*level))
        assert split == serial
        trace = executor.last_trace
        assert trace.splits, "the dense block should cross the adaptive threshold"
        split_ids = set(trace.split_block_ids)
        merged = [t for t in trace.timings if t.block_id in split_ids]
        assert merged and all(t.cliques > 0 for t in merged)
        assert len(trace.subtasks) > len(trace.splits)

    def test_split_driver_matches_oracle(self, straggler):
        assert run_driver("shared-split", straggler, self.M) == canonical_cliques(
            nx_cliques(straggler)
        )

    def test_split_pipeline_matches_serial(self, straggler):
        assert run_driver("shared-pipeline-split", straggler, self.M) == run_driver(
            "serial", straggler, self.M
        )


def _random_graph(family: str, size: int, seed: int):
    if family == "er":
        return erdos_renyi(size, 0.15, seed=seed)
    if family == "ba":
        return barabasi_albert(size, 3, seed=seed)
    sizes = [size // 3, size // 3, size - 2 * (size // 3)]
    return stochastic_block_model(sizes, 0.6, 0.05, seed=seed)


class TestPropertyDifferential:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(["er", "ba", "sbm"]),
        size=st.integers(min_value=18, max_value=42),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_shared_matches_serial_and_oracle(self, family, size, seed):
        graph = _random_graph(family, size, seed)
        m = max(4, graph.max_degree() // 2 + 1)
        level = descriptors_of(blocks_of(graph, m), graph)
        serial = canonical_report_cliques(
            EXECUTOR_FACTORIES["serial"]().map_blocks(*level)
        )
        shared = canonical_report_cliques(
            EXECUTOR_FACTORIES["shared"]().map_blocks(*level)
        )
        assert shared == serial
        oracle = canonical_cliques(nx_cliques(graph))
        driver = run_driver("shared", graph, m)
        assert driver == oracle


def _forbid(monkeypatch, owner, attr: str) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attr} called on a production path")

    monkeypatch.setattr(owner, attr, forbidden)


class TestOneDecomposition:
    """Every driver mode runs the same CSR walk and emits the same bytes.

    With the dict-``Graph`` reference (``cut``, ``build_blocks``,
    ``induced_subgraph``, ``Block.graph``, ``CSRGraph.to_graph``)
    patched to raise, in the parent and in forked pool workers alike,
    every mode still completes, and its packed store equals a pipeline
    run's byte for byte.  Bucketed dispatch emits each block's cliques
    in its own order, so the batch modes are held to the batched
    pipeline and the others to the plain one.
    """

    @pytest.mark.parametrize("name", sorted(DATASET_NAMES))
    def test_every_mode_matches_the_pipeline_store(self, name, monkeypatch):
        graph = load_dataset(name)
        m = max(2, graph.max_degree() // 2)
        for owner, attr in (
            (driver_module, "cut"),
            (driver_module, "build_blocks"),
            (driver_module, "induced_subgraph"),
            (feasibility_module, "cut"),
            (blocks_module, "build_blocks"),
            (blocks_module, "induced_subgraph"),
            (views_module, "induced_subgraph"),
            (CSRGraph, "to_graph"),
        ):
            _forbid(monkeypatch, owner, attr)

        def no_block_graph(block):
            raise AssertionError("Block.graph read on a production path")

        monkeypatch.setattr(blocks_module.Block, "graph", property(no_block_graph))
        references = {
            batched: driver_result(
                "shared-pipeline-batch" if batched else "shared-pipeline", graph, m
            ).store
            for batched in (False, True)
        }
        for mode in DRIVER_MODES:
            store = driver_result(mode, graph, m).store
            reference = references["batch" in mode]
            for field in ("offsets", "vertices", "levels"):
                expected = getattr(reference, field)
                actual = getattr(store, field)
                assert actual.dtype == expected.dtype, (mode, field)
                assert actual.tobytes() == expected.tobytes(), (mode, field)
            assert list(store.labels) == list(reference.labels), mode
