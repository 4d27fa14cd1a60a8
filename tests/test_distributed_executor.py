"""Unit tests for the block executors."""

from __future__ import annotations

import pytest

from repro.core.block_analysis import analyze_blocks
from repro.core.blocks import build_blocks
from repro.core.feasibility import cut
from repro.distributed.cluster import ClusterSpec
from repro.distributed.executor import (
    ProcessExecutor,
    SerialExecutor,
    SimulatedExecutor,
)
from repro.graph.generators import social_network
from repro.mce.registry import Combo


@pytest.fixture(scope="module")
def blocks():
    g = social_network(90, attachment=3, planted_cliques=(7,), seed=6)
    feasible, _ = cut(g, 18)
    return build_blocks(g, feasible, 18)


def clique_multiset(reports):
    return sorted(
        (sorted(map(str, c)) for r in reports for c in r.cliques)
    )


class TestSerialExecutor:
    def test_matches_reference(self, blocks):
        reference, _ = analyze_blocks(blocks)
        reports = SerialExecutor().map_blocks(blocks)
        assert [c for r in reports for c in r.cliques] == reference

    def test_empty(self):
        assert SerialExecutor().map_blocks([]) == []

    def test_forced_combo(self, blocks):
        combo = Combo("tomita", "matrix")
        reports = SerialExecutor().map_blocks(blocks, combo=combo)
        assert all(report.combo == combo for report in reports)


class TestSimulatedExecutor:
    def test_records_run(self, blocks):
        executor = SimulatedExecutor(cluster=ClusterSpec(machines=2))
        reports = executor.map_blocks(blocks)
        assert executor.last_run is not None
        assert executor.last_run.serial_seconds == pytest.approx(
            sum(report.seconds for report in reports)
        )

    def test_keeps_one_run_per_call(self, blocks):
        executor = SimulatedExecutor(cluster=ClusterSpec(machines=2))
        executor.map_blocks(blocks[:4])
        executor.map_blocks(blocks[4:])
        assert len(executor.runs) == 2
        assert executor.runs[-1] is executor.last_run

    def test_same_cliques_as_serial(self, blocks):
        serial = SerialExecutor().map_blocks(blocks)
        simulated = SimulatedExecutor(cluster=ClusterSpec()).map_blocks(blocks)
        assert clique_multiset(serial) == clique_multiset(simulated)


class TestProcessExecutor:
    def test_same_cliques_as_serial(self, blocks):
        serial = SerialExecutor().map_blocks(blocks)
        parallel = ProcessExecutor(max_workers=2).map_blocks(blocks[:6])
        assert clique_multiset(parallel) == clique_multiset(serial[:6])

    def test_empty(self):
        assert ProcessExecutor(max_workers=2).map_blocks([]) == []
