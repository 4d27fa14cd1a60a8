"""Unit tests for the replay-based cluster simulation."""

from __future__ import annotations

import pytest

from repro.core.block_analysis import analyze_blocks, descriptors_of
from repro.core.blocks import build_blocks
from repro.core.feasibility import cut
from repro.distributed.cluster import ClusterSpec
from repro.distributed.simulation import (
    block_bytes,
    descriptor_bytes,
    scaling_curve,
    simulate_level,
    simulate_reports,
)
from repro.errors import SchedulingError
from repro.graph.generators import social_network


@pytest.fixture(scope="module")
def analyzed():
    g = social_network(120, attachment=3, planted_cliques=(8,), seed=4)
    feasible, _ = cut(g, 20)
    blocks = build_blocks(g, feasible, 20)
    _cliques, reports = analyze_blocks(blocks)
    return blocks, reports, g


class TestBlockBytes:
    def test_size_model(self, analyzed):
        blocks, _, _ = analyzed
        block = blocks[0]
        expected = 8 * (block.graph.num_nodes + 2 * block.graph.num_edges)
        assert block_bytes(block) == expected

    def test_descriptor_sized_like_its_block(self, analyzed):
        # SimulatedExecutor sizes descriptors; the protocol simulator
        # sizes reference blocks.  Both must price a block the same.
        blocks, _, graph = analyzed
        descriptors, csr = descriptors_of(blocks, graph)
        assert [descriptor_bytes(d, csr) for d in descriptors] == [
            block_bytes(block) for block in blocks
        ]


class TestSimulateLevel:
    def test_makespan_bounds(self, analyzed):
        blocks, reports, _ = analyzed
        cluster = ClusterSpec(machines=4, workers_per_machine=4)
        run = simulate_level(blocks, reports, cluster)
        slowest = max(r.seconds for r in reports)
        assert run.makespan_seconds >= slowest
        assert run.makespan_seconds <= run.serial_seconds + run.communication_seconds
        assert run.speedup >= 1.0

    def test_more_workers_never_slower(self, analyzed):
        blocks, reports, _ = analyzed
        small = simulate_level(
            blocks, reports, ClusterSpec(machines=1, workers_per_machine=2)
        )
        big = simulate_level(
            blocks, reports, ClusterSpec(machines=8, workers_per_machine=8)
        )
        assert big.makespan_seconds <= small.makespan_seconds + 1e-9

    def test_mismatched_inputs(self, analyzed):
        blocks, reports, _ = analyzed
        with pytest.raises(SchedulingError):
            simulate_level(blocks[:-1], reports, ClusterSpec())

    def test_unknown_policy(self, analyzed):
        blocks, reports, _ = analyzed
        with pytest.raises(SchedulingError):
            simulate_level(blocks, reports, ClusterSpec(), policy="fifo")

    def test_policies_agree_on_totals(self, analyzed):
        blocks, reports, _ = analyzed
        cluster = ClusterSpec(machines=2, workers_per_machine=2)
        lpt = simulate_level(blocks, reports, cluster, policy="lpt")
        rr = simulate_level(blocks, reports, cluster, policy="round_robin")
        assert lpt.serial_seconds == pytest.approx(rr.serial_seconds)
        assert lpt.makespan_seconds <= rr.makespan_seconds + 1e-9


class TestSimulateReports:
    def test_close_to_level_simulation(self, analyzed):
        blocks, reports, _ = analyzed
        cluster = ClusterSpec(machines=2, workers_per_machine=4)
        by_level = simulate_level(blocks, reports, cluster)
        by_reports = simulate_reports(reports, cluster)
        # Identical size model -> identical simulation.
        assert by_reports.makespan_seconds == pytest.approx(
            by_level.makespan_seconds
        )

    def test_unknown_policy(self, analyzed):
        _, reports, _ = analyzed
        with pytest.raises(SchedulingError):
            simulate_reports(reports, ClusterSpec(), policy="fifo")


class TestScalingCurve:
    def test_monotone_makespan(self, analyzed):
        _, reports, _ = analyzed
        rows = scaling_curve(reports, [1, 2, 4, 8], workers_per_machine=2)
        makespans = [makespan for _, makespan, _ in rows]
        assert makespans == sorted(makespans, reverse=True) or all(
            abs(a - b) < 1e-9 for a, b in zip(makespans, makespans[1:])
        )

    def test_row_shape(self, analyzed):
        _, reports, _ = analyzed
        rows = scaling_curve(reports, [1, 3])
        assert [machines for machines, _, _ in rows] == [1, 3]
        assert all(speedup >= 1.0 for _, _, speedup in rows)
