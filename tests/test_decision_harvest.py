"""Unit tests for trace harvesting and trace-driven retraining."""

from __future__ import annotations

import pytest

from repro.core.driver import find_max_cliques
from repro.decision.features import BlockFeatures
from repro.decision.harvest import (
    counterfactual_rows,
    harvest_workload,
    rows_from_result,
    rows_from_run_dir,
    rows_from_trace,
    sample_blocks,
    workload_blocks,
)
from repro.decision.paper_tree import paper_tree
from repro.decision.training import (
    block_selection_overhead,
    corpus_fingerprint,
    label_rows,
    train_from_rows,
)
from repro.decision.harvest import TrainingRow
from repro.decision.tree import num_leaves
from repro.errors import TrainingError
from repro.graph.generators import social_network
from repro.mce.instrumentation import BlockTiming, ExecutionTrace
from repro.mce.registry import ALL_COMBOS

M = 30


@pytest.fixture(scope="module")
def graph():
    return social_network(100, attachment=3, planted_cliques=(8,), seed=5)


def features(nodes=10, edges=20):
    return BlockFeatures(
        num_nodes=nodes,
        num_edges=edges,
        density=0.4,
        degeneracy=4,
        d_star=4,
    )


def row(combo="[Lists/Tomita]", seconds=1.0, level=0, block_id=0, nodes=10):
    return TrainingRow(
        features=features(nodes=nodes),
        combo=combo,
        seconds=seconds,
        level=level,
        block_id=block_id,
    )


class TestRowsFromResult:
    def test_live_rows_cover_every_report(self, graph):
        result = find_max_cliques(graph, M, collect_reports=True)
        rows = rows_from_result(result)
        assert len(rows) == sum(len(r) for r in result.block_reports)
        assert all(r.source == "live" for r in rows)
        assert all(r.combo.startswith("[") for r in rows)
        assert all(len(r.vector()) == 5 for r in rows)
        assert all(r.seconds >= 0.0 for r in rows)
        # levels/block ids identify blocks uniquely
        keys = [(r.level, r.block_id) for r in rows]
        assert len(keys) == len(set(keys))

    def test_result_without_reports_rejected(self, graph):
        result = find_max_cliques(graph, M)
        with pytest.raises(TrainingError, match="collect_reports"):
            rows_from_result(result)


class TestRowsFromTrace:
    def test_skips_unusable_records(self):
        trace = ExecutionTrace()
        good = BlockTiming(
            block_id=0,
            seconds=0.5,
            cliques=3,
            combo="[Lists/Tomita]",
            features=features().vector(),
        )
        legacy = BlockTiming(block_id=1, seconds=0.5, cliques=3)
        replayed_free = BlockTiming(
            block_id=2,
            seconds=0.0,
            cliques=3,
            replayed=True,
            combo="[Lists/Tomita]",
            features=features().vector(),
        )
        retried = BlockTiming(
            block_id=3,
            seconds=0.2,
            cliques=1,
            retried=True,
            combo="[BitSets/Eppstein]",
            features=features().vector(),
        )
        for timing in (good, legacy, replayed_free, retried):
            trace.record(timing)
        rows = rows_from_trace(trace, level=2)
        assert [r.block_id for r in rows] == [0, 3]
        assert all(r.level == 2 for r in rows)
        assert rows[0].features == features()
        assert rows[1].knobs == ("retried",)


class TestRowsFromRunDir:
    def test_replayed_rows_from_spill_segments(self, graph, tmp_path):
        spill = tmp_path / "run"
        result = find_max_cliques(graph, M, spill_dir=spill)
        rows = rows_from_run_dir(spill)
        assert rows
        assert all(r.source == "replayed" for r in rows)
        assert all(r.combo and len(r.vector()) == 5 for r in rows)
        assert result.num_cliques > 0

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(TrainingError, match="no spill segments"):
            rows_from_run_dir(tmp_path)


class TestWorkloadBlocks:
    def test_mirrors_driver_block_count(self, graph):
        result = find_max_cliques(graph, M, collect_reports=True)
        blocks = workload_blocks(graph, M)
        assert len(blocks) == sum(len(r) for r in result.block_reports)
        levels = {level for level, _, _ in blocks}
        assert levels == set(range(len(result.block_reports)))
        # Each (level, block_id) names the block the driver reported
        # under that key, which is what label_rows groups on.
        for level, block_id, block in blocks:
            report = result.block_reports[level][block_id]
            assert report.kernel_nodes == len(block.descriptor.kernel_ids)
            assert report.features.num_nodes == block.descriptor.size


class TestSampleBlocks:
    def test_small_sample_is_deterministic_and_cost_biased(self, graph):
        blocks = workload_blocks(graph, M)
        sample = sample_blocks(blocks, 4, seed=1)
        assert sample == sample_blocks(blocks, 4, seed=1)
        assert len(sample) == 4
        costliest = max(blocks, key=lambda b: b[2].descriptor.estimated_cost)
        # The sampler ranks by the block's features-based cost estimate.
        features = costliest[2].analyze().features
        assert costliest[2].descriptor.estimated_cost == features.estimated_cost()
        assert costliest in sample

    def test_oversized_sample_returns_everything(self, graph):
        blocks = workload_blocks(graph, M)
        assert sample_blocks(blocks, len(blocks) + 5) == blocks
        assert sample_blocks(blocks, 0) == blocks


class TestCounterfactual:
    def test_every_combo_measured_per_block(self, graph):
        blocks = sample_blocks(workload_blocks(graph, M), 2, seed=0)
        combos = ALL_COMBOS[:3]
        rows = counterfactual_rows(blocks, combos=combos)
        assert len(rows) == len(blocks) * len(combos)
        assert all(r.source == "counterfactual" for r in rows)
        per_block = {(r.level, r.block_id) for r in rows}
        assert per_block == {(lvl, bid) for lvl, bid, _ in blocks}

    def test_empty_combos_rejected(self):
        with pytest.raises(TrainingError, match="no combinations"):
            counterfactual_rows([], combos=())

    def test_bad_repeats_rejected(self):
        with pytest.raises(TrainingError, match="repeats"):
            counterfactual_rows([], repeats=0)


class TestHarvestWorkload:
    def test_mixed_sources(self, graph):
        harvest = harvest_workload(graph, M, combos=ALL_COMBOS[:2], sample=3)
        assert harvest.blocks_sampled == 3
        assert harvest.blocks_sampled <= harvest.blocks_total
        assert harvest.live_rows > 0
        assert harvest.counterfactual_rows == 3 * 2


class TestLabelRows:
    def test_argmin_wins(self):
        rows = [
            row(combo="[Lists/Tomita]", seconds=2.0),
            row(combo="[BitSets/Tomita]", seconds=1.0),
            # a second, slower measurement of the winner: min() is kept
            row(combo="[BitSets/Tomita]", seconds=5.0),
        ]
        samples = label_rows(rows)
        assert len(samples) == 1
        assert samples[0].best == "[BitSets/Tomita]"
        assert samples[0].timings["[BitSets/Tomita]"] == 1.0
        assert samples[0].regret("[Lists/Tomita]") == pytest.approx(1.0)

    def test_single_combo_blocks_dropped(self):
        rows = [
            row(combo="[Lists/Tomita]", seconds=2.0, block_id=0),
            row(combo="[Lists/Tomita]", seconds=1.0, block_id=1),
            row(combo="[Lists/Tomita]", seconds=2.0, block_id=2),
            row(combo="[BitSets/Tomita]", seconds=1.0, block_id=2),
        ]
        samples = label_rows(rows)
        assert [s.block_id for s in samples] == [2]

    def test_nothing_survives_rejected(self):
        with pytest.raises(TrainingError):
            label_rows([row()])


class TestTrainFromRows:
    def rows(self):
        # Small blocks are cheapest on lists, large ones on bitsets —
        # one num_nodes split separates the corpus perfectly.
        rows = []
        for block_id, nodes in enumerate((5, 8, 40, 60)):
            small = nodes < 20
            rows.append(
                row(
                    combo="[Lists/Tomita]",
                    seconds=1.0 if small else 9.0,
                    block_id=block_id,
                    nodes=nodes,
                )
            )
            rows.append(
                row(
                    combo="[BitSets/Tomita]",
                    seconds=5.0 if small else 2.0,
                    block_id=block_id,
                    nodes=nodes,
                )
            )
        return rows

    def test_learns_the_separating_split(self):
        result = train_from_rows(self.rows())
        assert result.training_accuracy == 1.0
        assert result.tree.predict(features(nodes=6)) == "[Lists/Tomita]"
        assert result.tree.predict(features(nodes=50)) == "[BitSets/Tomita]"
        assert result.win_counts == {
            "[Lists/Tomita]": 2,
            "[BitSets/Tomita]": 2,
        }
        assert result.total_time() == pytest.approx(1.0 + 1.0 + 2.0 + 2.0)
        assert result.total_regret() == pytest.approx(0.0)

    def test_fixed_chooser_prices_unmeasured_at_worst(self):
        result = train_from_rows(self.rows())
        assert result.total_time("[Lists/Tomita]") == pytest.approx(20.0)
        assert result.total_time("[Matrix/Tomita]") == pytest.approx(
            5.0 + 5.0 + 9.0 + 9.0
        )

    def test_huge_alpha_collapses_to_one_leaf(self):
        result = train_from_rows(self.rows(), prune_alpha=1e9)
        assert num_leaves(result.tree) == 1
        assert result.unpruned_leaves >= 2

    def test_fingerprint_tracks_the_measurements(self):
        base = train_from_rows(self.rows()).fingerprint
        assert base == train_from_rows(self.rows()).fingerprint
        perturbed = self.rows()
        perturbed[0] = row(
            combo="[Lists/Tomita]", seconds=1.5, block_id=0, nodes=5
        )
        assert train_from_rows(perturbed).fingerprint != base
        assert len(base) == 64  # sha256 hex

    def test_fingerprint_order_independent(self):
        samples = label_rows(self.rows())
        assert corpus_fingerprint(samples) == corpus_fingerprint(
            list(reversed(samples))
        )


class TestSelectionOverheadBudget:
    def test_prediction_stays_under_one_percent(self, graph):
        harvest = harvest_workload(graph, M, combos=ALL_COMBOS[:2], sample=4)
        result = train_from_rows(harvest.rows)
        overhead = min(
            block_selection_overhead(result.samples, result.tree)
            for _ in range(5)
        )
        assert overhead < 0.01 * max(result.total_time(), 1e-9)


class TestEndToEndRetrainBeatsNothing:
    """The tuned tree can never do worse than the oracle says it did."""

    def test_tuned_tree_bounded_by_oracle_and_paper(self, graph):
        harvest = harvest_workload(graph, M, sample=4)
        result = train_from_rows(harvest.rows)
        oracle = sum(s.timings[s.best] for s in result.samples)
        paper_total = sum(
            s.timings.get(
                paper_tree().predict(s.features), max(s.timings.values())
            )
            for s in result.samples
        )
        assert oracle <= result.total_time() <= paper_total + 1e-9


class TestExecutorTraceRecordsCombos:
    def test_shared_executor_timings_harvestable(self, graph):
        from repro.distributed.executor import SharedMemoryExecutor

        executor = SharedMemoryExecutor(max_workers=2)
        result = find_max_cliques(graph, M, executor=executor)
        trace = executor.last_trace
        assert result.num_cliques > 0
        assert trace is not None and trace.timings
        rows = rows_from_trace(trace)
        assert rows
        assert all(r.combo and len(r.vector()) == 5 for r in rows)
