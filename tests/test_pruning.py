"""Bound-driven pruning: floors, block/anchor skipping, parallel search.

The soundness claim under test everywhere here: enumerating with
``min_clique_size=f`` must produce *exactly* the cliques of an unfloored
run that have at least ``f`` members — pruning may only remove work,
never answers.  See ``docs/maximum.md`` for the bound math.
"""

from __future__ import annotations

import pytest

from differential import (
    canonical_cliques,
    run_driver,
    run_driver_floor,
)
from repro.cli import main
from repro.core.driver import find_max_cliques
from repro.distributed.executor import (
    SerialExecutor,
    SharedMemoryExecutor,
    parallel_maximum_clique,
)
from repro.errors import BoundNotMetError
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi, social_network
from repro.graph.io import write_triples
from repro.mce.maximum import maximum_clique

# Modes covering every floor code path: serial in-process, the explicit
# executors (including forced batch/split dispatch), the streaming
# pipeline, and the harness's shared-prune alias.
FLOOR_MODES = (
    "serial",
    "serial-batch",
    "process",
    "shared",
    "shared-prune",
    "shared-split",
    "shared-batch",
    "shared-pipeline",
    "shared-pipeline-split",
    "shared-pipeline-batch",
)


@pytest.fixture(scope="module")
def planted():
    return social_network(260, attachment=3, planted_cliques=(11, 8), seed=9)


class TestFloorParity:
    @pytest.mark.parametrize("mode", FLOOR_MODES)
    def test_floored_equals_filtered(self, mode, planted):
        m = 40
        unfloored = run_driver("serial", planted, m)
        for floor in (4, 8, 11):
            expected = tuple(c for c in unfloored if len(c) >= floor)
            assert run_driver_floor(mode, planted, m, floor) == expected

    def test_floor_above_omega_yields_nothing(self, planted):
        omega = len(maximum_clique(planted))
        result = find_max_cliques(planted, 40, min_clique_size=omega + 1)
        assert result.cliques == []

    def test_floor_of_one_is_a_no_op(self, planted):
        assert run_driver_floor("serial", planted, 40, 1) == run_driver(
            "serial", planted, 40
        )

    def test_negative_floor_rejected(self, planted):
        with pytest.raises(ValueError):
            find_max_cliques(planted, 40, min_clique_size=-1)


def assert_trace_matches_digest(graph, executor, floor: int = 9) -> None:
    """The executor's trace holds one bound record per priced block."""
    result = find_max_cliques(graph, 40, executor=executor, min_clique_size=floor)
    trace = executor.last_trace
    assert trace is not None
    assert len(trace.bounds) == result.pruning["blocks_total"]
    assert trace.skipped_block_count == result.pruning["blocks_skipped"]
    for record in trace.bounds:
        assert record.floor == floor
        assert record.skipped == (record.bound < floor)


class TestPruningDigest:
    def test_blocks_are_skipped_and_topk_is_identical(self, planted):
        m = 40
        baseline = find_max_cliques(planted, m)
        floor = baseline.max_clique_size() - 2
        floored = find_max_cliques(planted, m, min_clique_size=floor)
        pruning = floored.pruning
        assert pruning is not None
        assert pruning["min_clique_size"] == floor
        assert pruning["blocks_skipped"] > 0
        assert pruning["blocks_skipped"] <= pruning["blocks_total"]
        # The top-K selection survives pruning bit for bit.
        k = floored.num_cliques
        assert canonical_cliques(floored.largest(k)) == canonical_cliques(
            baseline.largest(k)
        )

    def test_trace_counts_skipped_blocks(self, planted):
        assert_trace_matches_digest(planted, SharedMemoryExecutor(max_workers=2))

    @pytest.mark.parametrize("batch_blocks", [False, True], ids=["serial", "batch"])
    def test_serial_trace_counts_skipped_blocks(self, planted, batch_blocks):
        # The unbatched serial loop records a trace too, so the driver
        # has somewhere to replay its block-bound records.
        assert_trace_matches_digest(
            planted, SerialExecutor(batch_blocks=batch_blocks)
        )

    def test_unfloored_run_has_no_digest(self, planted):
        assert find_max_cliques(planted, 40).pruning is None
        assert "pruning" in find_max_cliques(planted, 40).summary()

    def test_anchor_skipping_counted(self, planted):
        result = find_max_cliques(planted, 40, min_clique_size=9)
        assert result.pruning["anchors_skipped"] >= 0


class TestParallelMaximumClique:
    def test_matches_serial(self, planted):
        expected = maximum_clique(planted)
        found = parallel_maximum_clique(planted, max_workers=3)
        assert planted.is_clique(found)
        assert len(found) == len(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_parity(self, seed):
        g = erdos_renyi(300, 0.22, seed=seed + 40)
        found = parallel_maximum_clique(g, max_workers=2)
        assert g.is_clique(found)
        assert len(found) == len(maximum_clique(g))

    def test_small_graph_takes_serial_path(self):
        g = erdos_renyi(60, 0.3, seed=1)
        found = parallel_maximum_clique(g, max_workers=4)
        assert len(found) == len(maximum_clique(g))

    def test_lower_bound_witness(self, planted):
        omega = len(maximum_clique(planted))
        found = parallel_maximum_clique(planted, max_workers=2, lower_bound=omega)
        assert len(found) == omega

    def test_unmet_bound_raises(self, planted):
        omega = len(maximum_clique(planted))
        with pytest.raises(BoundNotMetError):
            parallel_maximum_clique(planted, max_workers=2, lower_bound=omega + 1)

    def test_empty_graph(self):
        assert parallel_maximum_clique(Graph()) == frozenset()
        with pytest.raises(BoundNotMetError):
            parallel_maximum_clique(Graph(), lower_bound=1)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            parallel_maximum_clique(Graph(), lower_bound=-1)


class TestCli:
    @pytest.fixture
    def triples(self, tmp_path, planted):
        path = tmp_path / "net.triples"
        write_triples(planted, path)
        return path

    def test_max_clique_serial(self, triples, capsys):
        assert main(["max-clique", "--input", str(triples)]) == 0
        out = capsys.readouterr().out
        assert "omega(G) = 11" in out
        assert "in-process" in out

    def test_max_clique_parallel(self, triples, capsys):
        code = main(["max-clique", "--input", str(triples), "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega(G) = 11" in out
        assert "2 workers" in out

    def test_max_clique_unmet_bound_errors(self, triples, capsys):
        code = main(
            ["max-clique", "--input", str(triples), "--lower-bound", "99"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_top_k_skips_blocks_and_reports(self, triples, capsys):
        code = main(
            ["top-k", "--input", str(triples), "--m", "40", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "omega(G) = 11" in out
        assert "skipped" in out
        assert "#0: 11 members" in out

    def test_top_k_lowers_floor_until_k_found(self, triples, capsys):
        code = main(
            [
                "top-k",
                "--input",
                str(triples),
                "--m",
                "40",
                "-k",
                "40",
                "--tolerance",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#0: 11 members" in out

    def test_enumerate_with_floor_prints_digest(self, triples, capsys):
        code = main(
            [
                "enumerate",
                "--input",
                str(triples),
                "--m",
                "40",
                "--min-clique-size",
                "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "floor 9: skipped" in out

    def test_top_k_validates_arguments(self, triples, capsys):
        assert main(["top-k", "--input", str(triples), "--m", "40", "-k", "0"]) == 1
        assert "error" in capsys.readouterr().err
        code = main(
            [
                "top-k",
                "--input",
                str(triples),
                "--m",
                "40",
                "--tolerance",
                "-1",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
