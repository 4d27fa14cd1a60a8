"""Unit tests for the end-to-end distributed runner."""

from __future__ import annotations

import warnings

import pytest

from conftest import FIGURE1_CLIQUES, nx_cliques
from repro.core.driver import find_max_cliques
from repro.distributed.cluster import ClusterSpec, paper_cluster
from repro.distributed.executor import SerialExecutor
from repro.distributed.runner import run_distributed
from repro.errors import ConvergenceError
from repro.graph.generators import complete_graph, erdos_renyi, social_network


class TestEquivalenceWithSerialDriver:
    @pytest.mark.parametrize("m", [8, 15, 40])
    def test_same_cliques(self, m):
        g = social_network(130, attachment=3, planted_cliques=(8,), seed=3)
        serial = find_max_cliques(g, m)
        distributed = run_distributed(g, m)
        assert set(distributed.cliques) == set(serial.cliques)
        assert distributed.provenance == serial.provenance

    def test_figure1(self, figure1):
        result = run_distributed(figure1, 5)
        assert set(result.cliques) == FIGURE1_CLIQUES

    def test_matches_networkx(self):
        g = erdos_renyi(35, 0.25, seed=12)
        result = run_distributed(g, 12)
        assert set(result.cliques) == nx_cliques(g)


class TestSimulation:
    def test_runs_recorded_per_level(self):
        g = social_network(130, attachment=3, planted_cliques=(8,), seed=3)
        result = run_distributed(g, 20, cluster=paper_cluster())
        non_fallback_levels = [lvl for lvl in result.levels if not lvl.fallback_used]
        assert len(result.runs) == len(non_fallback_levels)
        assert result.simulated_makespan() > 0.0
        assert result.simulated_speedup() >= 1.0

    def test_custom_executor_no_runs(self):
        g = erdos_renyi(25, 0.25, seed=4)
        result = run_distributed(g, 10, executor=SerialExecutor())
        assert result.runs == []
        assert result.simulated_speedup() == 1.0

    def test_bigger_cluster_not_slower(self):
        g = social_network(130, attachment=3, planted_cliques=(8,), seed=3)
        small = run_distributed(
            g, 20, cluster=ClusterSpec(machines=1, workers_per_machine=1)
        )
        big = run_distributed(g, 20, cluster=paper_cluster())
        assert big.simulated_makespan() <= small.simulated_makespan() * 1.5


class TestGuards:
    def test_convergence_raise(self):
        with pytest.raises(ConvergenceError):
            run_distributed(complete_graph(6), 3, fallback="raise")

    def test_fallback_warns(self):
        with pytest.warns(RuntimeWarning):
            result = run_distributed(complete_graph(6), 3)
        assert result.fallback_used

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            run_distributed(complete_graph(3), 0)

    def test_cluster_and_executor_together(self):
        with pytest.raises(ValueError, match="cluster= or executor="):
            run_distributed(
                complete_graph(3), 4, cluster=paper_cluster(), executor=SerialExecutor()
            )


class TestProcessExecutorIntegration:
    def test_process_pool_driver_matches_serial(self):
        from repro.distributed.executor import ProcessExecutor

        g = social_network(80, attachment=3, planted_cliques=(6,), seed=21)
        serial = find_max_cliques(g, 16)
        parallel = run_distributed(
            g, 16, executor=ProcessExecutor(max_workers=2)
        )
        assert set(parallel.cliques) == set(serial.cliques)
