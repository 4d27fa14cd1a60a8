"""Unit tests for the result auditor and result summaries."""

from __future__ import annotations

import json

import pytest

from repro.core.audit import audit_result
from repro.core.driver import find_max_cliques
from repro.core.result import CliqueResult
from repro.graph.cores import degeneracy
from repro.graph.datasets import DATASETS
from repro.graph.generators import complete_graph, social_network


@pytest.fixture(scope="module")
def run():
    graph = social_network(100, attachment=3, planted_cliques=(8,), seed=6)
    return graph, find_max_cliques(graph, 20)


class TestAuditClean:
    def test_driver_output_passes(self, run):
        graph, result = run
        report = audit_result(graph, result)
        assert report.ok, report.problems
        assert report.checked_cliques == result.num_cliques
        assert report.completeness_checked

    def test_skip_completeness(self, run):
        graph, result = run
        report = audit_result(graph, result, check_completeness=False)
        assert report.ok
        assert not report.completeness_checked


class TestAuditDetectsTampering:
    def _tampered(self, result: CliqueResult, cliques, provenance=None):
        return CliqueResult(
            cliques=cliques,
            provenance=provenance
            if provenance is not None
            else {c: result.provenance.get(c, 0) for c in cliques},
            levels=result.levels,
            m=result.m,
        )

    def test_duplicate_detected(self, run):
        graph, result = run
        tampered = self._tampered(result, result.cliques + [result.cliques[0]])
        report = audit_result(graph, tampered, check_completeness=False)
        assert any("duplicate" in p for p in report.problems)

    def test_missing_detected(self, run):
        graph, result = run
        tampered = self._tampered(result, result.cliques[:-1])
        report = audit_result(graph, tampered)
        assert any("missing" in p for p in report.problems)

    def test_non_maximal_detected(self, run):
        graph, result = run
        big = max(result.cliques, key=len)
        shrunk = frozenset(list(big)[:-1])
        tampered = self._tampered(result, result.cliques + [shrunk])
        report = audit_result(graph, tampered, check_completeness=False)
        assert any("not maximal" in p for p in report.problems)

    def test_non_clique_detected(self, run):
        graph, result = run
        nodes = list(graph.nodes())
        fake = None
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not graph.has_edge(u, v):
                    fake = frozenset({u, v})
                    break
            if fake:
                break
        assert fake is not None
        tampered = self._tampered(result, result.cliques + [fake])
        report = audit_result(graph, tampered, check_completeness=False)
        assert any("not a clique" in p for p in report.problems)

    def test_bad_provenance_detected(self, run):
        graph, result = run
        hub_clique = result.hub_cliques()
        feas_clique = result.feasible_cliques()
        if not hub_clique or not feas_clique:
            pytest.skip("run has no hub/feasible split to corrupt")
        provenance = dict(result.provenance)
        provenance[feas_clique[0]] = 1  # claim a feasible clique is hub-only
        tampered = self._tampered(result, result.cliques, provenance)
        report = audit_result(graph, tampered, check_completeness=False)
        assert any("feasible node" in p for p in report.problems)

    def test_deep_level_tag_checked_exactly(self):
        # m just above the degeneracy: five recursion levels, so hub-only
        # cliques sit at several levels and a one-level shift hides from
        # any check of the level-0 feasible/hub split alone.
        graph = social_network(
            100,
            attachment=6,
            closure_probability=0.3,
            planted_cliques=(8, 7, 6),
            seed=6,
        )
        result = find_max_cliques(graph, degeneracy(graph) + 2)
        assert audit_result(graph, result, check_completeness=False).ok
        level_two = [c for c, level in result.provenance.items() if level == 2]
        assert level_two
        provenance = dict(result.provenance)
        provenance[level_two[0]] = 1
        tampered = self._tampered(result, result.cliques, provenance)
        report = audit_result(graph, tampered, check_completeness=False)
        assert len(report.problems) == 1
        assert report.problems[0].startswith(
            "level-1 clique without feasible node (first at level 2)"
        )

    def test_provenance_key_mismatch(self, run):
        graph, result = run
        provenance = dict(result.provenance)
        provenance.pop(next(iter(provenance)))
        tampered = self._tampered(result, result.cliques, provenance)
        report = audit_result(graph, tampered, check_completeness=False)
        assert any("provenance keys" in p for p in report.problems)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_standins_at_half_max_degree_pass(name):
    graph = DATASETS[name].build()
    result = find_max_cliques(graph, max(2, graph.max_degree() // 2))
    report = audit_result(graph, result, check_completeness=False)
    assert report.ok, report.problems[:3]
    assert report.checked_cliques == result.num_cliques


class TestSummary:
    def test_json_serialisable(self, run):
        _graph, result = run
        payload = json.dumps(result.summary())
        restored = json.loads(payload)
        assert restored["num_cliques"] == result.num_cliques
        assert restored["m"] == result.m

    def test_fields_consistent(self, run):
        _graph, result = run
        summary = result.summary()
        assert summary["feasible_cliques"] + summary["hub_only_cliques"] == (
            summary["num_cliques"]
        )
        assert len(summary["levels"]) == result.recursion_depth

    def test_trivial_run(self):
        graph = complete_graph(3)
        result = find_max_cliques(graph, 5)
        summary = result.summary()
        assert summary["num_cliques"] == 1
        assert summary["max_clique_size"] == 3
