"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.decision.paper_tree import paper_tree
from repro.decision.persistence import save_tree
from repro.graph.generators import social_network
from repro.graph.io import read_cliques, read_triples, write_triples
from repro.mce.tomita import tomita


@pytest.fixture
def triples(tmp_path):
    graph = social_network(120, attachment=3, planted_cliques=(7,), seed=3)
    path = tmp_path / "net.triples"
    write_triples(graph, path)
    return path, graph


class TestGenerate:
    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "er", "--nodes", "50", "--p", "0.1"],
            ["--model", "ba", "--nodes", "50", "--attachment", "3"],
            ["--model", "ws", "--nodes", "50", "--k", "4", "--beta", "0.2"],
            ["--model", "social", "--nodes", "50", "--plant", "6"],
        ],
    )
    def test_models(self, tmp_path, args, capsys):
        out = tmp_path / "g.triples"
        code = main(["generate", *args, "--seed", "1", "--out", str(out)])
        assert code == 0
        graph = read_triples(out)
        assert graph.num_nodes == 50
        assert "wrote" in capsys.readouterr().out

    def test_dataset_model(self, tmp_path):
        out = tmp_path / "g.triples"
        code = main(
            ["generate", "--model", "dataset", "--name", "google+", "--out", str(out)]
        )
        assert code == 0
        assert read_triples(out).num_nodes == 2100

    def test_dataset_without_name_fails(self, tmp_path, capsys):
        out = tmp_path / "g.triples"
        code = main(["generate", "--model", "dataset", "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_reports_metrics(self, triples, capsys):
        path, _graph = triples
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        for token in ("nodes", "degeneracy", "d*", "max degree"):
            assert token in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["stats", "--input", str(tmp_path / "nope.triples")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEnumerate:
    def test_with_explicit_m(self, triples, tmp_path, capsys):
        path, graph = triples
        out = tmp_path / "cliques.jsonl"
        code = main(
            ["enumerate", "--input", str(path), "--m", "20", "--output", str(out)]
        )
        assert code == 0
        assert set(read_cliques(out)) == set(tomita(graph))
        assert "maximal cliques" in capsys.readouterr().out

    def test_with_ratio(self, triples, capsys):
        path, _graph = triples
        assert main(["enumerate", "--input", str(path), "--ratio", "0.5"]) == 0
        assert "maximal cliques" in capsys.readouterr().out

    def test_invalid_ratio(self, triples, capsys):
        path, _graph = triples
        assert main(["enumerate", "--input", str(path), "--ratio", "7"]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_custom_tree(self, triples, tmp_path, capsys):
        path, graph = triples
        tree_path = tmp_path / "tree.json"
        save_tree(paper_tree(), tree_path)
        out = tmp_path / "cliques.jsonl"
        code = main(
            [
                "enumerate",
                "--input",
                str(path),
                "--m",
                "25",
                "--tree",
                str(tree_path),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert set(read_cliques(out)) == set(tomita(graph))

    def test_m_and_ratio_mutually_exclusive(self, triples):
        path, _graph = triples
        with pytest.raises(SystemExit):
            main(["enumerate", "--input", str(path), "--m", "5", "--ratio", "0.5"])

    def test_split_threshold_without_split_fails(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["enumerate", "--input", str(path), "--m", "25", "--split-threshold", "0"]
        )
        assert code == 1
        assert "split_threshold requires split=True" in capsys.readouterr().err

    def test_batch_cutoff_without_batch_blocks_fails(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["enumerate", "--input", str(path), "--m", "25", "--batch-cutoff", "64"]
        )
        assert code == 1
        assert "batch_cutoff requires batch_blocks=True" in capsys.readouterr().err


class TestCompare:
    def test_detects_incompleteness(self, triples, capsys):
        from repro.graph.cores import degeneracy

        path, graph = triples
        # Small enough for hubs to exist, large enough to converge.
        m = max(degeneracy(graph) + 1, graph.max_degree() // 10)
        code = main(["compare", "--input", str(path), "--m", str(m)])
        out = capsys.readouterr().out
        assert "naive fixed blocks" in out
        assert code == 2  # the baseline misses cliques at small m

    def test_complete_when_m_huge(self, triples, capsys):
        path, _graph = triples
        code = main(["compare", "--input", str(path), "--m", "100000"])
        assert code == 0


class TestCommunities:
    def test_reports_communities(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["communities", "--input", str(path), "--m", "25", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "communities covering" in out
        assert "#0:" in out

    def test_high_k_may_be_empty(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["communities", "--input", str(path), "--m", "25", "--k", "30"]
        )
        assert code == 0
        assert "0 30-clique communities" in capsys.readouterr().out


class TestAudit:
    def test_clean_run(self, triples, capsys):
        path, _graph = triples
        code = main(["audit", "--input", str(path), "--m", "25"])
        assert code == 0
        assert "audit clean" in capsys.readouterr().out

    def test_skip_completeness(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["audit", "--input", str(path), "--m", "25", "--skip-completeness"]
        )
        assert code == 0
        assert "completeness skipped" in capsys.readouterr().out


class TestPlan:
    def test_recommendation_printed(self, triples, capsys):
        path, _graph = triples
        code = main(["plan", "--input", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended m" in out
        assert "rationale:" in out

    def test_planned_m_runs_cleanly(self, triples, capsys):
        from repro.core.planner import recommend_block_size
        from repro.graph.io import read_triples as load

        path, _graph = triples
        assert main(["plan", "--input", str(path)]) == 0
        plan = recommend_block_size(load(path))
        assert (
            main(["enumerate", "--input", str(path), "--m", str(plan.m)]) == 0
        )


class TestTune:
    def test_tune_writes_a_loadable_versioned_tree(self, triples, tmp_path, capsys):
        from repro.decision.persistence import load_tree_with_metadata

        path, _graph = triples
        out = tmp_path / "tuned.json"
        code = main(
            [
                "tune",
                "--input", str(path),
                "--m", "25",
                "--sample", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "harvested" in stdout
        assert "wrote tuned tree" in stdout
        tree, metadata = load_tree_with_metadata(out)
        assert tree.predict is not None
        assert metadata["trained_by"] == "repro tune"
        assert metadata["m"] == 25
        assert len(metadata["corpus_fingerprint"]) == 64
        assert metadata["rows"] > 0
        assert sum(metadata["win_counts"].values()) == metadata["blocks"]

    def test_tuned_tree_deploys_through_auto(
        self, triples, tmp_path, monkeypatch, capsys
    ):
        path, graph = triples
        out = tmp_path / "tuned.json"
        assert (
            main(
                [
                    "tune",
                    "--input", str(path),
                    "--m", "25",
                    "--sample", "2",
                    "--out", str(out),
                ]
            )
            == 0
        )
        monkeypatch.setenv("REPRO_TUNED_TREE", str(out))
        cliques = tmp_path / "cliques.jsonl"
        code = main(
            [
                "enumerate",
                "--input", str(path),
                "--m", "25",
                "--tree", "auto",
                "--output", str(cliques),
            ]
        )
        assert code == 0
        assert set(read_cliques(cliques)) == set(tomita(graph))

    def test_tune_defaults_out_to_auto_path(self, triples, tmp_path, monkeypatch):
        path, _graph = triples
        target = tmp_path / "installed.json"
        monkeypatch.setenv("REPRO_TUNED_TREE", str(target))
        code = main(
            ["tune", "--input", str(path), "--m", "25", "--sample", "2"]
        )
        assert code == 0
        assert target.exists()

    def test_invalid_ratio(self, triples, capsys):
        path, _graph = triples
        assert main(["tune", "--input", str(path), "--ratio", "7"]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_spill_dir_without_segments_fails_cleanly(
        self, triples, tmp_path, capsys
    ):
        path, _graph = triples
        code = main(
            [
                "tune",
                "--input", str(path),
                "--m", "25",
                "--sample", "2",
                "--spill-dir", str(tmp_path / "empty"),
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 1
        assert "no spill segments" in capsys.readouterr().err


class TestEnumerateTreeSpecs:
    def test_named_tree_spec(self, triples, capsys):
        path, _graph = triples
        code = main(
            ["enumerate", "--input", str(path), "--m", "25", "--tree", "extended"]
        )
        assert code == 0
        assert "maximal cliques" in capsys.readouterr().out

    def test_missing_tree_file_errors(self, triples, tmp_path, capsys):
        path, _graph = triples
        code = main(
            [
                "enumerate",
                "--input", str(path),
                "--m", "25",
                "--tree", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 1
        assert "cannot read tree file" in capsys.readouterr().err


class TestPlanTree:
    def test_plan_with_tree_prints_selected_combo(self, triples, capsys):
        path, _graph = triples
        code = main(["plan", "--input", str(path), "--tree", "paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected combo" in out
        assert "selector picked" in out

    def test_plan_without_tree_unchanged(self, triples, capsys):
        path, _graph = triples
        assert main(["plan", "--input", str(path)]) == 0
        assert "selected combo" not in capsys.readouterr().out


class TestParameterValidation:
    def test_bad_generator_parameters_print_error(self, tmp_path, capsys):
        out = tmp_path / "g.triples"
        code = main(
            ["generate", "--model", "ws", "--nodes", "20", "--k", "3", "--out", str(out)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()


class TestMaximum:
    def test_finds_planted_clique(self, triples, capsys):
        path, graph = triples
        code = main(["maximum", "--input", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega(G) = 7" in out  # the planted 7-clique
        assert "maximum clique" in out
