"""Resume semantics of durable (spill-to-disk) runs.

These tests exercise the in-process side of crash-resume: partial runs
produced with the ``raise:`` flavour of the fault hook (the parent
survives, unlike the ``kill:`` crash matrix), resume validation against
the manifest fingerprint, damage handling (torn tails truncated,
mid-file corruption refused), and the error context a durable run
attaches to executor failures.
"""

from __future__ import annotations

import json

import pytest

from faults import CRASH_M, build_executor, crash_graph, golden_cliques
from differential import canonical_cliques
from repro.core.driver import find_max_cliques
from repro.distributed.executor import SerialExecutor, SharedMemoryExecutor
from repro.errors import (
    CorruptSegmentError,
    ExecutorError,
    ResumeMismatchError,
)
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.runs.manifest import MANIFEST_NAME, load_manifest
from repro.runs.segments import FAULT_INJECT_ENV, SEGMENT_MAGIC, _HEADER


@pytest.fixture(scope="module")
def graph():
    return crash_graph()


@pytest.fixture(scope="module")
def golden(graph):
    return golden_cliques(graph, CRASH_M)


def durable(graph, spill_dir, resume=False, executor=None, pipeline=False):
    return find_max_cliques(
        graph,
        CRASH_M,
        spill_dir=spill_dir,
        resume=resume,
        executor=executor,
        pipeline=pipeline,
    )


def partial_run(graph, spill_dir, monkeypatch, target="spill-pre:0.5"):
    """Run durably until the injected *raise* at ``target``; parent survives."""
    monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{target}")
    with pytest.raises(RuntimeError, match="injected failure"):
        durable(graph, spill_dir)
    monkeypatch.delenv(FAULT_INJECT_ENV)


class TestResumeValidation:
    def test_resume_requires_spill_dir(self, graph):
        with pytest.raises(ValueError, match="spill_dir"):
            find_max_cliques(graph, CRASH_M, resume=True)

    def test_fresh_run_refuses_existing_manifest(self, graph, tmp_path):
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="already contains"):
            durable(graph, tmp_path)

    def test_resume_without_manifest_refused(self, graph, tmp_path):
        with pytest.raises(ResumeMismatchError, match="nothing to resume"):
            durable(graph, tmp_path, resume=True)

    def test_resume_with_other_block_size_refused(self, graph, tmp_path):
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="m:"):
            find_max_cliques(
                graph, CRASH_M + 2, spill_dir=tmp_path, resume=True
            )

    def test_resume_with_other_graph_refused(self, graph, tmp_path):
        durable(graph, tmp_path)
        other = erdos_renyi(60, 0.2, seed=4)
        with pytest.raises(ResumeMismatchError, match="graph_sha256"):
            durable(other, tmp_path, resume=True)

    def test_resume_across_driver_modes_refused(self, graph, tmp_path):
        # Barrier and pipeline runs decompose identically today, but the
        # mode is part of the strict fingerprint: block ids must mean
        # the same thing in the run that wrote them and the run that
        # skips them.
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="mode"):
            durable(
                graph,
                tmp_path,
                resume=True,
                executor=SharedMemoryExecutor(max_workers=2),
                pipeline=True,
            )


class TestBarrierBlockIds:
    """Barrier block ids name the ``blocks_csr`` partition."""

    @pytest.mark.parametrize("floor", [0, 3])
    def test_dict_partition_directory_refused(self, graph, tmp_path, floor):
        # Barrier runs once recorded the ids of the dict partition under
        # mode "barrier"; replaying them against the CSR partition would
        # mix blocks of two partitions and can lose cliques.
        find_max_cliques(graph, CRASH_M, spill_dir=tmp_path, min_clique_size=floor)
        suffix = f"+floor{floor}" if floor else ""
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        assert manifest["fingerprint"]["mode"] == "barrier/csr" + suffix
        manifest["fingerprint"]["mode"] = "barrier" + suffix
        path.write_text(json.dumps(manifest))
        with pytest.raises(ResumeMismatchError, match="mode"):
            find_max_cliques(
                graph,
                CRASH_M,
                spill_dir=tmp_path,
                resume=True,
                min_clique_size=floor,
            )

    def test_floored_barrier_keeps_descriptor_ids(self, tmp_path):
        # With a floor, the kept blocks' timings, spill records and
        # manifest entries use the ids their BlockBound records carry.
        class PerLevelTraces(SerialExecutor):
            def map_blocks(self, *args, level=0, **kwargs):
                reports = super().map_blocks(*args, level=level, **kwargs)
                traces[level] = self.last_trace
                return reports

        traces = {}
        graph = load_dataset("twitter1")
        m = graph.max_degree() // 2
        executor = PerLevelTraces()
        result = find_max_cliques(
            graph, m, executor=executor, min_clique_size=8, spill_dir=tmp_path
        )
        bounds = executor.last_trace.bounds
        assert any(bound.skipped for bound in bounds)
        completed = load_manifest(tmp_path).completed
        for level, trace in traces.items():
            kept = sorted(
                b.block_id for b in bounds if b.level == level and not b.skipped
            )
            assert sorted(t.block_id for t in trace.timings) == kept
            assert sorted(completed.get(level, ())) == kept
        assert result.run_info["blocks_recorded"] == sum(
            1 for bound in bounds if not bound.skipped
        )


class TestPartialResume:
    def test_partial_serial_run_resumes_to_golden(
        self, graph, golden, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        info = result.run_info
        assert info is not None
        assert info["resumed"]
        # Serial analysis records blocks in id order, so exactly blocks
        # 0–4 of level 0 were durable when the fault fired at block 5.
        assert info["blocks_replayed"] == 5
        assert info["blocks_recorded"] > 0
        assert load_manifest(tmp_path).status == "complete"

    def test_resume_opens_a_fresh_segment(self, graph, tmp_path, monkeypatch):
        partial_run(graph, tmp_path, monkeypatch)
        durable(graph, tmp_path, resume=True)
        manifest = load_manifest(tmp_path)
        assert manifest.segments == ["segment-0000.seg", "segment-0001.seg"]
        assert (tmp_path / "segment-0000.seg").exists()
        assert (tmp_path / "segment-0001.seg").exists()

    def test_cross_executor_resume(self, graph, golden, tmp_path, monkeypatch):
        # Spilled by the serial path, resumed on the shared-memory
        # executor: same barrier fingerprint, same block ids, same
        # cliques — durability is executor-independent.
        partial_run(graph, tmp_path, monkeypatch)
        result = durable(
            graph, tmp_path, resume=True, executor=build_executor("shared")
        )
        assert canonical_cliques(result.cliques) == golden
        assert result.run_info["blocks_replayed"] == 5

    def test_resume_of_complete_run_reanalyses_nothing(
        self, graph, golden, tmp_path
    ):
        durable(graph, tmp_path)
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        info = result.run_info
        assert info["blocks_recorded"] == 0
        assert info["blocks_replayed"] > 0
        assert info["flush_bytes"] == 0

    def test_fresh_run_info_digest(self, graph, tmp_path):
        result = durable(graph, tmp_path)
        info = result.run_info
        assert info is not None
        assert not info["resumed"]
        assert info["blocks_replayed"] == 0
        assert info["blocks_recorded"] == sum(
            level.num_blocks for level in result.levels
        )
        assert info["flush_bytes"] > 0
        assert info["flush_seconds"] >= 0.0
        assert info["segments"] == ["segment-0000.seg"]
        assert info["spill_dir"] == str(tmp_path)
        assert result.summary()["run_info"] == info

    def test_in_memory_run_has_no_run_info(self, graph):
        assert find_max_cliques(graph, CRASH_M).run_info is None


class TestDamageHandling:
    def test_torn_tail_is_truncated_on_resume(
        self, graph, golden, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        intact = segment.stat().st_size
        # A torn append: a header whose payload never made it to disk.
        with open(segment, "ab") as fh:
            fh.write(_HEADER.pack(10_000, 0) + b"partial")
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        assert segment.stat().st_size == intact
        assert result.run_info["blocks_replayed"] == 5

    def test_mid_file_corruption_refuses_resume(
        self, graph, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        data = bytearray(segment.read_bytes())
        data[len(SEGMENT_MAGIC) + _HEADER.size] ^= 0x01  # first payload byte
        segment.write_bytes(bytes(data))
        with pytest.raises(CorruptSegmentError):
            durable(graph, tmp_path, resume=True)

    def test_duplicate_block_across_segments_refused(
        self, graph, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        (tmp_path / "segment-0001.seg").write_bytes(segment.read_bytes())
        with pytest.raises(CorruptSegmentError, match="recorded twice"):
            durable(graph, tmp_path, resume=True)

    def test_orphan_segment_is_still_recovered(
        self, graph, golden, tmp_path, monkeypatch
    ):
        # A crash between segment creation and the manifest save leaves
        # a segment the manifest never heard of; resume globs the
        # directory, so the orphan's records are replayed anyway.
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        orphan = tmp_path / "segment-0003.seg"
        orphan.write_bytes(segment.read_bytes())
        segment.unlink()
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        assert result.run_info["blocks_replayed"] == 5


class TestExecutorErrorContext:
    def test_worker_death_names_block_and_segment(
        self, graph, tmp_path, monkeypatch
    ):
        # The worker-side kill hook only fires in pool workers (it is
        # gated on having a parent process), so setting it here cannot
        # kill the test session.
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:5")
        executor = build_executor("shared", retry_failed=False)
        with pytest.raises(ExecutorError) as excinfo:
            durable(graph, tmp_path, executor=executor)
        assert excinfo.value.block_id is not None
        assert excinfo.value.segment_path is not None
        assert excinfo.value.segment_path.startswith(str(tmp_path))

    def test_durable_run_survives_worker_death_with_retry(
        self, graph, golden, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:5")
        executor = build_executor("shared", retry_failed=True)
        result = durable(graph, tmp_path, executor=executor)
        assert canonical_cliques(result.cliques) == golden
        assert load_manifest(tmp_path).status == "complete"
