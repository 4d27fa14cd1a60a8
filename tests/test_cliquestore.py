"""The packed clique result plane: store, emitters, codec, parity.

Four layers of coverage:

* property-based round-trips of :class:`CliqueStore` and
  :class:`CliqueBuffer` — packing any clique collection and decoding it
  back is the identity, and every aggregate (sizes, histogram, top-k,
  selection) and every emitter entry point agrees with the plain-Python
  computation;
* the ``RPCK`` packed segment codec — encode/decode round-trips
  (including the empty store, singleton cliques and frozenset-list
  reports), torn-tail recovery on packed segments, refusal of unknown
  codec versions and of foreign payloads;
* back-compat — a spill directory in the legacy pickled record format
  of earlier versions resumes and replays correctly;
* plane parity — in every differential driver mode and with every
  combo, the driver's packed output equals, clique for clique and in
  order, the frozenset plane kept here as the oracle: the same block
  reports decoded to frozensets and merged with the list Lemma-1 filter.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import DRIVER_MODES, driver_result
from repro.core.block_analysis import BlockReport
from repro.core.cliquestore import (
    CliqueBuffer,
    CliqueStore,
    GlobalCliqueIndex,
    store_of,
)
from repro.core.driver import find_max_cliques
from repro.core.filtering import filter_contained
from repro.core.result import CliqueResult
from repro.decision.features import BlockFeatures
from repro.errors import CorruptSegmentError
from repro.graph.generators import social_network
from repro.mce.registry import ALL_COMBOS, Combo
from repro.runs.segments import (
    PACKED_RECORD_MAGIC,
    PACKED_RECORD_VERSION,
    SegmentWriter,
    decode_block_record,
    encode_block_record,
    read_segment,
    recover_segment,
)

# Any hashable label type the graph generators produce.
clique_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=40), max_size=6),
    max_size=14,
)


def reference_features() -> BlockFeatures:
    return BlockFeatures(
        num_nodes=5, num_edges=4, density=0.4, degeneracy=2, d_star=2
    )


def packed_report(cliques, levels=None) -> BlockReport:
    """A BlockReport carrying the packed form of ``cliques``."""
    store = store_of(cliques)
    if levels is not None:
        store.levels = np.asarray(levels, dtype=np.int32)
    return BlockReport(
        cliques=store,
        combo=Combo("tomita", "lists"),
        features=reference_features(),
        seconds=0.25,
        kernel_nodes=3,
        extra={"anchors_skipped": 1.0},
    )


# ---------------------------------------------------------------------------
# CliqueStore round-trips and aggregates
# ---------------------------------------------------------------------------
class TestCliqueStore:
    @settings(max_examples=80, deadline=None)
    @given(clique_lists)
    def test_pack_decode_is_identity(self, cliques):
        store = store_of(cliques)
        assert store.to_list() == cliques
        assert list(store) == cliques
        assert len(store) == len(cliques)
        assert store == cliques

    @settings(max_examples=60, deadline=None)
    @given(clique_lists)
    def test_aggregates_match_python(self, cliques):
        store = store_of(cliques)
        sizes = [len(c) for c in cliques]
        assert store.sizes.tolist() == sizes
        assert store.max_size() == (max(sizes) if sizes else 0)
        if sizes:
            assert store.mean_size() == pytest.approx(sum(sizes) / len(sizes))
        else:
            assert store.mean_size() == 0.0
        histogram = {}
        for size in sizes:
            histogram[size] = histogram.get(size, 0) + 1
        assert store.size_histogram() == histogram

    @settings(max_examples=60, deadline=None)
    @given(clique_lists, st.integers(min_value=0, max_value=6))
    def test_top_k_covers_the_k_largest(self, cliques, k):
        store = store_of(cliques)
        indices = store.top_k(k)
        expected = sorted((len(c) for c in cliques), reverse=True)[:k]
        got = sorted((len(cliques[int(i)]) for i in indices), reverse=True)
        assert got[:k] == expected
        # Boundary ties are all present: any clique at least as large as
        # the k-th largest appears in the returned indices.
        if expected:
            threshold = expected[-1]
            covered = set(int(i) for i in indices)
            for i, clique in enumerate(cliques):
                if len(clique) >= threshold:
                    assert i in covered

    @settings(max_examples=50, deadline=None)
    @given(clique_lists)
    def test_select_by_mask_matches_comprehension(self, cliques):
        store = store_of(cliques)
        mask = np.array([len(c) % 2 == 0 for c in cliques], dtype=bool)
        assert store.select(mask).to_list() == [
            c for c, keep in zip(cliques, mask) if keep
        ]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(clique_lists, max_size=4))
    def test_concat_preserves_order(self, parts):
        # One shared label space: pack all parts through one index.
        index = GlobalCliqueIndex()
        stores = [index.add(part) for part in parts]
        merged = CliqueStore.concat(stores)
        assert merged.to_list() == [c for part in parts for c in part]

    def test_empty_store(self):
        store = CliqueStore.empty()
        assert len(store) == 0
        assert store.to_list() == []
        assert store.max_size() == 0
        assert store.mean_size() == 0.0
        assert store.size_histogram() == {}
        assert store.top_k(5).tolist() == []

    def test_offsets_vertex_mismatch_is_refused(self):
        with pytest.raises(ValueError):
            CliqueStore(np.array([0, 3], dtype=np.uint64), np.array([1], dtype=np.uint32))

    def test_pickle_drops_decode_cache(self):
        store = store_of([frozenset({1, 2}), frozenset({3})])
        _ = store.to_list()
        clone = pickle.loads(pickle.dumps(store))
        assert clone._decoded is None
        assert clone.to_list() == store.to_list()


class TestEmitters:
    """Each :class:`CliqueBuffer` entry point against plain Python."""

    LABELS = [f"n{i}" for i in range(32)]

    def decoded(self, id_rows):
        return [frozenset(self.LABELS[i] for i in row) for row in id_rows]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=8))
    def test_extend_parity(self, tuples):
        buffer = CliqueBuffer(labels=self.LABELS)
        buffer.extend(tuples)
        assert buffer.build().to_list() == self.decoded(tuples)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 31),
        st.lists(st.tuples(st.integers(0, 31)), max_size=8),
    )
    def test_extend_prefixed_parity(self, anchor, extensions):
        buffer = CliqueBuffer(labels=self.LABELS)
        buffer.extend_prefixed(anchor, extensions)
        assert buffer.build().to_list() == self.decoded(
            (anchor, *extension) for extension in extensions
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
        st.integers(1, 3),
        st.integers(0, 6),
    )
    def test_append_columns_parity(self, prefix, depth, count):
        columns = [
            np.arange(count, dtype=np.uint32) % 32 for _ in range(depth)
        ]
        buffer = CliqueBuffer(labels=self.LABELS)
        buffer.append_columns(prefix, columns)
        rows = zip(*[column.tolist() for column in columns])
        assert buffer.build().to_list() == self.decoded(
            prefix + row for row in rows
        )


class TestGlobalCliqueIndex:
    def test_overlapping_blocks_share_one_space(self):
        index = GlobalCliqueIndex()
        first = index.add([frozenset({"a", "b"}), frozenset({"b", "c"})])
        second = index.add([frozenset({"c", "d"}), frozenset({"a"})])
        assert first.to_list() == [frozenset({"a", "b"}), frozenset({"b", "c"})]
        assert second.to_list() == [frozenset({"c", "d"}), frozenset({"a"})]
        # "a" and "c" resolve to the same global id in both stores.
        merged = CliqueStore.concat([first, second])
        assert merged.to_list() == first.to_list() + second.to_list()
        assert len(index.labels) == 4


# ---------------------------------------------------------------------------
# The RPCK packed record codec
# ---------------------------------------------------------------------------
class TestPackedRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(clique_lists)
    def test_roundtrip(self, cliques):
        report = packed_report(cliques)
        payload = encode_block_record(3, 9, report)
        assert payload.startswith(PACKED_RECORD_MAGIC)
        level, block_id, back = decode_block_record(payload)
        assert (level, block_id) == (3, 9)
        assert isinstance(back.cliques, CliqueStore)
        assert back.cliques.to_list() == cliques
        assert back.seconds == report.seconds
        assert back.kernel_nodes == report.kernel_nodes
        assert back.extra == report.extra
        assert back.combo.name == report.combo.name

    def test_empty_store_roundtrip(self):
        _, _, back = decode_block_record(
            encode_block_record(0, 0, packed_report([]))
        )
        assert back.cliques.to_list() == []

    def test_singleton_cliques_roundtrip(self):
        cliques = [frozenset({i}) for i in range(5)]
        _, _, back = decode_block_record(
            encode_block_record(1, 2, packed_report(cliques))
        )
        assert back.cliques.to_list() == cliques

    def test_levels_survive_the_roundtrip(self):
        report = packed_report(
            [frozenset({1, 2}), frozenset({3})], levels=[0, 2]
        )
        _, _, back = decode_block_record(encode_block_record(0, 1, report))
        assert back.cliques.levels.tolist() == [0, 2]

    def test_list_report_is_written_as_rpck(self):
        cliques = [frozenset({"a", "b"}), frozenset({"b", "c", "d"})]
        report = BlockReport(
            cliques=cliques,
            combo=Combo("tomita", "lists"),
            features=reference_features(),
            seconds=0.5,
        )
        payload = encode_block_record(4, 2, report)
        assert payload.startswith(PACKED_RECORD_MAGIC)
        level, block_id, back = decode_block_record(payload)
        assert (level, block_id) == (4, 2)
        assert isinstance(back.cliques, CliqueStore)
        assert back.cliques.to_list() == cliques

    def test_legacy_pickled_record_still_decodes(self):
        legacy = BlockReport(
            cliques=[frozenset({1, 2, 3})],
            combo=Combo("tomita", "lists"),
            features=reference_features(),
            seconds=0.5,
        )
        payload = pickle.dumps((4, 2, legacy), protocol=pickle.HIGHEST_PROTOCOL)
        level, block_id, back = decode_block_record(payload)
        assert (level, block_id) == (4, 2)
        assert back.cliques == [frozenset({1, 2, 3})]

    def test_unknown_codec_version_is_refused(self):
        payload = bytearray(encode_block_record(0, 0, packed_report([frozenset({1})])))
        struct.pack_into("<H", payload, len(PACKED_RECORD_MAGIC), PACKED_RECORD_VERSION + 1)
        with pytest.raises(CorruptSegmentError, match="unknown packed block record version"):
            decode_block_record(bytes(payload))

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=120))
    def test_foreign_rpck_payload_is_refused(self, junk):
        with pytest.raises(CorruptSegmentError):
            decode_block_record(PACKED_RECORD_MAGIC + junk)

    def test_truncated_packed_payload_is_refused(self):
        payload = encode_block_record(0, 0, packed_report([frozenset({1, 2})]))
        for cut in (5, 12, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CorruptSegmentError):
                decode_block_record(payload[:cut])


class TestPackedSegmentRecovery:
    def write_segment(self, path, reports):
        with SegmentWriter(path) as writer:
            for block_id, report in enumerate(reports):
                writer.append(encode_block_record(0, block_id, report))
        return path.read_bytes()

    def test_torn_tail_on_packed_segment(self, tmp_path):
        path = tmp_path / "seg-0.seg"
        reports = [
            packed_report([frozenset({1, 2, 3})]),
            packed_report([frozenset({2, 4})]),
            packed_report([frozenset({5, 6}), frozenset({7})]),
        ]
        data = self.write_segment(path, reports)
        # Tear the final record: keep everything but its last 7 bytes.
        path.write_bytes(data[:-7])
        payloads, valid = recover_segment(path)
        assert len(payloads) == 2
        for block_id, payload in enumerate(payloads):
            level, got_id, back = decode_block_record(payload)
            assert (level, got_id) == (0, block_id)
            assert back.cliques.to_list() == reports[block_id].cliques.to_list()
        assert valid < len(data)

    def test_intact_packed_segment_recovers_fully(self, tmp_path):
        path = tmp_path / "seg-1.seg"
        reports = [packed_report([frozenset({i, i + 1})]) for i in range(4)]
        self.write_segment(path, reports)
        payloads, _ = recover_segment(path)
        assert len(payloads) == 4


# ---------------------------------------------------------------------------
# Plane parity and legacy-spill back-compat (the differential gate)
# ---------------------------------------------------------------------------
M = 16


@pytest.fixture(scope="module")
def graph():
    return social_network(70, attachment=3, planted_cliques=(6,), seed=11)


def frozenset_plane(result: CliqueResult) -> CliqueResult:
    """The frozenset result plane, kept as the oracle of the packed one.

    Decodes the block reports of ``result`` (a ``collect_reports=True``
    run) to frozenset lists and merges the levels bottom-up with the
    list Lemma-1 filter (:func:`filter_contained`): deeper cliques first
    filtered against each shallower level, every level's own cliques
    first in the merged order.
    """
    assert not result.fallback_used
    merged: list[frozenset] = []
    provenance: dict[frozenset, int] = {}
    for level in range(len(result.block_reports) - 1, -1, -1):
        feasible_side = [
            clique
            for report in result.block_reports[level]
            for clique in report.cliques
        ]
        provenance.update(dict.fromkeys(feasible_side, level))
        merged = feasible_side + filter_contained(merged, feasible_side)
    return CliqueResult(
        cliques=merged,
        provenance={clique: provenance[clique] for clique in merged},
        levels=result.levels,
        m=result.m,
    )


class TestPlaneParity:
    """Packed driver output against the frozenset-plane oracle."""

    @pytest.mark.parametrize("mode", DRIVER_MODES)
    def test_driver_modes_agree_across_planes(self, mode, graph):
        packed = driver_result(mode, graph, M, collect_reports=True)
        assert packed.cliques == frozenset_plane(packed).cliques

    @pytest.mark.parametrize("combo", ALL_COMBOS, ids=lambda c: c.name)
    def test_combos_agree_across_planes(self, combo, graph):
        packed = driver_result("serial", graph, M, combo=combo, collect_reports=True)
        assert packed.cliques == frozenset_plane(packed).cliques

    def test_provenance_agrees_across_planes(self, graph):
        packed = find_max_cliques(graph, M, collect_reports=True)
        legacy = frozenset_plane(packed)
        assert packed.hub_cliques()
        assert packed.provenance == legacy.provenance
        packed_summary, legacy_summary = packed.summary(), legacy.summary()
        for key in ("num_cliques", "max_clique_size", "feasible_cliques", "hub_only_cliques"):
            assert packed_summary[key] == legacy_summary[key]
        assert packed.largest(5) == legacy.largest(5)
        assert packed.hub_share_of_largest(5) == legacy.hub_share_of_largest(5)


class TestLegacySpillBackCompat:
    def test_legacy_spill_dir_resumes_under_packed_plane(self, graph, tmp_path):
        # Record a packed run, then forge the directory an earlier
        # version wrote: each record a pickled (level, block_id,
        # BlockReport) triple whose cliques are a frozenset list.
        recorded = find_max_cliques(graph, M, spill_dir=tmp_path)
        forged = 0
        for path in sorted(tmp_path.glob("*.seg")):
            payloads = list(read_segment(path))
            path.unlink()
            with SegmentWriter(path) as writer:
                for payload in payloads:
                    level, block_id, report = decode_block_record(payload)
                    report.cliques = list(report.cliques)
                    legacy = pickle.dumps(
                        (level, block_id, report), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    assert not legacy.startswith(PACKED_RECORD_MAGIC)
                    writer.append(legacy)
                    forged += 1
        assert forged == recorded.run_info["blocks_recorded"] > 0
        resumed = find_max_cliques(graph, M, spill_dir=tmp_path, resume=True)
        assert resumed.run_info["blocks_recorded"] == 0
        assert resumed.run_info["blocks_replayed"] == forged
        assert resumed.cliques == recorded.cliques
        assert resumed.provenance == recorded.provenance

    def test_packed_spill_dir_resumes_under_packed_plane(self, graph, tmp_path):
        fresh = find_max_cliques(graph, M, spill_dir=tmp_path)
        resumed = find_max_cliques(graph, M, spill_dir=tmp_path, resume=True)
        assert resumed.run_info["blocks_replayed"] > 0
        assert resumed.cliques == fresh.cliques
