"""Append-only spill segments: CRC-checked, length-prefixed records.

A segment file is the durable unit workers' results are spilled into as
blocks finish.  The format is deliberately dumb so a half-written file
is always diagnosable:

* the file starts with an 8-byte magic (``SEGMENT_MAGIC``) naming the
  format version;
* each record is ``<u32 length> <u32 crc32-of-payload> <payload>``
  (little-endian header), appended with ``flush`` + ``fsync`` so a
  record either survives a crash whole or is a recognisable torn tail.

Two readers with different trust models:

* :func:`read_segment` is *strict* — any invalid byte, including a torn
  tail, raises :class:`~repro.errors.CorruptSegmentError`.  Integrity
  tests use it.
* :func:`recover_segment` is what resume uses — it accepts a torn
  *final* record (the signature of a crash mid-append) and reports how
  many bytes are valid so the caller can truncate, but still raises on
  corruption *before* the tail (a CRC mismatch followed by more intact
  records can only be bit rot, never a torn write), because replaying a
  questionable record could return wrong cliques.

The payload is opaque bytes at this layer; :func:`encode_block_record`
/ :func:`decode_block_record` define the payload shapes the run log
uses.  Two shapes are read:

* **packed block records** (the only shape written): a ``RPCK`` magic,
  a ``u16`` codec version, a fixed-size header, then the raw
  offsets/vertices/levels buffers followed by the (small) pickled label
  table and report metadata.  Decoding slices the arrays straight out
  of the payload with ``np.frombuffer`` — a resume replay never
  re-materializes a frozenset.  Unknown codec versions are refused with
  :class:`~repro.errors.CorruptSegmentError` (same refusal discipline
  as the tuned-tree envelope's ``FormatError``).
* **legacy pickled records** — a pickled ``(level, block_id,
  BlockReport)`` triple, written by earlier versions.  No longer
  written, but still read, so spill directories from earlier versions
  resume unchanged.

For the fault-injection tests the writer honours the same
``REPRO_FAULT_INJECT`` environment hook the executors use (see
:mod:`repro.distributed.executor`), extended with parent-side spill
targets: ``kill:spill-pre:<level>.<block>`` fires before a record is
written, ``kill:spill-mid:<level>.<block>`` after only half the payload
is on disk (a genuine torn record), ``kill:spill-post:<level>.<block>``
after the manifest update.  Unlike the worker-side targets these fire
in the parent process — that is the point: they simulate the *parent*
dying around the flush boundary.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.block_analysis import BlockReport
from repro.core.cliquestore import CliqueStore, store_of
from repro.errors import CorruptSegmentError

SEGMENT_MAGIC = b"RPRSEG01"
_HEADER = struct.Struct("<II")

# Packed block-record codec (the zero-copy result plane on disk).
PACKED_RECORD_MAGIC = b"RPCK"
PACKED_RECORD_VERSION = 1
_PACKED_VERSION_STRUCT = struct.Struct("<H")
# level, block_id, num_cliques, num_vertices, has_levels,
# labels_bytes, meta_bytes
_PACKED_HEADER = struct.Struct("<qqQQBQQ")

# Shared with repro.distributed.executor (kept in sync by an import
# there); defined here so the runs package never imports the executor.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"


def spill_fault_requested(phase: str, level: int, block_id: int) -> str | None:
    """Return the fault kind if the env hook targets this spill point.

    ``phase`` is ``"pre"``, ``"mid"`` or ``"post"``; the matching spec is
    ``<kind>:spill-<phase>:<level>.<block_id>`` with ``kind`` one of
    ``kill`` / ``raise``.  Returns ``None`` when the hook is unset or
    aimed elsewhere.
    """
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return None
    kind, _, target = spec.partition(":")
    if target != f"spill-{phase}:{level}.{block_id}":
        return None
    return kind


def maybe_inject_spill_fault(phase: str, level: int, block_id: int) -> None:
    """Test hook: kill or raise in the *parent* at a spill fault point."""
    kind = spill_fault_requested(phase, level, block_id)
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "raise":
        raise RuntimeError(
            f"injected failure at spill-{phase} of block {level}.{block_id}"
        )


def encode_record(payload: bytes) -> bytes:
    """The on-disk bytes of one record: header + payload."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(data: bytes, offset: int, path: str | None = None) -> tuple[bytes, int]:
    """Decode the record starting at ``offset``; return (payload, next offset).

    Raises
    ------
    CorruptSegmentError
        When the header is cut short, the payload extends past the
        buffer, or the CRC does not match.
    """
    if offset + _HEADER.size > len(data):
        raise CorruptSegmentError(
            f"record header truncated at byte {offset}", path=path, offset=offset
        )
    length, crc = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        raise CorruptSegmentError(
            f"record payload truncated at byte {offset} "
            f"(claims {length} bytes, {len(data) - start} remain)",
            path=path,
            offset=offset,
        )
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        raise CorruptSegmentError(
            f"record CRC mismatch at byte {offset}", path=path, offset=offset
        )
    return payload, end


def encode_block_record(level: int, block_id: int, report: BlockReport) -> bytes:
    """Serialize one finished block's report as an ``RPCK`` v1 payload.

    Raw array buffers, no per-clique pickling.  A report whose
    ``cliques`` is a frozenset list (a hand-built report, or one
    replayed from a legacy pickled record) is packed with
    :func:`~repro.core.cliquestore.store_of` first.
    """
    store = store_of(report.cliques)
    offsets = np.ascontiguousarray(store.offsets, dtype=np.uint64)
    vertices = np.ascontiguousarray(store.vertices, dtype=np.uint32)
    has_levels = store.levels is not None
    levels_bytes = (
        np.ascontiguousarray(store.levels, dtype=np.int32).tobytes()
        if has_levels
        else b""
    )
    labels_bytes = pickle.dumps(
        list(store.labels) if store.labels is not None else None,
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    meta_bytes = pickle.dumps(
        {
            "combo": report.combo,
            "features": report.features,
            "seconds": report.seconds,
            "kernel_nodes": report.kernel_nodes,
            "extra": report.extra,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = _PACKED_HEADER.pack(
        int(level),
        int(block_id),
        store.num_cliques,
        len(vertices),
        1 if has_levels else 0,
        len(labels_bytes),
        len(meta_bytes),
    )
    return b"".join(
        (
            PACKED_RECORD_MAGIC,
            _PACKED_VERSION_STRUCT.pack(PACKED_RECORD_VERSION),
            header,
            offsets.tobytes(),
            vertices.tobytes(),
            levels_bytes,
            labels_bytes,
            meta_bytes,
        )
    )


def _decode_packed_record(payload: bytes) -> tuple[int, int, BlockReport]:
    """Inverse of :func:`encode_block_record`; rigorously validated.

    Every length is checked against the buffer before slicing and the
    payload must be consumed exactly, so a foreign blob that happens to
    start with the magic is refused rather than misread.  Unknown codec
    versions are refused up front — forward compatibility by refusal,
    the same discipline as the tuned-tree envelope.
    """
    cursor = len(PACKED_RECORD_MAGIC)
    if len(payload) < cursor + _PACKED_VERSION_STRUCT.size + _PACKED_HEADER.size:
        raise CorruptSegmentError("packed block record truncated")
    (version,) = _PACKED_VERSION_STRUCT.unpack_from(payload, cursor)
    if version != PACKED_RECORD_VERSION:
        raise CorruptSegmentError(
            f"unknown packed block record version {version} "
            f"(this build reads version {PACKED_RECORD_VERSION})"
        )
    cursor += _PACKED_VERSION_STRUCT.size
    (
        level,
        block_id,
        num_cliques,
        num_vertices,
        has_levels,
        labels_len,
        meta_len,
    ) = _PACKED_HEADER.unpack_from(payload, cursor)
    cursor += _PACKED_HEADER.size
    offsets_len = (num_cliques + 1) * 8
    vertices_len = num_vertices * 4
    levels_len = num_cliques * 4 if has_levels else 0
    expected = cursor + offsets_len + vertices_len + levels_len + labels_len + meta_len
    if has_levels not in (0, 1) or expected != len(payload):
        raise CorruptSegmentError(
            f"packed block record length mismatch "
            f"(expects {expected} bytes, payload has {len(payload)})"
        )
    offsets = np.frombuffer(payload, dtype=np.uint64, count=num_cliques + 1, offset=cursor)
    cursor += offsets_len
    vertices = np.frombuffer(payload, dtype=np.uint32, count=num_vertices, offset=cursor)
    cursor += vertices_len
    levels = None
    if has_levels:
        levels = np.frombuffer(payload, dtype=np.int32, count=num_cliques, offset=cursor)
        cursor += levels_len
    try:
        labels = pickle.loads(payload[cursor : cursor + labels_len])
        meta = pickle.loads(payload[cursor + labels_len :])
    except Exception as exc:
        raise CorruptSegmentError(
            f"packed block record tail is not decodable: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise CorruptSegmentError("packed block record meta is not a dict")
    try:
        store = CliqueStore(offsets, vertices, levels, labels)
        report = BlockReport(cliques=store, **meta)
    except (TypeError, ValueError) as exc:
        raise CorruptSegmentError(
            f"packed block record is inconsistent: {exc}"
        ) from exc
    return int(level), int(block_id), report


def decode_block_record(payload: bytes) -> tuple[int, int, BlockReport]:
    """Inverse of :func:`encode_block_record` (both codecs).

    Dispatches on the ``RPCK`` magic; anything else is tried as a
    legacy pickled triple, which keeps pre-packed spill directories
    replayable.

    Raises
    ------
    CorruptSegmentError
        When the payload is neither a valid packed record (including
        the unknown-version refusal) nor the expected pickled triple.
        The CRC makes this unreachable for disk errors; it guards
        against a foreign file that happens to carry a valid CRC.
    """
    if payload[: len(PACKED_RECORD_MAGIC)] == PACKED_RECORD_MAGIC:
        return _decode_packed_record(payload)
    try:
        level, block_id, report = pickle.loads(payload)
    except Exception as exc:
        raise CorruptSegmentError(
            f"record payload is not a block record: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(level, int) or not isinstance(block_id, int) or not isinstance(
        report, BlockReport
    ):
        raise CorruptSegmentError("record payload is not a block record")
    return level, block_id, report


class SegmentWriter:
    """Append records to one segment file with per-record durability.

    Opens (or creates, writing the magic) the file once; every
    :meth:`append` flushes and ``fsync``\\ s, so each record is either
    fully on disk or a recognisable torn tail.  ``fault_key`` carries
    the ``(level, block_id)`` identity of the record for the
    fault-injection hook — a targeted ``kill:spill-mid`` kills the
    process after deliberately writing only half the payload.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._fh = open(self.path, "ab")
        if not exists:
            self._fh.write(SEGMENT_MAGIC)
            self._sync()

    def append(
        self, payload: bytes, fault_key: tuple[int, int] | None = None
    ) -> int:
        """Durably append one record; return the bytes written."""
        record = encode_record(payload)
        if fault_key is not None and (
            spill_fault_requested("mid", *fault_key) == "kill"
        ):
            # Simulate the parent dying mid-write: half the record
            # reaches the disk, then the process is gone.
            self._fh.write(record[: len(record) // 2])
            self._sync()
            os.kill(os.getpid(), signal.SIGKILL)
        self._fh.write(record)
        self._sync()
        return len(record)

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _check_magic(data: bytes, path: str) -> None:
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise CorruptSegmentError(
            f"{path} is not a spill segment (bad magic)", path=path, offset=0
        )


def read_segment(path: str | Path) -> Iterator[bytes]:
    """Yield every record payload of a segment, strictly.

    Raises
    ------
    CorruptSegmentError
        On a bad magic, a torn tail, or any CRC/length inconsistency —
        this reader trusts nothing and is what the integrity tests use.
    """
    path = str(path)
    data = Path(path).read_bytes()
    if len(data) < len(SEGMENT_MAGIC):
        raise CorruptSegmentError(
            f"{path} is shorter than the segment magic", path=path, offset=0
        )
    _check_magic(data, path)
    offset = len(SEGMENT_MAGIC)
    while offset < len(data):
        payload, offset = decode_record(data, offset, path=path)
        yield payload


def recover_segment(path: str | Path) -> tuple[list[bytes], int]:
    """Read a segment for resume; tolerate a torn *final* record.

    Returns ``(payloads, valid_bytes)`` where ``valid_bytes`` is the
    length of the intact prefix — the caller truncates the file there
    before appending new records.  A record that is cut short by the end
    of the file, or whose CRC fails *with nothing after it*, is the torn
    tail a crash mid-append leaves and is dropped.  An invalid record
    with more data beyond its claimed extent cannot be a torn write —
    that is corruption, and the segment is refused.

    Raises
    ------
    CorruptSegmentError
        On a bad magic or mid-file corruption.
    """
    path = str(path)
    data = Path(path).read_bytes()
    if len(data) < len(SEGMENT_MAGIC):
        # An empty or magic-less file: a crash between creation and the
        # first sync.  Nothing to replay; truncate to zero and rewrite.
        return [], 0
    _check_magic(data, path)
    payloads: list[bytes] = []
    offset = len(SEGMENT_MAGIC)
    while offset < len(data):
        try:
            payload, next_offset = decode_record(data, offset, path=path)
        except CorruptSegmentError:
            if _extends_to_eof(data, offset):
                return payloads, offset
            raise
        payloads.append(payload)
        offset = next_offset
    return payloads, offset


def _extends_to_eof(data: bytes, offset: int) -> bool:
    """True when the invalid record at ``offset`` could be a torn tail.

    A torn tail is an incomplete header, a payload cut short by EOF, or
    a CRC-failing record that is the *last* thing in the file.  If valid
    bytes exist beyond the record's claimed extent, a torn write cannot
    explain them.
    """
    if offset + _HEADER.size > len(data):
        return True
    length, _ = _HEADER.unpack_from(data, offset)
    return offset + _HEADER.size + length >= len(data)
