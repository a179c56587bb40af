"""Durable operation journal and snapshots for the Elaps server.

The paper's server (PAPER.md §6) is purely in-memory: one restart loses
the event corpus, every subscription, and every cached safe region.
This module adds the durability substrate:

* an **append-only journal** of the state-changing operations
  (:data:`OPERATIONS`: subscribe, unsubscribe, location report, resync,
  publish, publish_batch, expiry sweep, bootstrap, band-move extract),
  each recorded as the ``(method, args)`` command that performs it —
  the value a fleet coordinator sends a shard — in one length-prefixed
  + CRC32-checksummed record carrying a monotonically increasing
  journal sequence number;
* **snapshots** — a checksummed, atomically-renamed image of the full
  server state (corpus, subscription table, cached safe/impact regions,
  per-subscriber delivery state, :class:`CommunicationStats` counters)
  that lets recovery skip the log prefix and rotate the journal;
* the **record/snapshot layouts** — the absolute-time event, the sorted
  cell-list region, the per-operation record heads, the snapshot order
  — written entirely with the wire protocol's value codecs and read
  with its one strict reader (``protocol._Reader``), so a journal is
  readable by anything that can read the wire format and follows the
  wire's end rule: a complete, checksum-clean body that does not decode
  to exactly its length is :class:`JournalCorruptionError`.

Framing on disk (``journal.log``)::

    [4-byte BE length][4-byte BE CRC32 of payload][payload]
    payload = [8-byte BE seq][1-byte kind][kind-specific body]

Two failure modes are distinguished deliberately:

* a record whose bytes end prematurely at EOF is a **torn tail** — the
  process died mid-append; the file is silently truncated back to the
  last complete record (write-ahead logging makes the half-written
  operation as-if-never-attempted);
* a *complete* record whose CRC32 does not match, or whose
  checksum-clean body does not decode to exactly its length, is
  **corruption** — bit rot or a hostile edit;
  :class:`JournalCorruptionError` is raised because nothing after the
  damaged record can be trusted.

Idempotent replay falls out of the sequence numbers: the server tracks
the highest applied seq (snapshots persist it), and recovery applies
only records *beyond* it — replaying the same journal twice is a no-op
by construction.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..expressions import Event, Subscription
from ..geometry import Point
from ..geometry.zorder import deinterleave_array, interleave_array
from .protocol import (
    _encode_array,
    _encode_pairs,
    _encode_point,
    _Reader,
    encode_expression,
)

__all__ = [
    "Journal",
    "JournalCorruptionError",
    "JournalError",
    "JournalRecord",
    "JournalSpec",
    "ServerSnapshot",
    "SubscriberSnapshot",
    "decode_snapshot",
    "encode_snapshot",
    "read_records",
]


class JournalError(Exception):
    """Base class for journal failures."""


class JournalCorruptionError(JournalError):
    """A complete record (or snapshot) failed its checksum, or its body
    does not decode to exactly its length."""


_RECORD_HEADER = ">II"  # length, crc32
_RECORD_HEADER_SIZE = struct.calcsize(_RECORD_HEADER)
_SEQ_KIND = struct.Struct(">QB")

_SNAPSHOT_MAGIC = b"ELAPSNAP"
_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class JournalSpec:
    """Immutable durability knobs, carried on ``ServerConfig.journal``.

    ``path`` is a *directory*: the journal file, the snapshot, and the
    per-band subdirectories of a sharded fleet all live under it.
    ``snapshot_every`` triggers an automatic snapshot (and journal
    rotation) after that many appended records; 0 means snapshots are
    taken only when :meth:`ElapsServer.snapshot` is called explicitly.
    """

    path: str
    snapshot_every: int = 0
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be non-negative: {self.snapshot_every}"
            )

    def for_shard(self, shard_id: int) -> "JournalSpec":
        """The derived spec for one band of a sharded fleet: same knobs,
        journal rooted in a ``band-<k>/`` subdirectory."""
        return dataclasses.replace(
            self, path=os.path.join(self.path, f"band-{shard_id}")
        )


class JournalRecord(NamedTuple):
    """One journaled operation: ``(method, args)`` is the command a
    fleet coordinator hands ``executor.run`` and what replay calls —
    ``getattr(server, method)(*args)`` — stamped with the journal
    sequence number it was (or, on append, is about to be) written at."""

    seq: int
    method: str
    args: Tuple


# ----------------------------------------------------------------------
# Journal-only layouts, written with protocol.py's value codecs and read
# with its one strict reader
# ----------------------------------------------------------------------
_EVENT = struct.Struct(">Qddqq")  # id, x, y, arrived, expires (-1 = never)


def _encode_event(event: Event) -> bytes:
    """Events are stored with *absolute* arrival/expiry timestamps so a
    replayed corpus is bit-identical (EventPublishMessage's relative TTL
    would drift under replay)."""
    expires = -1 if event.expires_at is None else event.expires_at
    # Attribute order is preserved, not canonicalised: subscription
    # matching iterates the mapping, so replay is only byte-identical if
    # a decoded event probes the index partitions in the original order.
    return _EVENT.pack(
        event.event_id, event.location.x, event.location.y, event.arrived_at, expires
    ) + _encode_pairs(event.attributes.items())


def _read_event(reader: _Reader) -> Event:
    event_id, x, y, arrived, expires = reader.unpack(_EVENT)
    return Event(
        event_id,
        dict(reader.pairs()),
        Point(x, y),
        arrived_at=arrived,
        expires_at=None if expires < 0 else expires,
    )


def _encode_events(events: Sequence[Event]) -> bytes:
    parts = [struct.pack(">I", len(events))]
    parts.extend(_encode_event(event) for event in events)
    return b"".join(parts)


def _read_events(reader: _Reader) -> Tuple[Event, ...]:
    return tuple([_read_event(reader) for _ in range(reader.count())])


# ----------------------------------------------------------------------
# Record bodies: one encoder/reader pair per journaled operation.  An
# encoder takes the operation's positional arguments; a reader takes
# the cursor at the start of the body and returns them.
# ----------------------------------------------------------------------
_SUBSCRIBE = struct.Struct(">Qdqdddd")  # sub id, radius, now, location, velocity
_MOVE = struct.Struct(">Qqdddd")  # sub id, now, location, velocity
_ID_NOW = struct.Struct(">Qq")
_NOW = struct.Struct(">q")


def _encode_subscribe(subscription, location, velocity, now) -> bytes:
    return _SUBSCRIBE.pack(
        subscription.sub_id, subscription.radius, now,
        location.x, location.y, velocity.x, velocity.y,
    ) + encode_expression(subscription.expression)


def _read_subscribe(reader: _Reader) -> Tuple:
    sub_id, radius, now, x, y, vx, vy = reader.unpack(_SUBSCRIBE)
    subscription = Subscription(sub_id, reader.expression(), radius)
    return subscription, Point(x, y), Point(vx, vy), now


def _encode_unsubscribe(sub_id) -> bytes:
    return _ID_NOW.pack(sub_id, 0)  # the format reserves a timestamp


def _read_unsubscribe(reader: _Reader) -> Tuple:
    return reader.unpack(_ID_NOW)[:1]


def _encode_report_location(sub_id, location, velocity, now) -> bytes:
    return _MOVE.pack(sub_id, now, location.x, location.y, velocity.x, velocity.y)


def _read_report_location(reader: _Reader) -> Tuple:
    sub_id, now, x, y, vx, vy = reader.unpack(_MOVE)
    return sub_id, Point(x, y), Point(vx, vy), now


def _encode_resync(sub_id, location, velocity, received, now) -> bytes:
    return _encode_report_location(
        sub_id, location, velocity, now
    ) + _encode_array("Q", received)


def _read_resync(reader: _Reader) -> Tuple:
    sub_id, location, velocity, now = _read_report_location(reader)
    return sub_id, location, velocity, reader.counted("Q"), now


def _encode_publish(event, now) -> bytes:
    return _NOW.pack(now) + _encode_event(event)


def _read_publish(reader: _Reader) -> Tuple:
    (now,) = reader.unpack(_NOW)
    return _read_event(reader), now


def _encode_publish_batch(events, now) -> bytes:
    return _NOW.pack(now) + _encode_events(events)


def _read_publish_batch(reader: _Reader) -> Tuple:
    (now,) = reader.unpack(_NOW)
    return _read_events(reader), now


def _encode_bootstrap(events) -> bytes:
    return _encode_publish_batch(events, 0)  # the format reserves a timestamp


def _read_bootstrap(reader: _Reader) -> Tuple:
    return _read_publish_batch(reader)[:1]


def _read_expire(reader: _Reader) -> Tuple:
    return reader.unpack(_NOW)


def _encode_extract(ranges) -> bytes:
    # band migration (DESIGN.md §15): the half-open column ranges whose
    # events left this shard's corpus, flattened ``lo0, hi0, lo1, hi1…``;
    # extraction is deterministic given the corpus, so replay redoes it
    return _encode_array("Q", tuple(itertools.chain.from_iterable(ranges)))


def _read_extract(reader: _Reader) -> Tuple:
    flat = reader.counted("Q")
    return (tuple(zip(flat[0::2], flat[1::2])),)


#: every journaled operation: the public server method it is →
#: ``(kind byte on disk, encode(*args) -> body, read(reader) -> args)``.
#: Servers write a single publish as a ``publish_batch`` of one;
#: ``publish`` records come from older journals and from trace recording
#: (which logs the call the client made).
OPERATIONS: Dict[str, Tuple[int, Callable, Callable]] = {
    "subscribe": (1, _encode_subscribe, _read_subscribe),
    "unsubscribe": (2, _encode_unsubscribe, _read_unsubscribe),
    "report_location": (3, _encode_report_location, _read_report_location),
    "resync": (4, _encode_resync, _read_resync),
    "publish": (5, _encode_publish, _read_publish),
    "publish_batch": (6, _encode_publish_batch, _read_publish_batch),
    "expire_due_events": (7, _NOW.pack, _read_expire),
    "bootstrap": (8, _encode_bootstrap, _read_bootstrap),
    "extract_events_in_columns": (9, _encode_extract, _read_extract),
}
_BY_KIND = {kind: (method, read) for method, (kind, _, read) in OPERATIONS.items()}
#: the operations that insert arriving events (replay reshapes these,
#: recovery tolerates one that failed validation after it was logged)
PUBLISHES = ("publish", "publish_batch")


def _strictly(read: Callable[[_Reader], object], payload: bytes):
    """``read`` over the whole of a CRC-clean ``payload``.  Framing alone
    decides a torn tail, so a body that does not decode to exactly its
    length — short, trailing bytes, a bad tag, bad UTF-8 — is corruption."""
    try:
        return _Reader(payload).exactly(read)
    except (ValueError, TypeError) as exc:
        raise JournalCorruptionError(f"journal body does not decode: {exc}") from exc


def _encode_record(seq: int, method: str, args: Tuple) -> bytes:
    """The record payload: ``[seq][kind][body]``."""
    try:
        kind, encode, _ = OPERATIONS[method]
    except KeyError:
        raise JournalError(f"not a journaled operation: {method!r}") from None
    return _SEQ_KIND.pack(seq, kind) + encode(*args)


def _read_record(reader: _Reader) -> JournalRecord:
    seq, kind = reader.unpack(_SEQ_KIND)
    try:
        method, read = _BY_KIND[kind]
    except KeyError:
        raise JournalCorruptionError(f"unknown journal record kind: {kind}") from None
    return JournalRecord(seq, method, read(reader))


def _decode_record(payload: bytes) -> JournalRecord:
    return _strictly(_read_record, payload)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass
class SubscriberSnapshot:
    """Per-subscriber durable state.  Cached safe/impact regions are
    stored as ``(complement, codes)`` pairs, ``codes`` the ascending
    Morton codes a region holds; derived artefacts (lazy
    matching fields, repair drift bookkeeping) are deliberately *not*
    snapshotted — see DESIGN.md §13's recovery invariants."""

    subscription: Subscription
    location: Point
    velocity: Point
    delivered: FrozenSet[int]
    next_seq: int = 0
    safe: Optional[Tuple[bool, np.ndarray]] = None
    impact: Optional[Tuple[bool, np.ndarray]] = None


@dataclass
class ServerSnapshot:
    """The full durable image of one :class:`ElapsServer`."""

    last_seq: int
    started_at: Optional[int]
    arrival_times: List[int] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    subscribers: List[SubscriberSnapshot] = field(default_factory=list)
    counters: Dict[str, object] = field(default_factory=dict)


_PRESENT = struct.Struct(">B")
_REGION = struct.Struct(">BI")  # complement, cell count


def _encode_region(region: Optional[Tuple[bool, np.ndarray]]) -> bytes:
    # the cells travel as (i, j) pairs in (i, j) order, as they always have
    if region is None:
        return b"\x00"
    complement, codes = region
    i, j = deinterleave_array(codes)
    order = np.lexsort((j, i))
    pairs = np.column_stack((i[order], j[order])).astype(">u4")
    return _PRESENT.pack(1) + _REGION.pack(int(complement), codes.size) + pairs.tobytes()


def _read_region(reader: _Reader) -> Optional[Tuple[bool, np.ndarray]]:
    (present,) = reader.unpack(_PRESENT)
    if not present:
        return None
    complement, count = reader.unpack(_REGION)
    flat = np.array(reader.array("I", 2 * count), dtype=np.int64)
    if flat.size and flat.max() >= 1 << 31:
        raise ValueError("a region cell lies past any grid's Morton space")
    codes = interleave_array(flat[0::2], flat[1::2]).astype(np.int64)
    codes.sort()
    return bool(complement), codes


_SNAPSHOT_HEAD = struct.Struct(">Qq")  # last seq, started at (-1 = never)
_SUBSCRIBER = struct.Struct(">QdQ")  # sub id, radius, next seq


def encode_snapshot(snapshot: ServerSnapshot) -> bytes:
    """Serialise a snapshot body (checksummed framing added by the
    :class:`Journal` when it is written to disk)."""
    started = -1 if snapshot.started_at is None else snapshot.started_at
    parts = [
        _SNAPSHOT_HEAD.pack(snapshot.last_seq, started),
        _encode_array("q", snapshot.arrival_times),
        _encode_events(snapshot.events),
        struct.pack(">I", len(snapshot.subscribers)),
    ]
    for sub in snapshot.subscribers:
        parts.append(
            _SUBSCRIBER.pack(
                sub.subscription.sub_id, sub.subscription.radius, sub.next_seq
            )
        )
        parts.append(_encode_point(sub.location))
        parts.append(_encode_point(sub.velocity))
        parts.append(encode_expression(sub.subscription.expression))
        parts.append(_encode_array("Q", sorted(sub.delivered)))
        parts.append(_encode_region(sub.safe))
        parts.append(_encode_region(sub.impact))
    parts.append(_encode_pairs(sorted(snapshot.counters.items())))
    return b"".join(parts)


def _read_subscriber(reader: _Reader) -> SubscriberSnapshot:
    sub_id, radius, next_seq = reader.unpack(_SUBSCRIBER)
    location = reader.point()
    velocity = reader.point()
    expression = reader.expression()
    return SubscriberSnapshot(
        subscription=Subscription(sub_id, expression, radius),
        location=location,
        velocity=velocity,
        delivered=frozenset(reader.counted("Q")),
        next_seq=next_seq,
        safe=_read_region(reader),
        impact=_read_region(reader),
    )


def _read_snapshot(reader: _Reader) -> ServerSnapshot:
    last_seq, started = reader.unpack(_SNAPSHOT_HEAD)
    return ServerSnapshot(
        last_seq=last_seq,
        started_at=None if started < 0 else started,
        arrival_times=list(reader.counted("q")),
        events=list(_read_events(reader)),
        subscribers=[_read_subscriber(reader) for _ in range(reader.count())],
        counters=dict(reader.pairs()),
    )


def decode_snapshot(payload: bytes) -> ServerSnapshot:
    """Inverse of :func:`encode_snapshot`; a body that does not decode
    to exactly its length raises :class:`JournalCorruptionError`."""
    return _strictly(_read_snapshot, payload)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
def _scan_log(path: str) -> Tuple[List[Tuple[int, bytes]], int, bool]:
    """Scan ``journal.log``: return ``(records, good_length, torn)``
    where ``records`` is ``[(seq, payload), ...]`` for every complete,
    checksum-clean record and ``good_length`` is the byte offset after
    the last one.  A premature EOF sets ``torn``; a checksum mismatch on
    a *complete* record raises :class:`JournalCorruptionError`."""
    records: List[Tuple[int, bytes]] = []
    good = 0
    torn = False
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return records, good, torn
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _RECORD_HEADER_SIZE > total:
            torn = True
            break
        length, crc = struct.unpack_from(_RECORD_HEADER, data, offset)
        start = offset + _RECORD_HEADER_SIZE
        end = start + length
        if end > total:
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            raise JournalCorruptionError(
                f"journal record at offset {offset} failed its checksum"
            )
        if length < _SEQ_KIND.size:
            raise JournalCorruptionError(
                f"journal record at offset {offset} is impossibly short"
            )
        (seq,) = struct.unpack_from(">Q", payload, 0)
        records.append((seq, payload))
        good = end
        offset = end
    return records, good, torn


def read_records(path: str, after_seq: int = 0) -> Iterator[JournalRecord]:
    """Decode every complete record in ``<path>/journal.log`` with a
    sequence number beyond ``after_seq``, without mutating the file
    (a torn tail is skipped, not healed)."""
    raw, _, _ = _scan_log(os.path.join(path, "journal.log"))
    for seq, payload in raw:
        if seq > after_seq:
            yield _decode_record(payload)


class Journal:
    """An append-only, checksummed operation log plus snapshot store.

    The journal lives in a directory::

        <path>/journal.log    the record log (rotated on snapshot)
        <path>/snapshot.bin   the latest snapshot (atomic rename)
        <path>/meta.json      optional free-form metadata sidecar

    Opening a journal scans the existing log: the last assigned sequence
    number is recovered (so appends continue the numbering), and a torn
    tail left by a mid-append crash is truncated away.
    """

    def __init__(self, spec: "JournalSpec | str") -> None:
        if isinstance(spec, str):
            spec = JournalSpec(spec)
        self.spec = spec
        self.path = spec.path
        os.makedirs(self.path, exist_ok=True)
        self._log_path = os.path.join(self.path, "journal.log")
        self._snapshot_path = os.path.join(self.path, "snapshot.bin")
        self.suspended = False
        #: True when opening found (and truncated) a torn tail
        self.torn_tail_truncated = False
        raw, good, torn = _scan_log(self._log_path)
        if torn:
            self.torn_tail_truncated = True
            with open(self._log_path, "r+b") as handle:
                handle.truncate(good)
        self.seq = raw[-1][0] if raw else self._snapshot_seq()
        self.record_count = len(raw)
        self.records_since_snapshot = len(raw)
        self._log = open(self._log_path, "ab")

    # -- appending ------------------------------------------------------
    def append(self, record: JournalRecord) -> int:
        """Append ``record``'s command under the next sequence number
        (the ``seq`` it carries is ignored, so what :meth:`records`
        yields can be appended as is); return the bytes written."""
        if self.suspended:
            return 0
        payload = _encode_record(self.seq + 1, record.method, record.args)
        self.seq += 1
        frame = struct.pack(_RECORD_HEADER, len(payload), zlib.crc32(payload))
        self._log.write(frame + payload)
        self._log.flush()
        if self.spec.fsync:
            os.fsync(self._log.fileno())
        self.record_count += 1
        self.records_since_snapshot += 1
        return len(frame) + len(payload)

    def snapshot_due(self) -> bool:
        """True when ``snapshot_every`` records have accumulated."""
        return (
            self.spec.snapshot_every > 0
            and self.records_since_snapshot >= self.spec.snapshot_every
        )

    # -- reading --------------------------------------------------------
    def records(self, after_seq: int = 0) -> Iterator[JournalRecord]:
        """Decode every record beyond ``after_seq`` from disk."""
        self._log.flush()
        return read_records(self.path, after_seq)

    # -- snapshots ------------------------------------------------------
    def write_snapshot(self, body: bytes, seq: int) -> int:
        """Atomically persist a snapshot taken at journal ``seq`` and
        rotate the log (records ≤ seq are subsumed by the snapshot).
        Returns the number of bytes written."""
        blob = (
            _SNAPSHOT_MAGIC
            + struct.pack(">IQI", _SNAPSHOT_VERSION, seq, zlib.crc32(body))
            + body
        )
        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._snapshot_path)
        # Rotate: every journaled record is ≤ seq (snapshots are taken
        # at the end of a public operation), so the log restarts empty.
        self._log.close()
        self._log = open(self._log_path, "wb")
        if self.spec.fsync:
            os.fsync(self._log.fileno())
        self.record_count = 0
        self.records_since_snapshot = 0
        return len(blob)

    def read_snapshot(self) -> Optional[Tuple[int, bytes]]:
        """The latest snapshot as ``(seq, body)``; None when absent."""
        try:
            with open(self._snapshot_path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        header_size = len(_SNAPSHOT_MAGIC) + struct.calcsize(">IQI")
        if len(blob) < header_size or blob[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC:
            raise JournalCorruptionError("snapshot header is malformed")
        version, seq, crc = struct.unpack_from(">IQI", blob, len(_SNAPSHOT_MAGIC))
        if version != _SNAPSHOT_VERSION:
            raise JournalCorruptionError(f"unknown snapshot version {version}")
        body = blob[header_size:]
        if zlib.crc32(body) != crc:
            raise JournalCorruptionError("snapshot body failed its checksum")
        return seq, body

    def _snapshot_seq(self) -> int:
        snapshot = self.read_snapshot()
        return snapshot[0] if snapshot is not None else 0

    # -- metadata sidecar ----------------------------------------------
    def write_meta(self, meta: Dict[str, object]) -> None:
        """Persist free-form trace metadata (space bounds, grid size…)."""
        with open(os.path.join(self.path, "meta.json"), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)

    def read_meta(self) -> Dict[str, object]:
        """The metadata sidecar's contents ({} when absent)."""
        try:
            with open(os.path.join(self.path, "meta.json")) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Flush and release the log file handle."""
        if not self._log.closed:
            self._log.flush()
            self._log.close()

    def __enter__(self) -> "Journal":
        """Context-manager support: closing flushes the log."""
        return self

    def __exit__(self, *exc) -> None:
        """Close on context exit."""
        self.close()
