"""Offline trace record/replay: every recorded workload is a test.

Two pieces turn the durability journal (DESIGN.md §13) into a
regression-grade vehicle:

* :class:`TraceRecorder` wraps *any* server object — a single
  :class:`~repro.system.server.ElapsServer` or a sharded coordinator —
  and journals every public operation (bootstrap included) before
  delegating, producing a client-level trace that is independent of the
  serving configuration;
* :func:`replay_trace` re-runs a recorded trace against a freshly built
  server under any :class:`~repro.system.config.ServerConfig` — repair
  on or off, sharded or not, different batch sizes — and returns the
  delivered notifications in a canonical text form that can be diffed
  byte-for-byte against another configuration's replay (or against the
  frozen golden trace).

Replay fidelity: location pings are *not* journaled — replay answers
them with the subscriber's last journaled position.  Traces whose
clients report on every move (the simulation's contract) or stand still
replay exactly; free movement inside a safe region is invisible to the
journal, and a near-boundary delivery decision could differ.  The
recovery path does not depend on this — reconnecting clients reconcile
through resync either way.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from ..system.journal import (
    OPERATIONS,
    PUBLISHES,
    Journal,
    JournalRecord,
    JournalSpec,
    read_records,
)
from ..system.server import Notification

__all__ = [
    "ReplayResult",
    "TraceRecorder",
    "diff_logs",
    "notification_log",
    "replay_trace",
]


def notification_log(notifications: Iterable[Notification]) -> str:
    """The canonical text form of a notification stream — the same
    ``t=.. sub=.. event=..`` lines the frozen golden trace uses."""
    lines = [
        f"t={n.timestamp} sub={n.sub_id} event={n.event.event_id}"
        for n in notifications
    ]
    return "\n".join(lines) + "\n" if lines else ""


def diff_logs(expected: str, actual: str) -> str:
    """A terse first-divergence report between two notification logs
    (empty string when byte-identical)."""
    if expected == actual:
        return ""
    expected_lines = expected.splitlines()
    actual_lines = actual.splitlines()
    for index, (left, right) in enumerate(zip(expected_lines, actual_lines)):
        if left != right:
            return f"line {index + 1}: expected {left!r}, got {right!r}"
    return (
        f"length mismatch: expected {len(expected_lines)} lines, "
        f"got {len(actual_lines)}"
    )


@dataclass
class ReplayResult:
    """The outcome of one :func:`replay_trace` run."""

    notifications: List[Notification] = field(default_factory=list)
    records_applied: int = 0

    def log(self) -> str:
        """The canonical notification log of this replay."""
        return notification_log(self.notifications)

    def digest(self) -> str:
        """SHA-256 of the canonical log (handy for quick CLI diffs)."""
        return hashlib.sha256(self.log().encode()).hexdigest()


class TraceRecorder:
    """Journal every public operation of a wrapped server, then delegate.

    The wrapper is transparent: attribute access falls through to the
    inner server (metrics, registry, subscribers, …), and assigning
    ``transport`` re-targets the inner server, so a
    :class:`~repro.system.simulation.Simulation` can drive the recorder
    exactly like the server itself.  The journal format is the recovery
    journal's — a single-server recovery log is itself a valid trace.
    """

    def __init__(
        self, server, journal: Union[Journal, JournalSpec, str]
    ) -> None:
        if not isinstance(journal, Journal):
            journal = Journal(journal)
        self._server = server
        self._journal = journal

    @property
    def server(self):
        """The wrapped server."""
        return self._server

    @property
    def journal(self) -> Journal:
        """The trace journal operations are appended to."""
        return self._journal

    @property
    def transport(self):
        """The inner server's client-facing transport."""
        return self._server.transport

    @transport.setter
    def transport(self, value) -> None:
        """Install a transport on the inner server."""
        self._server.transport = value

    def __getattr__(self, name: str):
        """A journaled operation (any name in the journal's
        ``OPERATIONS`` table) is logged as the ``(method, args)`` call
        the client made, then delegated; everything else falls through
        to the wrapped server."""
        target = getattr(self._server, name)
        if name not in OPERATIONS:
            return target
        signature = inspect.signature(target)

        def journaled(*args, **kwargs):
            """Log the call with its arguments in positional form."""
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._journal.append(JournalRecord(0, name, bound.args))
            return target(*bound.args)

        return journaled

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Flush the trace journal and close the inner server."""
        self._journal.close()
        close = getattr(self._server, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "TraceRecorder":
        """Context-manager support: closing flushes the trace."""
        return self

    def __exit__(self, *exc) -> None:
        """Close on context exit."""
        self.close()


def _regroup(
    records: Sequence[JournalRecord], batch_size: Optional[int]
) -> List[JournalRecord]:
    """Reshape the publish stream to ``batch_size`` events per batch.

    ``None`` replays the trace exactly as recorded; ``1`` splits batches
    into single publishes; ``N > 1`` coalesces consecutive same-timestamp
    publishes (and re-chunks recorded batches) into bursts of at most N.
    Chunking never changes a notification (the golden differential pins
    this), so regrouping is semantics-preserving.
    """
    if batch_size is None:
        return list(records)
    reshaped: List[JournalRecord] = []
    pending: List = []
    pending_now = 0

    def flush() -> None:
        """Drain the pending burst into records of at most batch_size."""
        while pending:
            chunk, rest = pending[:batch_size], pending[batch_size:]
            pending[:] = rest
            reshaped.append(JournalRecord(0, "publish_batch", (chunk, pending_now)))

    for record in records:
        if record.method in PUBLISHES:
            arrived, now = record.args  # one event, or a burst of them
            if pending and now != pending_now:
                flush()
            pending_now = now
            pending.extend([arrived] if record.method == "publish" else arrived)
            continue
        flush()
        reshaped.append(record)
    flush()
    return reshaped


def replay_trace(
    trace: Union[str, JournalSpec],
    server,
    batch_size: Optional[int] = None,
) -> ReplayResult:
    """Re-run a recorded trace against ``server``; collect what it delivers.

    ``server`` is any freshly built server object (single or sharded) —
    the point is that the *same* trace can be driven through different
    configurations and the resulting :meth:`ReplayResult.log` compared
    byte-for-byte.  The trace file is only read, never modified.
    """
    path = trace.path if isinstance(trace, JournalSpec) else trace
    result = ReplayResult()
    for record in _regroup(list(read_records(path)), batch_size):
        outcome = getattr(server, record.method)(*record.args)
        if isinstance(outcome, tuple):  # (notifications, safe region)
            result.notifications.extend(outcome[0])
        elif record.method in PUBLISHES:  # the notifications themselves
            result.notifications.extend(outcome)
        result.records_applied += 1
    return result
