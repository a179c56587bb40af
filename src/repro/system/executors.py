"""Where a shard fleet's servers live, and the one reply a shard sends.

A fleet reaches its shards exactly one way:
``executor.run({shard_id: (method, args)})``.  A command names a public
:class:`~repro.system.server.ElapsServer` method, and applying it is
``getattr(server, method)(*args)`` — the expression recovery and trace
replay use too.  The executor builds and *owns* the servers (``launch``
takes one builder per band), each over a :class:`_ShardTransport` that
buffers what the server ships; ``locate`` is the only call that reaches
back to the coordinator while a command runs.

Both executors hand back the same value per shard, the reply a worker
process writes to its pipe: ``("done", result, shipped)`` or
``("error", exc, traceback, shipped)``, where ``shipped`` lists the
``("region", sub_id, region)`` and ``("delta", sub_id, removed,
region)`` ships the command made.  Every command runs, failing or not,
and no command runs unless all of them are well formed.  What the
coordinator makes of the replies — folding the shipments, raising an
error — is the coordinator's business; nothing here imports it.

:class:`SerialExecutor` hosts the servers in-process and runs commands
in ascending shard order on the calling thread (deterministic — the
golden-trace differential runs under it).  :class:`ProcessExecutor`
hosts each server in its own OS process (DESIGN.md §15): the commands
travel down pipes as plain pickles, the replies come back up through
:class:`_ReplySeam`, and a ``locate`` travels up the same pipe
synchronously.
"""

from __future__ import annotations

import copyreg
import io
import multiprocessing
import multiprocessing.connection
import pickle
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import SafeRegion
from ..geometry import Grid, Point
from .config import Transport
from .server import ElapsServer

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "WorkerCrashed",
]


class WorkerCrashed(RuntimeError):
    """A shard worker process died mid-fleet (DESIGN.md §15).

    Raised by :meth:`ProcessExecutor.run` when a worker's pipe hits EOF
    or its process is found dead; the fleet is unusable afterwards (a
    shard's corpus slice is gone) and should be closed and recovered
    from its band journals.
    """

    def __init__(self, shard_id: int, exitcode: Optional[int]) -> None:
        super().__init__(
            f"shard worker {shard_id} died (exit code {exitcode})"
        )
        self.shard_id = shard_id
        self.exitcode = exitcode


#: one unit of shard work: the public :class:`ElapsServer` method
#: ``method``, called with ``args``, on one shard's server
Command = Tuple[str, Tuple]
#: one shard's answer to a command: ``("done", result, shipped)`` or
#: ``("error", exc, traceback, shipped)``
Reply = Tuple


def _checked(commands: Mapping[int, Command]) -> Dict[int, Command]:
    """The commands in ascending shard order, every one checked before
    any is applied: a malformed command — a private method name
    included — is the caller's bug, rejected before it reaches a server
    or a pipe."""
    checked = {}
    for shard_id in sorted(commands):
        command = commands[shard_id]
        if not (
            isinstance(command, tuple)
            and len(command) == 2
            and isinstance(command[0], str)
            and not command[0].startswith("_")
            and isinstance(command[1], tuple)
        ):
            raise TypeError(
                "a shard command is a (public method, args) tuple, "
                f"got {command!r}"
            )
        checked[shard_id] = command
    return checked


class _ShardTransport(Transport):
    """The transport every shard server is built with, wherever it runs.

    Region and delta ships are *buffered* and handed back with the
    command's reply; ``locate`` is whatever the executor gives it — the
    coordinator's own hook in-process, a synchronous upcall over the
    pipe in a worker process (which blocks only that worker).
    """

    def __init__(self, locate: Callable[[int], Optional[Tuple[Point, Point]]]) -> None:
        self.locate = locate
        self._shipments: List[Tuple] = []

    def ship_region(self, sub_id: int, region: SafeRegion) -> None:
        """Buffer a full region ship for the next reply."""
        self._shipments.append(("region", sub_id, region))

    def ship_delta(
        self, sub_id: int, removed: np.ndarray, region: SafeRegion
    ) -> None:
        """Buffer a delta ship for the next reply."""
        self._shipments.append(("delta", sub_id, removed, region))

    def apply(self, server: ElapsServer, command: Command) -> Reply:
        """Apply ``command`` to ``server`` (built over this transport);
        the reply carries what it shipped, failure or not."""
        method, args = command
        try:
            result = getattr(server, method)(*args)
        except BaseException as exc:  # noqa: BLE001 — marshal everything
            reply = ("error", exc, traceback.format_exc(), self._shipments)
        else:
            reply = ("done", result, self._shipments)
        self._shipments = []
        return reply


class ShardExecutor:
    """Where the fleet's shard servers live and how they are reached.

    ``launch`` takes one server builder per shard, the coordinator's
    grid — the one every region handed back must be over — and its
    ``locate`` hook; the executor builds and *owns* the servers.
    ``run`` takes ``{shard_id: (method, args)}`` and returns
    ``{shard_id: reply}`` — the only way the coordinator ever touches a
    shard.  Implementations decide *where* the commands run; the
    coordinator never assumes more than "every command ran to completion
    before ``run`` returns".
    """

    def launch(
        self,
        builders: Sequence[Callable[[Transport], ElapsServer]],
        *,
        grid: Grid,
        locate: Callable[[int], Optional[Tuple[Point, Point]]],
    ) -> None:
        """Build one server per builder over a shard transport."""
        raise NotImplementedError

    def run(self, commands: Mapping[int, Command]) -> Dict[int, Reply]:
        """Run every command; return its reply keyed by shard id."""
        raise NotImplementedError

    def gauges(self) -> Dict[str, int]:
        """What reaching the shards has cost so far, for
        :meth:`ShardedElapsServer.merged_registry`; in-process, nothing."""
        return {}

    def close(self) -> None:
        """Close the hosted servers and release executor resources."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """Host the shard servers in-process; run commands inline, in
    ascending shard order.

    Fully deterministic — the sharded-vs-single golden differential is
    pinned under this executor — and the right choice whenever the
    workload is driven from tests or a single-threaded simulation.
    """

    def __init__(self) -> None:
        #: the live servers, in shard order (tests and audits read them)
        self.shard_servers: List[ElapsServer] = []
        self._transports: List[_ShardTransport] = []

    def launch(self, builders, *, grid, locate) -> None:
        """Build every shard's server on the calling thread (``grid`` is
        unused: these regions never leave the process)."""
        if self.shard_servers:
            raise RuntimeError("this SerialExecutor already hosts a fleet")
        self._transports = [_ShardTransport(locate) for _ in builders]
        self.shard_servers = [
            builder(transport)
            for builder, transport in zip(builders, self._transports)
        ]

    def run(self, commands: Mapping[int, Command]) -> Dict[int, Reply]:
        """Run the commands one after another, ascending shard order."""
        return {
            shard_id: self._transports[shard_id].apply(
                self.shard_servers[shard_id], command
            )
            for shard_id, command in _checked(commands).items()
        }

    def close(self) -> None:
        """Release every hosted server's journal (idempotent)."""
        for server in self.shard_servers:
            server.close()


# ----------------------------------------------------------------------
# Process-parallel execution (DESIGN.md §15)
# ----------------------------------------------------------------------
# What crosses a pipe (DESIGN.md §15).  Down, a command is the plain
# pickle of ``(method, args)`` — no argument holds a region.  Up, every
# reply goes through :class:`_ReplySeam`, which knows one thing: the
# fleet's ``Grid`` crosses *by identity*.  A region is then its class,
# ``complement`` and ``cells`` beside a tag that the receiving end
# resolves to its own grid.  Left to plain pickle a region drags its
# ``Grid`` and that grid's per-radius tables along (hundreds of KB once
# a fleet has served a hundred radii), so any *other* ``Grid`` is
# refused instead of riding along.
def _fleet_grid() -> Grid:
    """What a reply holds where the sender's grid was.  Only the
    receiving end of a shard pipe can say which grid that is."""
    raise pickle.UnpicklingError(
        "a shard reply was loaded outside its pipe: no grid to attach"
    )


class _ReplyUnpickler(pickle.Unpickler):
    """Loads a reply with :func:`_fleet_grid` resolving to ``grid``."""

    def __init__(self, file, grid: Grid) -> None:
        super().__init__(file)
        self._own_grid = lambda: grid

    def find_class(self, module, name):
        """Every global as pickle finds it, but for the grid's tag."""
        found = super().find_class(module, name)
        return self._own_grid if found is _fleet_grid else found


class _ReplySeam:
    """One end of a shard pipe's reply direction, over this end's grid.

    A type-keyed ``dispatch_table`` rather than ``persistent_id``: that
    hook is a Python call per pickled *object* (a 20-notification reply
    read 63 → 174 µs to dump under it), the table costs nothing on
    objects that are not a ``Grid``.
    """

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        self._dispatch_table = {**copyreg.dispatch_table, Grid: self._by_identity}

    def _by_identity(self, grid: Grid):
        if grid is not self._grid:
            raise pickle.PicklingError(
                "a Grid other than the fleet's reached a shard pipe "
                f"(n={grid.n}, space={grid.space}); a region crosses as its "
                "cells, over the fleet's grid"
            )
        return _fleet_grid, ()

    def dumps(self, reply) -> bytes:
        """``reply`` as the bytes a worker writes to its pipe."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer)
        pickler.dispatch_table = self._dispatch_table
        pickler.dump(reply)
        return buffer.getvalue()

    def loads(self, data: bytes):
        """The reply in ``data``, its regions over this end's grid."""
        return _ReplyUnpickler(io.BytesIO(data), self._grid).load()


def _shard_worker_main(builder, conn) -> None:
    """The worker-process loop: build the shard's server, then serve
    command messages until EOF or the ``None`` close sentinel."""

    def locate(sub_id: int) -> Optional[Tuple[Point, Point]]:
        """Ask the coordinator over the pipe where a subscriber is."""
        conn.send(("locate", sub_id))
        return conn.recv()

    transport = _ShardTransport(locate)
    server = builder(transport)
    seam = _ReplySeam(server.grid)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                server.close()
                conn.send(("closed",))
                break
            reply = transport.apply(server, message)
            try:
                data = seam.dumps(reply)
            except Exception as exc:
                # Ship a faithful stand-in so the parent still raises: the
                # exception itself would not pickle, or the result would not.
                if reply[0] == "error":
                    reply = ("error", RuntimeError(repr(reply[1])), *reply[2:])
                else:
                    reply = (
                        "error",
                        RuntimeError(f"unpicklable result from {message[0]!r}: {exc!r}"),
                        "",
                        [],
                    )
                data = seam.dumps(reply)
            conn.send_bytes(data)
    finally:
        conn.close()


#: worker builders close over unpicklable factories by design, so the
#: children must inherit them: fork is the only start method that can
_START_METHOD = "fork"


@dataclass
class _WorkerHandle:
    """Parent-side handle on one worker process and its pipe end."""

    shard_id: int
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection


class ProcessExecutor(ShardExecutor):
    """Run each shard in its own OS process — K shards, K cores.

    The fleet constructor calls :meth:`launch` with one builder per
    shard; each worker process builds its :class:`ElapsServer` *inside
    the child* (the ``fork`` start method inherits the grid, strategy
    factory, and config without pickling them) and then serves
    ``(method, args)`` commands over its pipe.  Only the commands and
    the replies cross the pipes — never a ``Grid``: a reply's regions
    arrive over the coordinator's own.

    ``run`` dispatches every command before collecting any reply, so the
    fan-out genuinely overlaps; while collecting, the parent services
    the workers' synchronous ``locate`` upcalls.  A dead worker surfaces
    as :class:`WorkerCrashed`.  ``close`` sends every worker a close
    sentinel (each closes its server — and journal — cleanly), joins the
    processes, and is idempotent.
    """

    def __init__(self) -> None:
        if _START_METHOD not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {_START_METHOD!r} unavailable on this platform"
            )
        self._context = multiprocessing.get_context(_START_METHOD)
        self._workers: Dict[int, _WorkerHandle] = {}
        self._seam: Optional[_ReplySeam] = None
        self._locate: Optional[Callable] = None
        self._closed = False
        #: pipe traffic so far, both directions, and the command replies
        #: it carried (locate upcalls count as bytes, not as replies)
        self._gauges = dict.fromkeys(
            ("pipe_bytes_sent", "pipe_bytes_received", "pipe_replies"), 0
        )

    def launch(self, builders, *, grid, locate) -> None:
        """Fork one worker per builder; answer their locates with ``locate``."""
        if self._workers:
            raise RuntimeError("this ProcessExecutor already hosts a fleet")
        if self._closed:
            raise RuntimeError("cannot launch on a closed ProcessExecutor")
        self._seam = _ReplySeam(grid)
        self._locate = locate
        for shard_id, builder in enumerate(builders):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_shard_worker_main,
                args=(builder, child_conn),
                name=f"elaps-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers[shard_id] = _WorkerHandle(shard_id, process, parent_conn)

    def gauges(self) -> Dict[str, int]:
        """The pipe counters, named as the metrics registry shows them."""
        return dict(self._gauges)

    def _crashed(self, handle: _WorkerHandle) -> WorkerCrashed:
        handle.process.join(timeout=5.0)
        return WorkerCrashed(handle.shard_id, handle.process.exitcode)

    def _send(self, handle: _WorkerHandle, data: bytes) -> None:
        try:
            handle.conn.send_bytes(data)
        except (BrokenPipeError, OSError):
            raise self._crashed(handle) from None
        self._gauges["pipe_bytes_sent"] += len(data)

    def run(self, commands: Mapping[int, Command]) -> Dict[int, Reply]:
        """Dispatch every command, then collect; service locate upcalls."""
        if self._closed:
            raise RuntimeError("ProcessExecutor is closed")
        if not self._workers:
            raise RuntimeError("ProcessExecutor.run before launch()")
        pending: Dict[object, _WorkerHandle] = {}
        #: a command value fanned out to several shards is pickled once
        pickled: Dict[int, bytes] = {}
        for shard_id, command in _checked(commands).items():
            handle = self._workers[shard_id]
            if not handle.process.is_alive():
                raise self._crashed(handle)
            data = pickled.get(id(command))
            if data is None:
                data = pickled[id(command)] = pickle.dumps(command)
            self._send(handle, data)
            pending[handle.conn] = handle
        replies: Dict[int, Reply] = {}
        while pending:
            for conn in multiprocessing.connection.wait(list(pending)):
                handle = pending[conn]
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError):
                    raise self._crashed(handle) from None
                self._gauges["pipe_bytes_received"] += len(data)
                message = self._seam.loads(data)
                if message[0] == "locate":
                    self._send(handle, pickle.dumps(self._locate(message[1])))
                    continue
                replies[handle.shard_id] = message
                self._gauges["pipe_replies"] += 1
                del pending[conn]
        return replies

    def close(self) -> None:
        """Send every worker the close sentinel, then join (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    handle.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for handle in self._workers.values():
            try:
                if handle.conn.poll(5.0):
                    handle.conn.recv()  # the ("closed",) ack
            except (EOFError, BrokenPipeError, OSError):
                pass
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.conn.close()
