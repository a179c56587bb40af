"""Deterministic fault injection for the Elaps TCP layer.

The network hardening of DESIGN.md §8 needs an adversary to harden
against.  This module provides one: a frame-aware TCP proxy that sits
between clients and :class:`~repro.system.network.ElapsTCPServer` and,
under a seeded RNG, perturbs the stream in the ways real networks do —

=============  ========================================================
fault          wire behaviour
=============  ========================================================
``DELAY``      the frame is held for a random interval before relay
``DROP``       the frame silently never arrives
``DUPLICATE``  the frame arrives twice, back to back
``CORRUPT``    one byte of the frame is flipped (header or payload)
``TRUNCATE``   a prefix of the frame is delivered, then the connection
               is reset (partial delivery followed by RST)
``RESET``      both sides of the proxied connection are aborted
               mid-stream (``ECONNRESET`` on each end)
=============  ========================================================

Determinism: every proxied connection derives its own
:class:`FaultInjector` from ``(config.seed, connection index,
direction)``, so the fault sequence each stream experiences does not
depend on event-loop scheduling and a failing chaos run replays from its
seed alone.

The proxy is protocol-aware only in its framing (it relays whole frames
cut by the server's own :class:`~repro.system.network.FrameParser`); it
never decodes payloads, so
corrupted bytes travel exactly as a hostile network would deliver them.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import itertools
import random
import socket
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from .network import FrameError, FrameReader


class FaultKind(enum.Enum):
    """What happens to one frame traversing the proxy."""

    PASS = "pass"
    DROP = "drop"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"
    TRUNCATE = "truncate"
    RESET = "reset"


@dataclass(frozen=True)
class FaultConfig:
    """Fault probabilities (per frame) and the seed that fixes them.

    The mutating faults are mutually exclusive per frame and their rates
    must sum to at most 1; ``delay_rate`` is drawn independently, so a
    frame can be both delayed and, say, duplicated.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    reset_rate: float = 0.0
    delay_rate: float = 0.0
    delay_min: float = 0.0
    delay_max: float = 0.005
    #: apply faults to client->server frames
    upstream: bool = True
    #: apply faults to server->client frames
    downstream: bool = True

    def __post_init__(self) -> None:
        rates = {
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "corrupt_rate": self.corrupt_rate,
            "truncate_rate": self.truncate_rate,
            "reset_rate": self.reset_rate,
            "delay_rate": self.delay_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")
        exclusive = sum(rates.values()) - self.delay_rate
        if exclusive > 1.0:
            raise ValueError(
                f"mutually exclusive fault rates sum to {exclusive}, beyond 1.0"
            )
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError(
                f"invalid delay window [{self.delay_min}, {self.delay_max}]"
            )


@dataclass(frozen=True)
class FaultAction:
    """One injector decision, fully materialised (no RNG left to draw)."""

    kind: FaultKind
    delay: float = 0.0
    #: CORRUPT: byte offset to flip; TRUNCATE: bytes of prefix delivered
    index: int = 0
    #: CORRUPT: the xor mask applied to the chosen byte (never 0)
    mask: int = 0


@dataclass
class FaultStats:
    """What the proxy actually did, by fault kind."""

    frames: int = 0
    passed: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    truncated: int = 0
    resets: int = 0
    delayed: int = 0

    @property
    def injected(self) -> int:
        """Frames that suffered any fault at all."""
        return self.frames - self.passed


class FaultInjector:
    """A seeded decision source for one direction of one connection."""

    def __init__(self, config: FaultConfig, stream_id: int = 0) -> None:
        self.config = config
        # a large odd multiplier spreads stream ids across seed space
        # without colliding neighbouring connections
        self.rng = random.Random(config.seed * 0x9E3779B1 + stream_id)

    def decide(self, frame_length: int) -> FaultAction:
        """The (deterministic) fate of the next frame of this stream."""
        config = self.config
        delay = 0.0
        if config.delay_rate and self.rng.random() < config.delay_rate:
            delay = self.rng.uniform(config.delay_min, config.delay_max)
        draw = self.rng.random()
        for kind, rate in (
            (FaultKind.DROP, config.drop_rate),
            (FaultKind.DUPLICATE, config.duplicate_rate),
            (FaultKind.CORRUPT, config.corrupt_rate),
            (FaultKind.TRUNCATE, config.truncate_rate),
            (FaultKind.RESET, config.reset_rate),
        ):
            if draw < rate:
                if kind is FaultKind.CORRUPT:
                    return FaultAction(
                        kind,
                        delay,
                        index=self.rng.randrange(frame_length),
                        mask=self.rng.randrange(1, 256),
                    )
                if kind is FaultKind.TRUNCATE:
                    return FaultAction(
                        kind, delay, index=self.rng.randrange(1, max(frame_length, 2))
                    )
                return FaultAction(kind, delay)
            draw -= rate
        return FaultAction(FaultKind.PASS, delay)


class ChaosProxy:
    """A frame-aware TCP proxy injecting faults between client and server.

    Point clients at ``proxy.port`` instead of the real server's; every
    connection is tunnelled with two pump tasks (one per direction), each
    consulting its own deterministic :class:`FaultInjector`.  Setting
    :attr:`enabled` to False mid-run turns the proxy into a faithful
    relay — the settle phase of a chaos test, during which reconnecting
    clients heal.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        config: Optional[FaultConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.config = config or FaultConfig()
        self.host = host
        self.port = port
        self.enabled = True
        #: seconds slept before each server->client frame is read — a
        #: throttled *reader*: the proxy stops pulling from the server
        #: socket, the kernel window closes, and the server experiences
        #: a slow consumer (its send queue backs up).  Mutable mid-run,
        #: like :attr:`enabled`; 0 disables the throttle.
        self.throttle_downstream = 0.0
        #: ``SO_RCVBUF`` clamp for the proxy's server-facing socket.
        #: Without it the kernel auto-tunes the receive buffer up and
        #: silently absorbs megabytes on behalf of a throttled reader —
        #: set a small value so backpressure actually reaches the
        #: server's send queue.  Applies to connections opened after
        #: the change; ``None`` leaves the kernel default.
        self.upstream_rcvbuf: Optional[int] = None
        self.stats = FaultStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stream_ids = itertools.count(0)
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind the proxy and start relaying."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and abort every tunnelled connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.transport.abort()
        self._writers.clear()
        # let handlers run down on their own (cancelling a
        # client_connected task trips the asyncio-streams done callback)
        pending = [task for task in self._handlers if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5)

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            if self.upstream_rcvbuf is not None:
                # clamp before connecting so the advertised window never
                # grows past the configured buffer
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, self.upstream_rcvbuf
                )
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, (self.target_host, self.target_port)
                )
                server_reader, server_writer = await asyncio.open_connection(
                    sock=sock
                )
            else:
                server_reader, server_writer = await asyncio.open_connection(
                    self.target_host, self.target_port
                )
        except OSError:
            client_writer.close()
            return
        stream_id = next(self._stream_ids)
        self._writers.add(client_writer)
        self._writers.add(server_writer)
        pair = (client_writer, server_writer)
        pumps = [
            asyncio.ensure_future(
                self._pump(client_reader, server_writer, stream_id, pair)
            ),
            asyncio.ensure_future(
                self._pump(
                    server_reader, client_writer, stream_id, pair, downstream=True
                )
            ),
        ]
        try:
            # a closed or reset direction takes the whole tunnel with it,
            # like a real TCP connection would
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            for pump in pumps:
                with contextlib.suppress(asyncio.CancelledError):
                    await pump
            for writer in pair:
                self._writers.discard(writer)
                with contextlib.suppress(Exception):
                    writer.close()
            self._handlers.discard(task)

    def _abort_pair(self, pair: Tuple[asyncio.StreamWriter, ...]) -> None:
        for writer in pair:
            with contextlib.suppress(Exception):
                writer.transport.abort()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stream_id: int,
        pair: Tuple[asyncio.StreamWriter, ...],
        downstream: bool = False,
    ) -> None:
        injector = (
            FaultInjector(self.config, 2 * stream_id + downstream)
            if (self.config.downstream if downstream else self.config.upstream)
            else None
        )
        frames = FrameReader(reader)
        try:
            while True:
                if downstream and self.throttle_downstream > 0:
                    await asyncio.sleep(self.throttle_downstream)
                frame = await frames.read(None)
                if frame is None:
                    return
                if injector is None or not self.enabled:
                    writer.write(frame)
                    await writer.drain()
                    continue
                action = injector.decide(len(frame))
                self.stats.frames += 1
                if action.delay:
                    self.stats.delayed += 1
                    await asyncio.sleep(action.delay)
                if action.kind is FaultKind.DROP:
                    self.stats.dropped += 1
                    continue
                if action.kind is FaultKind.DUPLICATE:
                    self.stats.duplicated += 1
                    writer.write(frame + frame)
                elif action.kind is FaultKind.CORRUPT:
                    self.stats.corrupted += 1
                    mutated = bytearray(frame)
                    mutated[action.index] ^= action.mask
                    writer.write(bytes(mutated))
                elif action.kind is FaultKind.TRUNCATE:
                    self.stats.truncated += 1
                    writer.write(frame[: action.index])
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.drain()
                    self._abort_pair(pair)
                    return
                elif action.kind is FaultKind.RESET:
                    self.stats.resets += 1
                    self._abort_pair(pair)
                    return
                else:
                    self.stats.passed += 1
                    writer.write(frame)
                await writer.drain()
        except (FrameError, ConnectionError, OSError):
            return
