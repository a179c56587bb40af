"""The server side of ``fanout_tcp``: one ``ElapsTCPServer`` in its own process.

Started by :mod:`bench.fanout` as ``python -m bench.tcp_child``.  Builds the
serving configuration over the seed's corpus, listens on an ephemeral
port, prints ``PORT <n>``, serves until ``stop`` arrives on stdin, then
prints one JSON line — its CPU seconds and, in a traced run, the span
totals of the proxies installed around the indexes and the strategy.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.system import ElapsTCPServer, NetworkConfig

from . import inputs, serving
from .calibrate import HostSpeed
from .trace import Recorder

#: seconds per timestamp: a commuter at 60 m/timestamp moves 240 m/s, so a
#: few seconds of wall-clock cross many safe-region boundaries
TIMESTAMP_SECONDS = 0.25


async def serve(args) -> None:
    recorder = Recorder() if args.trace else None
    generator = inputs.world()
    server = serving.single_server(
        generator, args.grid_n, args.max_cells, 1.0, tracer=recorder
    )
    server.bootstrap(inputs.staggered_corpus(generator, args.seed, args.corpus, None))
    # the gateway multiplexes every subscriber on one connection, so its
    # send queue must hold a full window of notifications
    config = NetworkConfig(
        retain_subscribers=True, send_queue=args.send_queue, ingress_queue=4096
    )
    tcp = ElapsTCPServer(
        recorder.wrap_server(server) if recorder else server,
        port=0, timestamp_seconds=TIMESTAMP_SECONDS, config=config,
    )
    await tcp.start()
    print(f"PORT {tcp.port}", flush=True)
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    #: (span-log mark, process seconds) at each ``mark`` command: the
    #: parent brackets its measured window with two of them
    marks = []

    def command(line: str) -> None:
        if line.strip() == "mark":
            marks.append((recorder.mark() if recorder else None, time.process_time()))
        else:  # "stop", or EOF because the parent went away
            stopped.set()

    def read_commands() -> None:
        # blocking reads on a worker thread: the loop stays free to serve
        for line in sys.stdin:
            loop.call_soon_threadsafe(command, line)
            if line.strip() == "stop":
                return
        loop.call_soon_threadsafe(command, "stop")

    async def calibrate() -> None:
        # the parent scales its timings by how fast a reference kernel ran
        # meanwhile; most of the work is here, so this side samples too
        while True:
            speed.sample()
            await asyncio.sleep(0.05)

    speed = HostSpeed()
    reader = loop.run_in_executor(None, read_commands)
    sampler = asyncio.ensure_future(calibrate())
    try:
        await stopped.wait()
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        await tcp.stop()
    await reader
    summary = {"cpu_s": time.process_time(), "speed_samples": speed.samples}
    if len(marks) >= 2:
        (opened, cpu_opened), (closed, cpu_closed) = marks[0], marks[-1]
        summary["window_cpu_s"] = cpu_closed - cpu_opened
        if recorder is not None:
            summary["totals"] = {
                name: [total.calls, total.busy, total.self_time]
                for name, total in recorder.totals(opened.position, closed.position).items()
            }
            summary["construct_s"] = recorder.durations(
                "core:construct", opened.position, closed.position
            )
            for counter in (
                "be_matching_pairs", "events_matched", "cells_kept", "cells_examined"
            ):
                summary[counter] = getattr(closed, counter) - getattr(opened, counter)
    print(json.dumps(summary), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=int, required=True)
    parser.add_argument("--grid-n", type=int, required=True)
    parser.add_argument("--max-cells", type=int, required=True)
    parser.add_argument("--send-queue", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
