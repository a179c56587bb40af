"""Test support: chaos harness, oracles, contract checks, trace replay.

``repro.testing`` is the stable doorway to the fault-injection machinery
of :mod:`repro.system.faults` — external test suites (and our own chaos
tests) use it to stand a seeded hostile network between real clients and
an :class:`~repro.system.network.ElapsTCPServer`:

.. code-block:: python

    from repro.testing import FaultConfig, chaos_proxy

    config = FaultConfig(seed=7, drop_rate=0.05, reset_rate=0.02)
    async with chaos_proxy("127.0.0.1", tcp.port, config) as proxy:
        client = ResilientElapsClient("127.0.0.1", proxy.port, ...)
        ...
        proxy.enabled = False   # settle phase: heal and verify
"""

from __future__ import annotations

from contextlib import asynccontextmanager
from typing import Optional

from ..system.faults import (
    ChaosProxy,
    FaultAction,
    FaultConfig,
    FaultInjector,
    FaultKind,
    FaultStats,
)
from .invariants import (
    definition1_violations,
    impact_coverage_violations,
    spurious_standing_rounds,
)
from .oracle import BruteForceOracle, ScalarIDGM, ScalarIGM, oracle_pairs
from .replay import (
    ReplayResult,
    TraceRecorder,
    diff_logs,
    notification_log,
    replay_trace,
)

__all__ = [
    "BruteForceOracle",
    "ChaosProxy",
    "FaultAction",
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
    "FaultStats",
    "ReplayResult",
    "ScalarIDGM",
    "ScalarIGM",
    "TraceRecorder",
    "chaos_proxy",
    "definition1_violations",
    "impact_coverage_violations",
    "diff_logs",
    "notification_log",
    "oracle_pairs",
    "replay_trace",
    "spurious_standing_rounds",
]


@asynccontextmanager
async def chaos_proxy(
    target_host: str,
    target_port: int,
    config: Optional[FaultConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """A started :class:`ChaosProxy`, stopped on exit."""
    proxy = ChaosProxy(target_host, target_port, config, host=host, port=port)
    await proxy.start()
    try:
        yield proxy
    finally:
        await proxy.stop()
