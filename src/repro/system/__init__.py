"""System layer: the Elaps server (Figure 6), the client/server
simulation, the experiment runner, and the metrics they report."""

from .client import MobileClient
from .config import (
    CallbackTransport,
    ClientConfig,
    NetworkConfig,
    RebalancePolicy,
    ServerConfig,
    Transport,
)
from .executors import ProcessExecutor, SerialExecutor, ShardExecutor, WorkerCrashed
from .experiment import (
    ExperimentConfig,
    STRATEGIES,
    build_server,
    build_simulation,
    build_strategy,
    run_experiment,
)
from .faults import ChaosProxy, FaultConfig, FaultInjector, FaultKind, FaultStats
from .journal import (
    Journal,
    JournalCorruptionError,
    JournalError,
    JournalRecord,
    JournalSpec,
)
from .metrics import CommunicationStats
from .network import (
    ElapsNetworkClient,
    ElapsTCPServer,
    FrameError,
    FrameKind,
    ReconnectPolicy,
    ResilientElapsClient,
    SendQueue,
    SendVerdict,
    TruncatedFrameError,
)
from .observability import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    SpanTracer,
    render_prometheus,
)
from .server import ElapsServer, Notification, SubscriberRecord
from .sharding import ShardSpec, ShardedElapsServer, partition_columns
from .simulation import Simulation, SimulationResult, SimulationTransport

__all__ = [
    "BUCKET_BOUNDS",
    "CallbackTransport",
    "ChaosProxy",
    "ClientConfig",
    "CommunicationStats",
    "LatencyHistogram",
    "MetricsRegistry",
    "SpanTracer",
    "render_prometheus",
    "ElapsNetworkClient",
    "ElapsServer",
    "ElapsTCPServer",
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
    "FaultStats",
    "FrameError",
    "FrameKind",
    "Journal",
    "JournalCorruptionError",
    "JournalError",
    "JournalRecord",
    "JournalSpec",
    "MobileClient",
    "ExperimentConfig",
    "NetworkConfig",
    "Notification",
    "ProcessExecutor",
    "RebalancePolicy",
    "ReconnectPolicy",
    "ResilientElapsClient",
    "STRATEGIES",
    "SendQueue",
    "SendVerdict",
    "SerialExecutor",
    "ServerConfig",
    "ShardExecutor",
    "ShardSpec",
    "ShardedElapsServer",
    "Simulation",
    "SimulationResult",
    "SimulationTransport",
    "SubscriberRecord",
    "Transport",
    "TruncatedFrameError",
    "WorkerCrashed",
    "build_server",
    "build_simulation",
    "build_strategy",
    "partition_columns",
    "run_experiment",
]
