"""Elaps — a location-aware pub/sub system for continuous moving queries
over dynamic event streams.

Reproduction of Guo, Zhang, Li, Tan, Bao (SIGMOD 2015).  The public API
re-exports the pieces a downstream user needs:

* expressions: :class:`Predicate`, :class:`BooleanExpression`,
  :class:`Event`, :class:`Subscription`;
* geometry: :class:`Point`, :class:`Rect`, :class:`Circle`, :class:`Grid`;
* indexes: :class:`BEQTree` (the paper's index) plus the baselines;
* safe-region strategies: :class:`IGM`, :class:`IDGM`,
  :class:`VoronoiMethod`, :class:`GridMethod`;
* the system: :class:`ElapsServer`, :class:`ServerConfig`,
  :class:`ShardedElapsServer`, :class:`Simulation`,
  :class:`ExperimentConfig`, :func:`run_experiment`.

Quickstart::

    from repro import (BEQTree, BooleanExpression, ElapsServer, Grid, IGM,
                       Operator, Point, Predicate, Rect, ServerConfig,
                       Subscription)

    space = Rect(0, 0, 50_000, 50_000)
    server = ElapsServer(Grid(120, space), IGM(max_cells=2000),
                         ServerConfig(),
                         event_index=BEQTree(space, emax=256))
    interest = BooleanExpression([
        Predicate("name", Operator.EQ, "shoes"),
        Predicate("price", Operator.LT, 1000),
    ])
    sub = Subscription(1, interest, radius=2_000)
    matches, safe_region = server.subscribe(sub, Point(25_000, 25_000),
                                            Point(60, 0), now=0)
"""

from .bitmap import WAHBitmap
from .core import (
    ConstructionRequest,
    CostModel,
    GridMethod,
    IDGM,
    IGM,
    ImpactRegion,
    IncrementalGridMethod,
    LazyBEQField,
    RegionPair,
    SafeRegion,
    SafeRegionStrategy,
    StaticMatchingField,
    SystemStats,
    VoronoiMethod,
    impact_from_safe,
)
from .datasets import (
    FoursquareLikeConfig,
    FoursquareLikeGenerator,
    TwitterLikeConfig,
    TwitterLikeGenerator,
    Vocabulary,
)
from .expressions import (
    BooleanExpression,
    DnfExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
)
from .geometry import Cell, Circle, Grid, Point, Rect
from .index import (
    BEQTree,
    BETreeIndex,
    EventIndex,
    ImpactRegionIndex,
    KIndex,
    KSubscriptionIndex,
    OpIndex,
    QuadTree,
    SubscriptionIndex,
)
from .system import (
    CallbackTransport,
    ClientConfig,
    CommunicationStats,
    ElapsNetworkClient,
    ElapsServer,
    ElapsTCPServer,
    ExperimentConfig,
    NetworkConfig,
    Notification,
    ReconnectPolicy,
    ResilientElapsClient,
    SerialExecutor,
    ServerConfig,
    ShardedElapsServer,
    Simulation,
    SimulationResult,
    Transport,
    build_simulation,
    run_experiment,
)
from .trajectories import (
    RoadNetwork,
    SyntheticTrajectoryGenerator,
    TaxiTrajectoryGenerator,
    Trajectory,
)

__version__ = "1.0.0"

__all__ = [
    "BEQTree",
    "BETreeIndex",
    "BooleanExpression",
    "CallbackTransport",
    "Cell",
    "Circle",
    "ClientConfig",
    "CommunicationStats",
    "ConstructionRequest",
    "CostModel",
    "DnfExpression",
    "ElapsNetworkClient",
    "ElapsServer",
    "ElapsTCPServer",
    "Event",
    "EventIndex",
    "ExperimentConfig",
    "FoursquareLikeConfig",
    "FoursquareLikeGenerator",
    "Grid",
    "GridMethod",
    "IDGM",
    "IGM",
    "ImpactRegion",
    "ImpactRegionIndex",
    "IncrementalGridMethod",
    "KIndex",
    "KSubscriptionIndex",
    "LazyBEQField",
    "NetworkConfig",
    "Notification",
    "OpIndex",
    "Operator",
    "Point",
    "Predicate",
    "QuadTree",
    "ReconnectPolicy",
    "Rect",
    "RegionPair",
    "ResilientElapsClient",
    "RoadNetwork",
    "SafeRegion",
    "SafeRegionStrategy",
    "SerialExecutor",
    "ServerConfig",
    "ShardedElapsServer",
    "Simulation",
    "SimulationResult",
    "StaticMatchingField",
    "SubscriptionIndex",
    "Subscription",
    "SyntheticTrajectoryGenerator",
    "SystemStats",
    "TaxiTrajectoryGenerator",
    "Trajectory",
    "Transport",
    "TwitterLikeConfig",
    "TwitterLikeGenerator",
    "Vocabulary",
    "VoronoiMethod",
    "WAHBitmap",
    "build_simulation",
    "impact_from_safe",
    "run_experiment",
]
