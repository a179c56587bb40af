"""Core contribution: safe/impact regions, the cost model, and the four
construction strategies (VM, GM, iGM, idGM)."""

from .construction import ConstructionRequest, RegionPair, SafeRegionStrategy
from .cost_model import CostModel, RepairBudget, SystemStats
from .field import LazyBEQField, MatchingEventField, StaticMatchingField
from .gm import GridMethod
from .igm import IDGM, IGM, IncrementalGridMethod
from .regions import GridRegion, ImpactRegion, RegionDelta, SafeRegion, impact_from_safe
from .vm import VoronoiMethod

__all__ = [
    "ConstructionRequest",
    "CostModel",
    "GridMethod",
    "GridRegion",
    "IDGM",
    "IGM",
    "ImpactRegion",
    "IncrementalGridMethod",
    "LazyBEQField",
    "MatchingEventField",
    "RegionDelta",
    "RegionPair",
    "RepairBudget",
    "SafeRegion",
    "SafeRegionStrategy",
    "StaticMatchingField",
    "SystemStats",
    "VoronoiMethod",
    "impact_from_safe",
]
