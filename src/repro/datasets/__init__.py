"""Workload substrate: seeded synthetic stand-ins for the paper's
Twitter/AOL and Foursquare corpora (see DESIGN.md for the substitution
rationale)."""

from .foursquare_like import FoursquareLikeConfig, FoursquareLikeGenerator
from .locations import LocationSampler
from .twitter_like import TwitterLikeConfig, TwitterLikeGenerator
from .vocabulary import Vocabulary

__all__ = [
    "FoursquareLikeConfig",
    "FoursquareLikeGenerator",
    "LocationSampler",
    "TwitterLikeConfig",
    "TwitterLikeGenerator",
    "Vocabulary",
]
