"""The Twitter-like workload.

The paper turns each geo-tweet into a spatial event whose attributes are
the tweet's keywords and whose values are the keyword frequencies inside
the tweet, and converts AOL keyword queries into boolean expressions over
the same attribute space (equality or interval predicates over keyword
frequencies).  Neither corpus ships with the paper, so this module
generates the closest seeded synthetic equivalent:

* **events** — ``keywords_per_event`` distinct Zipf-sampled keywords, each
  with a small integer frequency value (term frequencies in a tweet are
  tiny and skewed towards 1); locations follow a hotspot mixture;
* **subscriptions** — ``size`` distinct keywords drawn from the popular
  end of the same vocabulary (AOL queries are dominated by head terms),
  with a mix of greater-equal, interval and equality predicates over the
  frequency values, mirroring the two conversion styles quoted in
  Section 6.1.

What matters for the reproduction is preserved: the attribute-frequency
skew shared between the two sides (it drives boolean selectivity and thus
``ne``), the small per-event attribute count, and the spatial clustering.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from ..geometry import Rect
from .locations import LocationSampler
from .vocabulary import Vocabulary

#: Distribution of within-tweet term frequencies: overwhelmingly 1.
_FREQ_VALUES = (1, 1, 1, 1, 1, 2, 2, 3, 4, 5)


@dataclass(frozen=True)
class TwitterLikeConfig:
    """Tunable knobs of the Twitter-like generator."""

    vocabulary_size: int = 400
    zipf_skew: float = 1.1
    min_keywords: int = 4
    max_keywords: int = 9
    subscription_pool: int = 30  # subscriptions draw from the head words
    hotspots: int = 8
    uniform_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 1 <= self.min_keywords <= self.max_keywords:
            raise ValueError("need 1 <= min_keywords <= max_keywords")
        if self.subscription_pool > self.vocabulary_size:
            raise ValueError("subscription pool exceeds the vocabulary")


class TwitterLikeGenerator:
    """Seeded generator of Twitter-like events and subscriptions."""

    def __init__(
        self,
        space: Rect,
        config: Optional[TwitterLikeConfig] = None,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.config = config or TwitterLikeConfig()
        self.seed = seed
        self.vocabulary = Vocabulary(self.config.vocabulary_size, self.config.zipf_skew)
        self._subscription_vocabulary = self.vocabulary.top(self.config.subscription_pool)
        self._locations = LocationSampler(
            space,
            hotspots=self.config.hotspots,
            uniform_fraction=self.config.uniform_fraction,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def events(
        self,
        count: int,
        start_id: int = 0,
        arrived_at: int = 0,
        ttl: Optional[int] = None,
        seed_offset: int = 0,
    ) -> List[Event]:
        """A batch of ``count`` events with consecutive ids."""
        return list(
            itertools.islice(
                self.event_stream(start_id, arrived_at, ttl, seed_offset), count
            )
        )

    def event_stream(
        self,
        start_id: int = 0,
        arrived_at: int = 0,
        ttl: Optional[int] = None,
        seed_offset: int = 0,
    ) -> Iterator[Event]:
        """An endless stream of events; ``ttl`` sets the validity period."""
        rng = random.Random(f"{self.seed}-events-{seed_offset}")
        for event_id in itertools.count(start_id):
            keyword_count = rng.randint(self.config.min_keywords, self.config.max_keywords)
            keywords = self.vocabulary.sample_distinct(rng, keyword_count)
            attributes: Dict[str, int] = {
                keyword: rng.choice(_FREQ_VALUES) for keyword in keywords
            }
            expires = None if ttl is None else arrived_at + ttl
            yield Event(
                event_id=event_id,
                attributes=attributes,
                location=self._locations.sample(rng),
                arrived_at=arrived_at,
                expires_at=expires,
            )

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscriptions(
        self,
        count: int,
        size: int = 3,
        radius: float = 3000.0,
        start_id: int = 0,
        seed_offset: int = 0,
    ) -> List[Subscription]:
        """``count`` boolean-expression subscriptions of ``size`` predicates."""
        rng = random.Random(f"{self.seed}-subs-{seed_offset}")
        result: List[Subscription] = []
        for sub_id in range(start_id, start_id + count):
            keywords = self._subscription_vocabulary.sample_distinct(rng, size)
            predicates = [self._predicate(rng, keyword) for keyword in keywords]
            result.append(
                Subscription(sub_id, BooleanExpression(predicates), radius=radius)
            )
        return result

    @staticmethod
    def _predicate(rng: random.Random, keyword: str) -> Predicate:
        """The AOL-conversion mix: mostly presence-style, some intervals."""
        roll = rng.random()
        if roll < 0.60:
            # "keyword appears at all" — the equality-conversion analogue
            # of (SIGMOD = 1) generalised to any frequency.
            return Predicate(keyword, Operator.GE, 1)
        if roll < 0.85:
            low = rng.randint(1, 2)
            high = low + rng.randint(1, 4)
            return Predicate(keyword, Operator.BETWEEN, (low, high))
        return Predicate(keyword, Operator.EQ, rng.choice((1, 1, 1, 2)))

    def frequency_hint(self) -> Dict[str, int]:
        """Attribute frequencies for pivot-ordered indexes."""
        return self.vocabulary.frequency_hint()
