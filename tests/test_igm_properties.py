"""Metamorphic properties of iGM/idGM construction (Algorithm 1).

Three families, each stated at the strongest level that actually holds:

* **Soundness** (exact, per instance): the impact region is precisely the
  safe region dilated by the notification radius (Definition 2); the safe
  region never contains an unsafe cell; a non-empty safe region contains
  the subscriber's own cell.

* **Balance-ratio straddle** (exact, per instance): the ``bm`` of the
  last accepted cell is ``<= beta`` and the ``bm`` of the first rejected
  cell is ``> beta`` — the expansion stops exactly where Lemmas 5-7 place
  the optimum (``beta = 1``).

* **Density monotonicity** (two levels): per instance, *emptiness* is
  monotone — if the expansion cannot leave the start cell at density k,
  it cannot at any higher density (the start-cell decision is
  path-independent, ``bm`` scales linearly with ``ne``).  Region *area*
  is only monotone in aggregate and only in the moderate-density regime:
  a fixed panel of workloads must show non-increasing mean area along a
  1x..8x density chain.  End-to-end per-instance area is **provably not
  monotone** — at extreme density the expansion rejects every
  event-touching cell, ``ne`` stays 0, and the region balloons through
  the event-free space (U-shaped area/density curve; faithful to the
  ``min(ts, ti)`` objective, verified empirically while writing this
  suite) — so no test asserts that.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GridMethod, IDGM, IGM, VoronoiMethod
from repro.core.construction import ConstructionRequest
from repro.core.cost_model import CostModel, SystemStats
from repro.core.field import StaticMatchingField
from repro.geometry import Grid, Point, Rect
from repro.testing import ScalarIDGM, ScalarIGM

SPACE = Rect(0, 0, 10_000, 10_000)
GRID = Grid(25, SPACE)

#: every incremental construction loop; the metamorphic properties hold for
#: the array core and its scalar oracle alike
INCREMENTAL = {
    "iGM": IGM,
    "idGM": IDGM,
    "iGM-scalar": ScalarIGM,
    "idGM-scalar": ScalarIDGM,
}


def random_request(seed: int, density: int = 1, event_count: int = None):
    """A seeded construction request with ``density`` copies of each event."""
    rng = random.Random(seed)
    count = event_count if event_count is not None else rng.randint(5, 50)
    points = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(count)
    ]
    location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    velocity = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))
    radius = rng.uniform(400, 2500)
    stats = SystemStats(event_rate=rng.uniform(0.5, 8), total_events=200)
    return ConstructionRequest(
        location=location,
        velocity=velocity,
        matching_field=StaticMatchingField(GRID, points * density, radius),
        stats=stats,
    )


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), strategy_name=st.sampled_from(sorted(INCREMENTAL)))
def test_impact_is_exact_dilation_of_safe(seed, strategy_name):
    """Definition 2 on the nose: impact == dilate(safe, r).

    The incremental strip optimisation (Example 2) must neither miss a
    dilation cell nor add one the full-disk rescan would not.
    """
    strategy = INCREMENTAL[strategy_name](max_cells=400)
    request = random_request(seed)
    pair = strategy.construct(request)
    safe = frozenset(pair.safe.iter_cells())
    dilated = frozenset(GRID.dilate(safe, request.radius))
    assert frozenset(pair.impact.iter_cells()) == dilated
    assert safe <= dilated or pair.safe.is_empty()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), strategy_name=st.sampled_from(sorted(INCREMENTAL)))
def test_safe_region_avoids_unsafe_cells_and_anchors_at_subscriber(seed, strategy_name):
    request = random_request(seed)
    pair = INCREMENTAL[strategy_name](max_cells=400).construct(request)
    unsafe = request.matching_field.unsafe_cells()
    assert not (set(pair.safe.iter_cells()) & unsafe)
    if not pair.safe.is_empty():
        assert pair.safe.covers_cell(GRID.cell_of(request.location))


@pytest.mark.parametrize("strategy_name", sorted(INCREMENTAL))
def test_strip_ablation_agrees_with_full_rescan(strategy_name):
    """incremental_impact=False is the oracle for the Example 2 strips."""
    cls = INCREMENTAL[strategy_name]
    for seed in range(25):
        request = random_request(seed)
        fast = cls(max_cells=300).construct(request)
        slow = cls(max_cells=300, incremental_impact=False).construct(request)
        assert fast.safe == slow.safe
        assert fast.impact == slow.impact


# ----------------------------------------------------------------------
# Balance-ratio straddle
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    beta=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    strategy_name=st.sampled_from(sorted(INCREMENTAL)),
)
def test_bm_straddles_beta_at_the_stopping_cell(seed, beta, strategy_name):
    strategy = INCREMENTAL[strategy_name](beta=beta)
    pair = strategy.construct(random_request(seed))
    if pair.last_accepted_bm is not None:
        assert pair.last_accepted_bm <= beta
    if pair.first_rejected_bm is not None:
        assert pair.first_rejected_bm > beta
    if pair.last_accepted_bm is not None and pair.first_rejected_bm is not None:
        assert pair.last_accepted_bm <= beta < pair.first_rejected_bm


def test_bm_diagnostics_are_informative_not_vacuous():
    """On a large seed panel both sides of the straddle must show up."""
    informative = 0
    for seed in range(60):
        pair = IGM().construct(random_request(seed))
        if pair.last_accepted_bm is not None and pair.first_rejected_bm is not None:
            informative += 1
    # 10/60 on this panel: most uncapped runs either cover the whole
    # space (nothing rejected) or never leave the start cell (nothing
    # accepted); what matters is that the straddle assertions above are
    # exercised on a guaranteed, deterministic subset.
    assert informative >= 8


def test_non_incremental_strategies_leave_bm_unset():
    request = random_request(3)
    for strategy in (VoronoiMethod(), GridMethod()):
        pair = strategy.construct(request)
        assert pair.last_accepted_bm is None
        assert pair.first_rejected_bm is None


# ----------------------------------------------------------------------
# Density monotonicity
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**20), strategy_name=st.sampled_from(["iGM", "iGM-scalar"]))
def test_emptiness_is_monotone_in_density(seed, strategy_name):
    """Once the expansion cannot start, more density never revives it."""
    was_empty = False
    for density in (1, 2, 4, 8, 16, 64):
        pair = INCREMENTAL[strategy_name](max_cells=400).construct(
            random_request(seed, density=density)
        )
        if was_empty:
            assert pair.safe.is_empty(), density
        was_empty = pair.safe.is_empty()


@pytest.mark.parametrize("strategy_name", sorted(INCREMENTAL))
def test_mean_area_shrinks_with_density(strategy_name):
    """The paper's macroscopic claim, on a fixed 40-workload panel.

    Mean safe-region area is non-increasing along a 1x..8x density chain
    (the moderate regime; see the module docstring for why the chain
    stops at 8x and why this is an aggregate, not per-instance, claim).
    """
    chain = (1, 2, 4, 8)
    means = []
    for density in chain:
        total = 0
        for seed in range(40):
            rng = random.Random(seed)
            location = Point(rng.uniform(3000, 7000), rng.uniform(3000, 7000))
            radius = rng.uniform(400, 1200)
            clear = radius + rng.uniform(800, 2500)
            base = []
            while len(base) < 40:
                p = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
                if p.distance_to(location) > clear:
                    base.append(p)
            velocity = Point(rng.uniform(-30, 30), rng.uniform(-30, 30))
            request = ConstructionRequest(
                location=location,
                velocity=velocity,
                matching_field=StaticMatchingField(GRID, base * density, radius),
                stats=SystemStats(event_rate=2.0, total_events=1000),
            )
            strategy = INCREMENTAL[strategy_name](max_cells=400)
            total += strategy.construct(request).safe.area_cells()
        means.append(total / 40)
    assert all(a >= b for a, b in zip(means, means[1:])), means


@settings(max_examples=100, deadline=None)
@given(
    distance=st.floats(0, 20_000),
    speed=st.floats(0.1, 100),
    ne=st.integers(0, 1_000),
    extra=st.integers(1, 1_000),
    rate=st.floats(0.1, 10),
    total=st.integers(1, 10_000),
)
def test_balance_ratio_is_monotone_in_matching_count(
    distance, speed, ne, extra, rate, total
):
    """Equation 6 itself: bm never decreases when ne grows."""
    model = CostModel(SystemStats(event_rate=rate, total_events=total))
    assert model.balance(distance, speed, ne + extra) >= model.balance(
        distance, speed, ne
    )
