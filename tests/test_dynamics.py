"""Dynamic environments: time-varying rate/speed schedules, the Figure-10
oracle, and wire-byte accounting in live simulations."""

from __future__ import annotations

import pytest

from repro.system import ExperimentConfig, build_simulation, run_experiment

SMALL = ExperimentConfig(
    initial_events=2000,
    subscribers=5,
    timestamps=60,
    event_rate=4.0,
    grid_n=80,
    event_ttl=30,
)


def staircase(t: int) -> float:
    return (0.0, 4.0, 8.0, 4.0)[(t // 15) % 4]


class TestRateSchedule:
    def test_scheduled_arrivals_follow_the_schedule(self):
        simulation = build_simulation(SMALL.with_(rate_schedule=staircase))
        simulation.run(SMALL.timestamps)
        published = len(simulation.server.event_index) + sum(
            1 for _ in ()  # expired ones are gone; count via ids instead
        )
        # total arrivals = sum of the schedule over the run
        expected = int(sum(staircase(t) for t in range(1, SMALL.timestamps + 1)))
        total_seen = max(simulation.server._events_by_id.keys()) - SMALL.initial_events + 1
        assert abs(total_seen - expected) <= 1

    def test_schedule_overrides_constant_rate(self):
        # the constant rate says 4/tm, the schedule says 0: no arrivals
        simulation = build_simulation(SMALL.with_(rate_schedule=lambda t: 0.0))
        simulation.run(SMALL.timestamps)
        assert len(simulation.server._events_by_id) == SMALL.initial_events


class TestOracle:
    def test_oracle_rebuilds_do_not_count_as_io(self):
        base = SMALL.with_(rate_schedule=staircase)
        plain = run_experiment(base)
        oracle = run_experiment(base.with_(oracle_rebuild=True))
        # the oracle does strictly more constructions...
        assert oracle.stats.constructions > plain.stats.constructions
        # ...but its communication stays in the same ballpark (free refreshes)
        assert oracle.stats.total_rounds <= plain.stats.total_rounds * 2 + 10

    def test_oracle_without_signal_is_inert(self):
        plain = run_experiment(SMALL)
        oracle = run_experiment(SMALL.with_(oracle_rebuild=True))
        assert oracle.stats.constructions == plain.stats.constructions

    def test_speed_schedule_trajectories(self):
        result = run_experiment(SMALL.with_(speed_schedule=lambda t: staircase(t) * 10))
        assert result.stats.total_rounds >= 0  # runs to completion

    def test_no_missed_notifications_under_dynamics(self):
        simulation = build_simulation(
            SMALL.with_(rate_schedule=staircase, oracle_rebuild=True)
        )
        simulation.run(SMALL.timestamps)
        assert simulation.verify_no_missed_notifications() == []


class TestWireBytes:
    def test_byte_accounting_in_simulation(self):
        result = run_experiment(SMALL.with_(event_rate=8.0))
        stats = result.stats
        assert stats.wire_bytes_down > 0
        # every construction ships a safe region, so downstream carries at
        # least the bitmap bytes
        assert stats.wire_bytes_down >= stats.safe_region_bytes
        # compressed never exceeds raw
        assert stats.safe_region_bytes <= stats.raw_region_bytes

    def test_gm_complement_regions_ship_compact(self):
        result = run_experiment(
            SMALL.with_(strategy="GM", matching_mode="full")
        )
        stats = result.stats
        # GM's regions cover almost the whole grid; shipping the excluded
        # set keeps the payload small
        assert stats.constructions > 0
        assert stats.wire_bytes_down / max(stats.constructions, 1) < 64_000


class TestNegativeRate:
    def test_negative_event_rate_rejected(self):
        with pytest.raises(ValueError):
            build_simulation(SMALL.with_(event_rate=-1.0))
