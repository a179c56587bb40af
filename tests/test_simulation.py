"""End-to-end integration: the full simulation must be deterministic,
deliver every matching event (the paper's real-time guarantee), and the
two matching modes must agree on communication behaviour."""

from __future__ import annotations

import pytest

from repro.system import ExperimentConfig, build_simulation, run_experiment

SMALL = ExperimentConfig(
    initial_events=2500,
    subscribers=6,
    timestamps=50,
    event_rate=4.0,
    grid_n=80,
    max_cells=1200,
)


class TestDeliveryGuarantee:
    @pytest.mark.parametrize("strategy", ["iGM", "idGM", "VM", "GM"])
    def test_no_missed_notifications(self, strategy):
        simulation = build_simulation(SMALL.with_(strategy=strategy))
        simulation.run(SMALL.timestamps)
        assert simulation.verify_no_missed_notifications() == []

    def test_no_missed_with_expiring_events(self):
        simulation = build_simulation(SMALL.with_(event_ttl=10))
        simulation.run(SMALL.timestamps)
        assert simulation.verify_no_missed_notifications() == []

    def test_no_missed_on_taxi_movement(self):
        simulation = build_simulation(SMALL.with_(movement="taxi"))
        simulation.run(SMALL.timestamps)
        assert simulation.verify_no_missed_notifications() == []

    def test_no_missed_on_foursquare(self):
        simulation = build_simulation(SMALL.with_(dataset="foursquare", initial_events=1200))
        simulation.run(SMALL.timestamps)
        assert simulation.verify_no_missed_notifications() == []


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL)
        assert a.per_subscriber() == b.per_subscriber()
        assert a.notification_count == b.notification_count

    def test_different_seed_differs(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL.with_(seed=99))
        assert a.per_subscriber() != b.per_subscriber()


class TestMatchingModesAgree:
    @pytest.mark.parametrize("strategy", ["iGM", "VM", "GM"])
    def test_modes_identical_communication(self, strategy):
        """'ondemand' and 'full' change server work, never the
        client-visible behaviour."""
        outcomes = []
        for mode in ("ondemand", "full"):
            result = run_experiment(SMALL.with_(strategy=strategy, matching_mode=mode))
            outcomes.append(
                (
                    result.stats.location_update_rounds,
                    result.stats.event_arrival_rounds,
                    result.stats.notifications,
                    result.notification_count,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestResultAccounting:
    def test_per_subscriber_division(self):
        result = run_experiment(SMALL)
        per = result.per_subscriber()
        assert per["total"] == pytest.approx(
            result.stats.total_rounds / SMALL.subscribers
        )
        assert per["total"] == per["location_update"] + per["event_arrival"]

    def test_notifications_counted_once(self):
        result = run_experiment(SMALL)
        assert result.notification_count == result.stats.notifications

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(SMALL.with_(strategy="nope"))
        with pytest.raises(ValueError):
            run_experiment(SMALL.with_(dataset="nope"))
        with pytest.raises(ValueError):
            run_experiment(SMALL.with_(movement="nope"))


class TestCostModelResponses:
    def test_higher_event_rate_increases_baseline_event_channel(self):
        """GM's event-arrival channel must scale with f (the paper's core
        observation motivating the cost model)."""
        low = run_experiment(SMALL.with_(strategy="GM", matching_mode="full", event_rate=2.0))
        high = run_experiment(SMALL.with_(strategy="GM", matching_mode="full", event_rate=16.0))
        assert high.stats.event_arrival_rounds > low.stats.event_arrival_rounds

    def test_igm_beats_gm_in_total_io_at_high_rate(self):
        config = SMALL.with_(event_rate=16.0, timestamps=80)
        igm = run_experiment(config.with_(strategy="iGM"))
        gm = run_experiment(config.with_(strategy="GM", matching_mode="full"))
        assert igm.stats.total_rounds < gm.stats.total_rounds


class TestRepairDeltas:
    """Under ``repair=True`` a repair reaches the in-process client as the
    removed cells, which it carves out of the region it holds."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_clients_apply_deltas_and_hold_the_servers_region(self, shards):
        simulation = build_simulation(
            SMALL.with_(repair=True, event_rate=20.0, timestamps=40, shards=shards)
        )
        applied = []
        for client in simulation.clients.values():
            def recording(removed, apply=client.apply_region_delta):
                applied.append(apply(removed))
                return applied[-1]

            client.apply_region_delta = recording
        server = simulation.server
        expire = server.expire_due_events

        def expire_then_compare(now):
            # the last call of every tick: each client now holds exactly
            # the region the server last built or repaired for it
            retired = expire(now)
            for sub_id, client in simulation.clients.items():
                assert client.safe_region == server.subscribers[sub_id].safe, (now, sub_id)
            return retired

        server.expire_due_events = expire_then_compare
        stats = simulation.run(40).stats
        assert stats.repairs > 0
        assert True in applied
        assert simulation.verify_no_missed_notifications() == []
