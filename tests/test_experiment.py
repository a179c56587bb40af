"""The experiment runner and metrics plumbing."""

from __future__ import annotations

import pytest

from repro.core import GridMethod, IDGM, IGM, VoronoiMethod
from repro.system import CommunicationStats, ExperimentConfig, build_strategy
from repro.system.experiment import (
    STRATEGIES,
    build_server,
    build_simulation,
    matching_mode_for,
)
from repro.testing import ScalarIGM


class TestBuildStrategy:
    def test_registry_covers_every_method(self):
        assert set(STRATEGIES) == {"VM", "GM", "iGM", "idGM"}

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("VM", VoronoiMethod),
            ("GM", GridMethod),
            ("iGM", IGM),
            ("idGM", IDGM),
        ],
    )
    def test_builds_the_right_class(self, name, cls):
        strategy = build_strategy(ExperimentConfig(strategy=name))
        assert isinstance(strategy, cls)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_strategy(ExperimentConfig(strategy="???"))

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("strategy", ["VM", "GM", "iGM", "idGM"])
    def test_a_built_server_runs_the_strategys_matching_mode(self, strategy, shards):
        """No ``matching_mode`` means the strategy's own, on every shard:
        VM/GM match the full corpus per construction (``repro serve``
        built them on-demand when it left the mode out)."""
        config = ExperimentConfig(strategy=strategy, shards=shards, grid_n=40)
        assert config.matching_mode is None
        server = build_server(config)
        workers = getattr(server, "shard_servers", [server])
        assert len(workers) == shards
        assert {worker.config.matching_mode for worker in workers} == {matching_mode_for(strategy)}
        assert config.resolved_matching_mode == matching_mode_for(strategy)
        explicit = build_server(config.with_(matching_mode="ondemand"))
        assert {w.config.matching_mode for w in getattr(explicit, "shard_servers", [explicit])} == {
            "ondemand"
        }

    def test_beta_override_reaches_igm(self):
        strategy = build_strategy(ExperimentConfig(strategy="iGM", beta=0.5))
        assert strategy.beta == 0.5

    def test_alpha_override_reaches_idgm(self):
        strategy = build_strategy(ExperimentConfig(strategy="idGM", alpha=0.9))
        assert strategy.alpha == 0.9

    def test_incremental_impact_override(self):
        strategy = build_strategy(
            ExperimentConfig(strategy="iGM", incremental_impact=False)
        )
        assert strategy.incremental_impact is False

    def test_max_cells_flows_through(self):
        strategy = build_strategy(ExperimentConfig(strategy="iGM", max_cells=77))
        assert strategy.max_cells == 77

    def test_defaults_have_no_overrides(self):
        strategy = build_strategy(ExperimentConfig(strategy="idGM"))
        assert strategy.alpha == 0.5
        assert strategy.beta == 1.0


class TestConfig:
    def test_with_replaces_fields(self):
        config = ExperimentConfig()
        changed = config.with_(event_rate=99.0, subscribers=3)
        assert changed.event_rate == 99.0
        assert changed.subscribers == 3
        assert config.event_rate != 99.0  # the original is untouched

    def test_defaults_mirror_table2(self):
        config = ExperimentConfig()
        assert config.speed == 60.0
        assert config.radius == 3_000.0
        assert config.subscription_size == 3


class TestCommunicationStats:
    def test_total_rounds(self):
        stats = CommunicationStats(location_update_rounds=3, event_arrival_rounds=4)
        assert stats.total_rounds == 7

    def test_per_subscriber(self):
        stats = CommunicationStats(
            location_update_rounds=10, event_arrival_rounds=6, notifications=4,
            repairs=8, batches=2,
        )
        per = stats.per_subscriber(2)
        assert per == {
            "location_update": 5.0,
            "event_arrival": 3.0,
            "total": 8.0,
            "notifications": 2.0,
            "repairs": 4.0,
            "batches": 1.0,
        }

    def test_per_subscriber_rejects_zero(self):
        with pytest.raises(ValueError):
            CommunicationStats().per_subscriber(0)

    def test_merged_with(self):
        a = CommunicationStats(location_update_rounds=1, notifications=2,
                               server_seconds=0.5, wire_bytes_up=10)
        b = CommunicationStats(location_update_rounds=2, notifications=3,
                               server_seconds=1.5, wire_bytes_up=20)
        merged = a.merged_with(b)
        assert merged.location_update_rounds == 3
        assert merged.notifications == 5
        assert merged.server_seconds == 2.0
        assert merged.wire_bytes_up == 30
        # inputs untouched
        assert a.location_update_rounds == 1


class TestCappedConstructions:
    """How many full constructions the ``max_cells`` cap, not the balance
    ratio, ended — counted so the share is read, never guessed."""

    SEEDED = ExperimentConfig(
        strategy="iGM", subscribers=20, timestamps=60, initial_events=3_000,
        event_rate=20.0, max_cells=300, repair=True, seed=7,
    )

    @pytest.mark.parametrize("core", ["iGM", "iGM-scalar"])
    def test_a_seeded_drive_pins_the_capped_share(self, core):
        simulation = build_simulation(self.SEEDED)
        if core == "iGM-scalar":
            simulation.server.strategy = ScalarIGM(max_cells=self.SEEDED.max_cells)
        stats = simulation.run(60).stats
        full = stats.constructions - stats.degenerate_constructions
        print(f"\ncapped constructions ({core}): {stats.capped_constructions} "
              f"of {full} full, {stats.constructions} in all")
        # both endings occur, so the counter separates them
        assert (stats.constructions, stats.degenerate_constructions) == (71, 44)
        assert stats.capped_constructions == 19

    def test_a_fleet_sums_its_shards(self):
        simulation = build_simulation(self.SEEDED.with_(shards=2))
        stats = simulation.run(60).stats
        workers = simulation.server.shard_servers
        assert stats.capped_constructions == 34
        assert stats.capped_constructions == sum(
            worker.metrics.capped_constructions for worker in workers
        )
        assert stats.degenerate_constructions == sum(
            worker.metrics.degenerate_constructions for worker in workers
        )

    def test_an_uncapped_strategy_counts_nothing(self):
        stats = build_simulation(self.SEEDED.with_(max_cells=None, timestamps=10)).run(10).stats
        assert stats.constructions > stats.degenerate_constructions
        assert stats.capped_constructions == 0


class TestViewRegrowths:
    """How often a construction's array view outgrew its band of grid
    rows and was projected again — the array core's own work, counted so
    the cost of holding a band instead of the whole grid is read."""

    SEEDED = TestCappedConstructions.SEEDED

    def test_a_seeded_drive_pins_its_regrowths(self):
        stats = build_simulation(self.SEEDED).run(60).stats
        print(f"\nview regrowths: {stats.view_regrowths} over "
              f"{stats.constructions} constructions")
        assert stats.view_regrowths == 27

    def test_the_scalar_oracle_reads_no_view(self):
        simulation = build_simulation(self.SEEDED)
        simulation.server.strategy = ScalarIGM(max_cells=self.SEEDED.max_cells)
        assert simulation.run(60).stats.view_regrowths == 0

    def test_a_fleet_sums_its_shards(self):
        simulation = build_simulation(self.SEEDED.with_(shards=2))
        stats = simulation.run(60).stats
        workers = simulation.server.shard_servers
        assert stats.view_regrowths == 37
        assert stats.view_regrowths == sum(
            worker.metrics.view_regrowths for worker in workers
        )


class TestTracingConfig:
    SMALL = dict(initial_events=800, subscribers=2, timestamps=10,
                 event_rate=2.0, grid_n=40, seed=3)

    def test_result_carries_the_registry_with_spans(self):
        from repro.system import run_experiment

        result = run_experiment(ExperimentConfig(**self.SMALL))
        assert result.registry is not None
        summaries = result.registry.tracer.summaries()
        assert "construct" in summaries
        assert summaries["construct"]["count"] >= 2  # one per subscriber
