"""The public API surface: exports resolve, the README quickstart runs,
and every public item carries documentation."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_is_sorted_and_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version(self):
        assert repro.__version__

    def test_subpackage_alls_resolve(self):
        import repro.core, repro.datasets, repro.expressions, repro.geometry
        import repro.index, repro.system, repro.trajectories

        for module in (repro.core, repro.datasets, repro.expressions,
                       repro.geometry, repro.index, repro.system,
                       repro.trajectories):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module.__name__, name)


class TestReadmeQuickstart:
    def test_quickstart_snippet_works(self):
        """The code block in README.md §Quickstart, executed verbatim-ish."""
        from repro import (BEQTree, BooleanExpression, ElapsServer, Event, Grid,
                           IGM, Operator, Point, Predicate, Rect, Subscription)

        space = Rect(0, 0, 50_000, 50_000)
        server = ElapsServer(Grid(120, space), IGM(max_cells=2_000),
                             event_index=BEQTree(space, emax=256))
        interest = BooleanExpression([
            Predicate("name", Operator.EQ, "shoes"),
            Predicate("model", Operator.EQ, "Jordan AJ23"),
            Predicate("price", Operator.LT, 1000),
        ])
        sub = Subscription(1, interest, radius=2_000)
        matches, safe_region = server.subscribe(sub, Point(25_000, 25_000),
                                                Point(60, 0), now=0)
        assert matches == []
        assert not safe_region.is_empty()
        offer = Event(7, {"name": "shoes", "model": "Jordan AJ23", "price": 650},
                      Point(25_400, 25_200))
        notifications = server.publish(offer, now=1)
        assert [n.sub_id for n in notifications] == [1]


class TestDocumentationCoverage:
    def test_every_public_item_has_a_docstring(self):
        src = pathlib.Path(repro.__file__).parent
        undocumented = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if not ast.get_docstring(tree):
                undocumented.append(f"{path.name}: module")
            for node in ast.walk(tree):
                if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                if not ast.get_docstring(node):
                    undocumented.append(f"{path.name}:{node.lineno}: {node.name}")
        # nested closures are implementation detail; everything else is
        # required to carry documentation
        allowed = {"flush_run", "dominated", "add_vertical", "add_horizontal"}
        real = [u for u in undocumented if u.split()[-1] not in allowed]
        assert real == [], real


class TestConfigurationSurface:
    """The exact knob and executor sets.  A re-added option or a second
    way to configure something must show up here as a failing diff."""

    @staticmethod
    def field_names(cls):
        import dataclasses

        return {field.name for field in dataclasses.fields(cls)}

    def test_server_config_fields(self):
        from repro.system import ServerConfig

        assert self.field_names(ServerConfig) == {
            "matching_mode", "initial_rate", "stats_override",
            "use_impact_region", "repair", "journal",
        }

    def test_byte_accounting_has_no_flag(self):
        """Every server counts wire bytes (the config field sets above
        hold no switch), so no flag says whether it did."""
        from repro.system import CommunicationStats

        assert "bytes_measured" not in self.field_names(CommunicationStats)

    def test_network_config_fields(self):
        from repro.system import NetworkConfig

        assert self.field_names(NetworkConfig) == {
            "read_timeout", "write_timeout", "retain_subscribers",
            "ingress_queue", "send_queue", "send_queue_hard",
            "slow_consumer_grace", "max_connections", "write_buffer_limit",
        }

    def test_experiment_config_fields(self):
        from repro.system import ExperimentConfig

        assert self.field_names(ExperimentConfig) == {
            "strategy", "dataset", "movement", "event_rate", "speed", "radius",
            "initial_events", "subscription_size", "subscribers", "timestamps",
            "grid_n", "emax", "event_ttl", "matching_mode", "max_cells", "seed",
            "alpha", "beta", "rate_schedule", "speed_schedule",
            "oracle_rebuild", "use_impact_region", "incremental_impact",
            "repair", "slow_span_seconds", "shards", "shard_executor",
            "rebalance",
        }

    def test_send_queue_parameters(self):
        import inspect
        from repro.system import SendQueue

        assert list(inspect.signature(SendQueue).parameters) == [
            "soft_cap", "hard_cap", "grace", "stats",
        ]

    def test_the_two_commands_that_replaced_dunders_are_documented_methods(self):
        from repro.system import ElapsServer, ShardedElapsServer

        assert ElapsServer.subscriber_snapshots.__doc__
        for server in (ElapsServer, ShardedElapsServer):
            assert server.configure_tracing.__doc__

    def test_client_config_fields(self):
        from repro.system import ClientConfig

        assert self.field_names(ClientConfig) == {
            "heartbeat_interval", "read_timeout", "receive_timeout", "reconnect",
        }

    def test_journal_record_is_a_command_and_nothing_else(self):
        from repro.system import JournalRecord

        assert JournalRecord._fields == ("seq", "method", "args")
        assert not JournalRecord._field_defaults  # no optional field

    def test_shard_executor_exports(self):
        import repro.system

        executors = {
            name for name in repro.system.__all__ if name.endswith("Executor")
        }
        assert executors == {"ShardExecutor", "SerialExecutor", "ProcessExecutor"}
        subclasses = {cls.__name__ for cls in repro.system.ShardExecutor.__subclasses__()}
        assert subclasses == {"SerialExecutor", "ProcessExecutor"}
        # one task form — (method, args) tuples — so no command class,
        # and nothing to choose when constructing either executor
        import inspect
        import repro.system.executors as executors_module
        import repro.system.sharding as sharding

        assert set(executors_module.__all__) == executors | {"WorkerCrashed"}
        assert set(sharding.__all__) == {
            "RebalancePolicy", "ShardSpec", "ShardedElapsServer", "partition_columns",
        }
        for module in (executors_module, sharding):
            assert set(module.__all__) <= set(repro.system.__all__)
        for name in ("SerialExecutor", "ProcessExecutor"):
            assert not inspect.signature(getattr(executors_module, name)).parameters
        # the shards hand back what they shipped: no coordinator hook
        # beside the locate ping
        for name in ("ShardExecutor", "SerialExecutor", "ProcessExecutor"):
            launch = inspect.signature(getattr(executors_module, name).launch)
            assert list(launch.parameters) == ["self", "builders", "grid", "locate"]

    def test_one_construction_core_and_its_oracle_in_testing(self):
        import importlib

        import repro.core
        from repro.core import IDGM, IGM, IncrementalGridMethod
        from repro.system.experiment import STRATEGIES
        from repro.testing import ScalarIDGM, ScalarIGM

        assert not [name for name in dir(repro.core) if name.startswith("Vectorized")]
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.vectorized")
        assert set(STRATEGIES) == {"VM", "GM", "iGM", "idGM"}
        # IGM and IDGM run the array loop; the scalar loop overrides only
        # construct and is registered nowhere
        assert IGM.construct is IDGM.construct is IncrementalGridMethod.construct
        assert ScalarIGM.construct is ScalarIDGM.construct is not IGM.construct
        for scalar, served in ((ScalarIGM, IGM), (ScalarIDGM, IDGM)):
            assert scalar.__bases__ == (served,)
            assert {name for name in vars(scalar) if not name.startswith("_")} == {"construct"}
        assert not {ScalarIGM, ScalarIDGM} & set(STRATEGIES.values())

    def test_a_matching_field_serves_one_radius(self):
        import dataclasses
        import inspect

        import repro.core.igm
        from repro.core import ConstructionRequest, LazyBEQField, StaticMatchingField
        from repro.core.field import MatchingEventField

        # the field holds its own array projection: no view object
        assert not hasattr(repro.core.igm, "_FieldArrayView")
        # the radius is the field's, fixed when it is built
        for cls in (MatchingEventField, StaticMatchingField, LazyBEQField):
            for name, member in vars(cls).items():
                if callable(member) and name != "__init__":
                    assert "radius" not in inspect.signature(member).parameters, name
        # a request names no grid or radius beside its field's
        assert [field.name for field in dataclasses.fields(ConstructionRequest)] == [
            "location", "velocity", "matching_field", "stats",
        ]

    def test_a_fleet_takes_a_strategy_or_a_zero_argument_factory(self):
        from repro.core import IGM
        from repro.geometry import Grid, Rect
        from repro.system import ShardedElapsServer

        grid = Grid(20, Rect(0, 0, 10_000, 10_000))
        shared = IGM(max_cells=50)
        for strategy in (shared, lambda: shared):
            fleet = ShardedElapsServer(grid, strategy, shards=2)
            assert [w.strategy for w in fleet.shard_servers] == [shared, shared]
        with pytest.raises(TypeError):
            ShardedElapsServer(grid, lambda spec: shared, shards=2)
