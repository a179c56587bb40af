"""Process-parallel shard fleet (DESIGN.md §15): worker processes each
owning a full per-shard ElapsServer behind pipe-shipped command messages.

Two layers of coverage:

* plumbing — ``(method, args)`` command round-trips, locate upcalls,
  metrics/histogram marshalling, crash surfacing, close idempotency,
  and one ``run`` of K commands per fleet-wide operation;
* the reply seam — a region crosses a pipe as its cells and arrives
  over the coordinator's own grid, no ``Grid`` rides along (marked
  ``fleet`` so the process-fleet CI lane runs it and prints the sizes);
* serial-vs-process equality of everything the coordinator pulls from
  its shards (merged metrics, span histograms, corpus, recovered state);
* the differential — the golden 20-subscriber/200-event trace must stay
  **byte-identical** to the frozen single-server log through a process
  fleet, including across a forced mid-run rebalance (marked ``fleet``:
  these spawn worker processes and dominate the file's runtime).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IGM, ImpactRegion, SafeRegion
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, codes_of_cells
from repro.index import BEQTree
from repro.system import (
    CallbackTransport,
    ElapsServer,
    JournalSpec,
    ProcessExecutor,
    ServerConfig,
    SerialExecutor,
    ShardedElapsServer,
    WorkerCrashed,
)
from repro.system.executors import _ReplySeam
from repro.system.server import Notification

from test_golden_trace import GOLDEN, GROUPS, SPACE
from test_sharding import (
    SKEW_POLICY,
    drive_skewed_stream,
    launch_bare,
    make_sharded,
    make_sub,
    run_sharded_simulation,
    sale,
)


def make_process_fleet(shards=2, **kwargs):
    return make_sharded(shards, executor=ProcessExecutor(), **kwargs)


class MisbehavingServer(ElapsServer):
    """A band server with two commands no real one has: a region ship
    followed by a failure, and a result over somebody else's grid."""

    def ship_then_fail(self, sub_id, cells):
        """Ship a region the way a construction does, then raise."""
        self.transport.ship_region(sub_id, SafeRegion.of(self.grid, cells))
        raise LookupError("after the ship")

    def foreign_region(self):
        """A region over a grid that is not this shard's."""
        return [], SafeRegion.of(Grid(4, SPACE), [(1, 1)])


def misbehaving_fleet(make, grid):
    """A one-band fleet over ``grid`` on a ``make()`` executor that builds
    a :class:`MisbehavingServer` where the fleet's builder would go."""
    executor = make()
    launch = executor.launch
    executor.launch = lambda builders, *, grid, locate: launch(
        [lambda transport: MisbehavingServer(grid, IGM(max_cells=40), transport=transport)],
        grid=grid,
        locate=locate,
    )
    return ShardedElapsServer(grid, IGM(max_cells=40), shards=1, executor=executor)


# ----------------------------------------------------------------------
# Command-message plumbing
# ----------------------------------------------------------------------
class TestProcessPlumbing:
    def test_publish_round_trip_delivers(self):
        with make_process_fleet(2) as server:
            notes, region = server.subscribe(
                make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0
            )
            assert notes == []
            assert region is not None and not region.is_empty()
            notes = server.publish(sale(10, 5_100, 5_000), now=1)
            assert [n.event.event_id for n in notes] == [10]
            assert server.delivered_ids(1) == frozenset({10})

    def test_delivered_sets_match_serial_fleet(self):
        def drive(server):
            rng = random.Random(3)
            pairs = []
            for sub_id in range(1, 6):
                server.subscribe(
                    make_sub(sub_id=sub_id, radius=2_500.0),
                    Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                    Point(0, 0),
                    0,
                )
            for event_id in range(60):
                notes = server.publish(
                    sale(event_id, rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                    now=1 + event_id,
                )
                pairs += [(n.sub_id, n.event.event_id, n.seq) for n in notes]
            server.close()
            return pairs

        serial = drive(make_sharded(2, executor=SerialExecutor()))
        process = drive(make_process_fleet(2))
        assert process == serial

    def test_locate_upcall_reaches_the_coordinator_transport(self):
        asked = []

        def locate(sub_id):
            asked.append(sub_id)
            return Point(5_000, 5_000), Point(0, 0)

        with make_process_fleet(
            2, transport=CallbackTransport(locate=locate)
        ) as server:
            server.subscribe(
                make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0
            )
            server.publish(sale(10, 5_100, 5_000), now=1)
        assert asked  # the worker's arrival ping crossed the pipe

    def test_metrics_and_registry_marshalled_from_workers(self):
        with make_process_fleet(2) as server:
            server.subscribe(
                make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0
            )
            server.publish(sale(10, 5_100, 5_000), now=1)
            merged = server.merged_metrics()
            assert merged.notifications == 1
            assert merged.constructions >= 1
            registry = server.merged_registry()
            assert registry.tracer.histogram("publish").count >= 1

    def test_tracer_attributes_proxy_across_the_pipe(self):
        """``configure_tracing`` on the fleet sets the slow-span threshold
        of the coordinator's tracer and of every worker-side one, whose
        spans are recorded in the worker's own registry."""

        def worker_tracer(server):
            return server._run({0: ("merged_registry", ())})[0].tracer

        with make_process_fleet(2) as server:
            server.configure_tracing(30.0)
            assert server.tracer.slow_threshold == 30.0
            assert worker_tracer(server).slow_threshold == 30.0
            server.publish(sale(1, 1_000, 5_000), now=1)
            assert worker_tracer(server).histogram("publish").count == 1
            server.configure_tracing(None)
            assert server.tracer.slow_threshold is None
            assert worker_tracer(server).slow_threshold is None

    def test_remote_corpus_and_subscriber_views(self):
        with make_process_fleet(2) as server:
            server.bootstrap([sale(1, 2_000, 5_000, arrived_at=0)])
            server.subscribe(
                make_sub(radius=3_000.0), Point(2_000, 5_000), Point(0, 0), 0
            )
            matches = list(server.corpus_matches(make_sub().expression))
            assert [e.event_id for e in matches] == [1]
            (view,) = server._run({0: ("subscriber_snapshots", ())})[0]
            assert view.subscription.sub_id == 1
            assert view.delivered == frozenset({1})

    def test_worker_errors_carry_type_and_remote_traceback(self):
        with make_process_fleet(2) as server:
            command = ("report_location", (999, Point(0, 0), Point(0, 0), 1))
            with pytest.raises(KeyError) as info:
                server._run({0: command})
            assert "extract_events_in_columns" not in str(info.value)
            assert "report_location" in info.value._remote_traceback
            # the fleet survives a failed command
            server.publish(sale(5, 1_000, 5_000), now=1)

    @pytest.mark.parametrize("make", [SerialExecutor, ProcessExecutor])
    def test_what_a_shard_shipped_before_it_failed_lands(self, make):
        """What a shard shipped before it failed is real shard state: it
        lands in the coordinator's bookkeeping — over the coordinator's
        own grid — before the error is raised."""
        grid = Grid(40, SPACE)
        cells = [(3, 4), (3, 5)]
        with misbehaving_fleet(make, grid) as fleet:
            fleet.subscribe(make_sub(sub_id=7), Point(5_000, 5_000), Point(0, 0), 0)
            with pytest.raises(LookupError, match="after the ship") as info:
                fleet._run({0: ("ship_then_fail", (7, cells))})
            assert "ship_then_fail" in info.value._remote_traceback
            region = fleet.subscribers[7].shard_regions[0]
            assert region.grid is grid
            assert region == SafeRegion.of(grid, cells)
            assert fleet._dirty[7].full

    @pytest.mark.parametrize("make", [SerialExecutor, ProcessExecutor])
    def test_every_shard_runs_and_the_lowest_failing_shard_raises(self, make):
        """One failing command stops none of its neighbours, on either
        executor; when several fail, the lowest shard's error is raised."""
        unknown = ("report_location", (999, Point(0, 0), Point(0, 0), 1))
        with make_sharded(2, executor=make()) as fleet:
            with pytest.raises(KeyError):
                fleet._run({0: unknown, 1: ("bootstrap", ([sale(1, 8_000, 5_000)],))})
            with pytest.raises(KeyError):
                fleet._run({0: ("bootstrap", ([sale(2, 2_000, 5_000)],)), 1: unknown})
            assert [s.total_events for s in fleet._run_all("system_stats", 1)] == [1, 1]
            with pytest.raises(KeyError) as info:
                fleet._run({0: ("unsubscribe", (999,)), 1: unknown})
            assert "unsubscribe" in info.value._remote_traceback
            assert "report_location" not in info.value._remote_traceback

    @pytest.mark.parametrize("make", [SerialExecutor, ProcessExecutor])
    @pytest.mark.parametrize(
        "command",
        [lambda: 1, ("publish_batch",), ["expire_due_events", (1,)],
         ("expire_due_events", 1), (b"expire_due_events", (1,)),
         ("_construct", (None, 1)), ("__metrics__", ())],
        ids=["thunk", "no-args", "list", "bare-arg", "bytes-name",
             "private-name", "dunder-name"],
    )
    def test_a_malformed_command_is_a_typeerror_on_both_executors(
        self, make, command
    ):
        bootstrap = ("bootstrap", ([sale(1, 2_000, 5_000)],))
        with launch_bare(make()) as executor:
            for commands in ({0: command}, {0: bootstrap, 1: command}):
                with pytest.raises(TypeError):
                    executor.run(commands)
            # every command was checked before any reached a server or a
            # pipe, and the next reply is the next command's own
            ((kind, stats, shipped),) = executor.run({0: ("system_stats", (1,))}).values()
            assert (kind, stats.total_events, shipped) == ("done", 0, [])


class CountingExecutor(ProcessExecutor):
    """A process executor that remembers the size of every fan-out."""

    def __init__(self):
        super().__init__()
        self.fanouts = []

    def run(self, commands):
        self.fanouts.append(sorted(commands))
        return super().run(commands)


class TestOneFanOutPerFleetOperation:
    """Fleet-wide pulls are one ``run`` carrying K commands (the bands
    work concurrently), never K sequential round-trips around it."""

    def test_recover_snapshot_and_metric_pulls_are_single_fanouts(self, tmp_path):
        config = ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path)))
        with make_sharded(2, executor=ProcessExecutor(), config=config) as server:
            server.subscribe(
                make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0
            )
            server.publish(sale(10, 5_100, 5_000), now=1)
        executor = CountingExecutor()
        with make_sharded(2, executor=executor, config=config) as server:
            for operation, fanouts in [
                (server.recover, [[0, 1], [0, 1]]),  # replay, then snapshots
                (server.snapshot, [[0, 1]]),
                (server.merged_metrics, [[0, 1]]),
                (server.merged_registry, [[0, 1]]),
                (lambda: server.system_stats(now=2), [[0, 1]]),
            ]:
                executor.fanouts.clear()
                operation()
                assert executor.fanouts == fanouts, operation
            assert server.delivered_ids(1) == frozenset({10})


class TestSerialProcessEquality:
    """Everything the coordinator pulls from its shards reads the same
    whether the shards are in-process or behind pipes."""

    @staticmethod
    def drive(server):
        rng = random.Random(11)
        for sub_id in range(1, 9):
            server.subscribe(
                make_sub(sub_id=sub_id, radius=2_500.0),
                Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                Point(0, 0),
                0,
            )
        for tick in range(1, 9):
            server.publish_batch(
                [
                    sale(
                        tick * 100 + k,
                        rng.uniform(0, 10_000),
                        rng.uniform(0, 10_000),
                        arrived_at=tick,
                    )
                    for k in range(12)
                ],
                now=tick,
            )
            sub_id = 1 + tick % 8
            server.report_location(
                sub_id,
                Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                Point(0, 0),
                tick,
            )

    @staticmethod
    def coordinator_state(server):
        return {
            sub_id: (
                sorted(record.homes),
                record.owner,
                sorted(record.delivered),
                record.next_seq,
                record.safe.complement,
                record.safe.codes.tolist(),
            )
            for sub_id, record in server.subscribers.items()
        }

    def pulled(self, server):
        registry = server.merged_registry()
        return {
            "metrics": server.merged_metrics().as_dict(),
            "stages": {
                stage: histogram.count
                for stage, histogram in registry.tracer.histograms.items()
            },
            "registry_counters": registry.stats.as_dict(),
            "corpus": sorted(
                e.event_id for e in server.corpus_matches(make_sub().expression)
            ),
            "stats": server.system_stats(now=9),
            "state": self.coordinator_state(server),
        }

    def test_recovered_coordinator_state_matches(self, tmp_path):
        config = ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path)))
        with make_sharded(2, executor=SerialExecutor(), config=config) as live:
            self.drive(live)
            before = self.pulled(live)
        assert len(before["corpus"]) == 96
        rebuilt = []
        for make in (SerialExecutor, ProcessExecutor):
            with make_sharded(2, executor=make(), config=config) as server:
                assert server.recover() > 0
                rebuilt.append(self.pulled(server))
        serial, process = rebuilt
        assert process["state"] == serial["state"]
        assert process["stages"] == serial["stages"]  # replay's own spans
        assert process["corpus"] == serial["corpus"] == before["corpus"]
        # against the live fleet: everything but the owner, which
        # recovery re-derives from the last reported location
        for sub_id, (homes, _, *rest) in before["state"].items():
            recovered_homes, _, *recovered_rest = process["state"][sub_id]
            assert (recovered_homes, recovered_rest) == (homes, rest)

    def test_live_pulls_match_field_for_field(self):
        results = []
        for make in (SerialExecutor, ProcessExecutor):
            with make_sharded(2, executor=make()) as server:
                self.drive(server)
                results.append(self.pulled(server))
        serial, process = results
        for pulled in results:  # the one wall-clock field
            assert pulled["metrics"].pop("server_seconds") > 0
            assert pulled["registry_counters"].pop("server_seconds") > 0
        assert process == serial


# ----------------------------------------------------------------------
# Lifecycle and crash surfacing
# ----------------------------------------------------------------------
class TestProcessLifecycle:
    def test_close_is_idempotent_and_joins_workers(self):
        server = make_process_fleet(2)
        handles = list(server.executor._workers.values())
        server.publish(sale(1, 5_000, 5_000), now=1)
        server.close()
        server.close()
        assert all(not h.process.is_alive() for h in handles)

    def test_context_manager_shuts_the_fleet_down(self):
        with make_process_fleet(2) as server:
            handles = list(server.executor._workers.values())
            server.publish(sale(1, 5_000, 5_000), now=1)
        assert all(not h.process.is_alive() for h in handles)

    def test_run_after_close_raises(self):
        server = make_process_fleet(2)
        server.close()
        with pytest.raises(RuntimeError):
            server.executor.run({0: ("expire_due_events", (1,))})

    def test_worker_crash_surfaces_as_workercrashed(self):
        server = make_process_fleet(2)
        server.publish(sale(1, 2_000, 5_000), now=1)
        # murder shard 1, then route an event into its band
        server.executor._workers[1].process.kill()
        with pytest.raises(WorkerCrashed) as info:
            for event_id in range(2, 6):
                server.publish(sale(event_id, 8_000, 5_000), now=2)
        assert info.value.shard_id == 1
        server.close()  # close after a crash must not hang

    def test_crash_detected_even_mid_wait(self):
        server = make_process_fleet(2)
        server.subscribe(
            make_sub(radius=3_000.0), Point(8_000, 5_000), Point(0, 0), 0
        )
        server.executor._workers[1].process.kill()
        with pytest.raises(WorkerCrashed):
            for event_id in range(40):
                server.publish(sale(event_id, 8_000, 5_000), now=1)
        server.close()

    def test_launch_twice_rejected(self):
        server = make_process_fleet(2)
        with pytest.raises(RuntimeError):
            server.executor.launch(
                [lambda t: None], grid=server.grid, locate=lambda s: None,
            )
        server.close()


# ----------------------------------------------------------------------
# The golden differential through worker processes
# ----------------------------------------------------------------------
@pytest.mark.fleet
class TestProcessGoldenDifferential:
    @pytest.mark.parametrize("batched", [False, True])
    def test_process_fleet_trace_is_byte_identical(self, batched):
        """run() collects every reply before merging, and merges in
        shard order — so even the batched fan-out is deterministic."""
        frozen = GOLDEN.read_bytes()
        trace = run_sharded_simulation(
            4, batched=batched, executor=ProcessExecutor()
        )
        assert trace.encode() == frozen

    def test_process_fleet_survives_a_forced_rebalance(self):
        """Band migration over pipes — extract on the donor, bootstrap
        on the receiver, re-homed subscribers re-sequenced — without
        changing one byte of the delivered trace."""
        frozen = GOLDEN.read_bytes()
        trace = run_sharded_simulation(
            4, batched=False, executor=ProcessExecutor(),
            rebalance_at=GROUPS // 2, bounds=[0, 5, 12, 30, 40],
        )
        assert trace.encode() == frozen

    def test_policy_driven_moves_over_pipes_deliver_the_static_serial_pairs(self):
        """What the process-scaling series asserted before it timed
        anything: the policy fires on the skewed stream, and neither the
        moves nor the pipes change a delivery."""
        static_pairs, _, _ = drive_skewed_stream(make_sharded(4))
        pairs, moves, _ = drive_skewed_stream(
            make_process_fleet(4, rebalance=SKEW_POLICY)
        )
        assert moves >= 1
        assert pairs == static_pairs


# ----------------------------------------------------------------------
# The reply seam: no Grid crosses a pipe (DESIGN.md §15)
# ----------------------------------------------------------------------
#: a small grid for the seam's round-trip property
SEAM_GRID = Grid(8, SPACE)
_cells = st.frozensets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
)
_regions = st.one_of(
    st.builds(SafeRegion.of, st.just(SEAM_GRID), _cells, st.booleans()),
    st.builds(ImpactRegion.of, st.just(SEAM_GRID), _cells, st.booleans()),
    st.just(SafeRegion.empty(SEAM_GRID)),
    st.just(SafeRegion.whole_space(SEAM_GRID)),
)
_notifications = st.lists(
    st.builds(
        Notification,
        st.integers(1, 50),
        st.builds(
            Event,
            st.integers(0, 1_000),
            st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), min_size=1),
            st.builds(Point, st.floats(0, 10_000), st.floats(0, 10_000)),
        ),
        st.integers(0, 100),
        st.integers(0, 100),
    ),
    max_size=5,
)
_shipments = st.lists(
    st.one_of(
        st.tuples(st.just("region"), st.integers(1, 50), _regions),
        st.tuples(st.just("delta"), st.integers(1, 50), _cells.map(codes_of_cells), _regions),
    ),
    max_size=4,
)


def warm(grid, radii=120):
    """Fill ``grid``'s per-radius tables the way a fleet that has served
    ``radii`` distinct notification radii has; forked workers inherit them."""
    for k in range(radii):
        disk = grid.disk(400.0 + 7.5 * k)
        disk.strips, disk.arrays, disk.masks


@pytest.mark.fleet
class TestNoGridCrossesAPipe:
    @settings(max_examples=60, deadline=None)
    @given(_notifications, _regions, _shipments)
    def test_a_reply_round_trips_as_a_value(self, notifications, region, shipped):
        region.to_bitmap()  # a worker has usually encoded what it ships
        reply = ("done", (notifications, region), shipped)
        seam = _ReplySeam(SEAM_GRID)
        copy = seam.loads(seam.dumps(reply))
        _, (copied_notifications, copied_region), copied_shipped = copy
        assert copied_notifications == notifications and copied_region == region
        for item, copied in zip(shipped, copied_shipped):
            assert copied[:2] == item[:2] and copied[-1] == item[-1]
            if item[0] == "delta":
                assert copied[2].tolist() == item[2].tolist()
        assert len(copied_shipped) == len(shipped)
        for original, landed in [(region, copied_region)] + [
            (item[-1], copied[-1]) for item, copied in zip(shipped, copied_shipped)
        ]:
            assert type(landed) is type(original)
            assert landed.grid is SEAM_GRID
            assert "_bitmap" not in vars(landed)

    def test_replies_stay_small_however_warm_the_grid(self):
        """The regression a slower benchmark would only hint at, as a
        number: bytes per command reply, by the executor's own counter
        (over a plain-pickle pipe each region drags this grid along and
        the same replies read hundreds of KB)."""
        grid = Grid(40, SPACE)
        warm(grid)
        with make_process_fleet(2, grid=grid, max_cells=60) as server:
            def per_reply(operation):
                before = server.executor.gauges()
                operation()
                after = server.executor.gauges()
                replies = after["pipe_replies"] - before["pipe_replies"]
                received = after["pipe_bytes_received"] - before["pipe_bytes_received"]
                assert replies >= 1
                return received / replies

            subscribe = per_reply(
                lambda: server.subscribe(
                    make_sub(radius=1_500.0), Point(5_000, 5_000), Point(0, 0), 0
                )
            )
            assert len(server.subscribers[1].homes) == 2  # both pipes carried a region
            delivered = []
            publish = per_reply(
                lambda: delivered.extend(
                    server.publish_batch(
                        [sale(k, 4_000 + 100 * k, 5_000) for k in range(20)], now=1
                    )
                )
            )
            assert delivered
            gauges = server.merged_registry().gauges
        print(f"\npipe bytes per reply: subscribe {subscribe:.0f}, "
              f"publish_batch {publish:.0f}; totals {gauges}")
        assert subscribe < 2_048
        assert publish < 2_048
        assert gauges["pipe_bytes_sent"] > 0 and gauges["pipe_replies"] >= 4

    def test_a_pickled_grid_leaves_its_axis_tables_behind(self):
        """The per-axis tables a construction builds on the grid are a
        pure function of it: a grid pickles to the same bytes before and
        after (the fleet ships it to every worker), and a copy rebuilds
        them on first use."""
        grid = Grid(40, SPACE)
        warm(grid)
        cold = pickle.dumps(grid)
        assert grid.axes.morton_x[5] == 0b10001
        warmed = pickle.dumps(grid)
        print(f"\npickled Grid(40) with warm disks: {len(cold)} bytes, "
              f"{len(warmed)} after its axis tables are built")
        assert len(warmed) == len(cold)
        copy = pickle.loads(warmed)
        assert "axes" not in vars(copy)
        assert copy.axes.morton_y == grid.axes.morton_y
        assert copy.axes.x_hi.tolist() == grid.axes.x_hi.tolist()

    def test_every_held_region_is_over_the_coordinators_grid(self, tmp_path):
        grid = Grid(40, SPACE)

        def drive(server):
            TestSerialProcessEquality.drive(server)
            server.resync(3, Point(4_900, 5_200), Point(0, 0), [101, 205], now=9)
            assert server.rebalance_now(now=10, bounds=[0, 12, 40])
            server.publish_batch(
                [sale(2_000 + k, 250.0 * k, 5_000, arrived_at=11) for k in range(40)],
                now=11,
            )

        def held(server):
            regions = {}
            for sub_id, record in server.subscribers.items():
                assert record.safe.grid is grid
                for shard_id, region in record.shard_regions.items():
                    assert region.grid is grid, (sub_id, shard_id)
                regions[sub_id] = (record.safe, dict(record.shard_regions))
            assert regions
            return regions

        live, recovered = [], []
        for make in (SerialExecutor, ProcessExecutor):
            config = ServerConfig(
                initial_rate=2.0, journal=JournalSpec(str(tmp_path / make.__name__))
            )
            with make_sharded(2, make(), config, grid) as server:
                drive(server)
                live.append(held(server))
            with make_sharded(2, make(), config, grid) as server:
                assert server.recover() > 0
                recovered.append(held(server))
        # frozen-dataclass equality, grid included: "same cells" at last
        assert live[1] == live[0]
        assert recovered[1] == recovered[0]

    def test_a_foreign_grid_is_refused_not_shipped(self):
        grid = Grid(40, SPACE)
        with misbehaving_fleet(ProcessExecutor, grid) as fleet:
            kind, exc, _, shipped = fleet.executor.run({0: ("foreign_region", ())})[0]
            assert (kind, type(exc), shipped) == ("error", RuntimeError, [])
            assert "Grid other than the fleet's" in str(exc)
            # refused by the worker's end of the seam, which lives on
            assert fleet._run({0: ("expire_due_events", (1,))}) == {0: 0}
        # and a reply means nothing to a reader with no grid of its own
        piped = _ReplySeam(grid).dumps(SafeRegion.whole_space(grid))
        with pytest.raises(pickle.UnpicklingError, match="outside its pipe"):
            pickle.loads(piped)
