"""The unified network configuration surface: NetworkConfig/ClientConfig.

Covers the configuration contract of the connection front-end
(DESIGN.md §17):

* :class:`NetworkConfig` — frozen, validated, copy-with-changes, one
  derived ``hard_cap``;
* :class:`ClientConfig` + :class:`ReconnectPolicy` — the shared client
  surface for :class:`ElapsNetworkClient` and
  :class:`ResilientElapsClient`;
* neither the TCP server nor the resilient client takes per-knob
  keyword arguments: anything but ``config=`` is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.system import (
    ClientConfig,
    ElapsServer,
    ElapsTCPServer,
    NetworkConfig,
    ReconnectPolicy,
    ResilientElapsClient,
    ServerConfig,
)

SPACE = Rect(0, 0, 10_000, 10_000)


def make_core() -> ElapsServer:
    return ElapsServer(Grid(40, SPACE), IGM(max_cells=400), ServerConfig())


def make_sub(sub_id=1):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=1_500.0,
    )


# ----------------------------------------------------------------------
# NetworkConfig
# ----------------------------------------------------------------------
class TestNetworkConfig:
    def test_frozen(self):
        config = NetworkConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.send_queue = 5

    def test_with_copies_and_overrides(self):
        config = NetworkConfig(send_queue=64)
        derived = config.with_(read_timeout=1.0)
        assert derived.read_timeout == 1.0
        assert derived.send_queue == 64
        assert config.read_timeout == 30.0  # original untouched

    def test_hard_cap_defaults_to_twice_soft(self):
        assert NetworkConfig(send_queue=100).hard_cap == 200
        assert NetworkConfig(send_queue=100, send_queue_hard=150).hard_cap == 150

    @pytest.mark.parametrize("bad", [
        {"read_timeout": -1.0},
        {"write_timeout": -0.5},
        {"ingress_queue": 0},
        {"send_queue": 0},
        {"send_queue": 10, "send_queue_hard": 9},
        {"slow_consumer_grace": -0.1},
        {"max_connections": 0},
        {"write_buffer_limit": 0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            NetworkConfig(**bad)

    def test_none_disables_timeouts(self):
        config = NetworkConfig(read_timeout=None, write_timeout=None)
        assert config.read_timeout is None
        assert config.write_timeout is None


# ----------------------------------------------------------------------
# ClientConfig / ReconnectPolicy
# ----------------------------------------------------------------------
class TestClientConfig:
    def test_effective_read_timeout_defaults_to_heartbeat_multiple(self):
        config = ClientConfig(heartbeat_interval=0.5)
        assert config.effective_read_timeout == pytest.approx(2.0)
        explicit = ClientConfig(heartbeat_interval=0.5, read_timeout=9.0)
        assert explicit.effective_read_timeout == 9.0

    def test_with_copies_and_overrides(self):
        config = ClientConfig(heartbeat_interval=0.25)
        derived = config.with_(receive_timeout=1.0)
        assert derived.heartbeat_interval == 0.25
        assert derived.receive_timeout == 1.0

    @pytest.mark.parametrize("bad", [
        {"heartbeat_interval": 0},
        {"read_timeout": 0},
        {"receive_timeout": 0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            ClientConfig(**bad)

    def test_reconnect_policy_delay_bounds(self):
        policy = ReconnectPolicy(base_delay=0.1, max_delay=1.0,
                                 multiplier=2.0, jitter=0.5)

        class FixedRng:
            def random(self):
                return 1.0  # worst-case jitter draw

        for attempt in range(10):
            delay = policy.delay_for(attempt, FixedRng())
            assert 0 < delay <= 1.0 * 1.5  # max_delay * (1 + jitter)

    def test_reconnect_policy_validation(self):
        with pytest.raises(ValueError):
            ReconnectPolicy(base_delay=0)
        with pytest.raises(ValueError):
            ReconnectPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            ReconnectPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            ReconnectPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# Config is the only knob path
# ----------------------------------------------------------------------
class TestServerShims:
    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="nonsense"):
            ElapsTCPServer(make_core(), nonsense=1)
        # a NetworkConfig field is not a constructor keyword either
        with pytest.raises(TypeError, match="read_timeout"):
            ElapsTCPServer(make_core(), read_timeout=1.5)

    def test_config_form_does_not_warn(self, recwarn):
        tcp = ElapsTCPServer(make_core(), config=NetworkConfig(read_timeout=1.0))
        assert tcp.config.read_timeout == 1.0
        assert not recwarn.list


class TestClientShims:
    def _client(self, **kwargs):
        return ResilientElapsClient(
            "127.0.0.1", 1, make_sub(), Point(5_000, 5_000), **kwargs
        )

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="nonsense"):
            self._client(nonsense=1)
        # a ClientConfig field is not a constructor keyword either
        with pytest.raises(TypeError, match="heartbeat_interval"):
            self._client(heartbeat_interval=0.2)

    def test_config_form_does_not_warn(self, recwarn):
        client = self._client(config=ClientConfig(heartbeat_interval=0.2))
        assert client.heartbeat_interval == 0.2
        assert not recwarn.list
