"""Tests for simulator extensions: bidirectional links and explicit
ejection channels."""

from dataclasses import replace

import pytest

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.network import TorusWorkload

import vc_state

BASE = SimulationConfig(
    k=8,
    n=2,
    message_length=16,
    rate=1.5e-3,
    hotspot_fraction=0.3,
    warmup_cycles=1_000,
    measure_cycles=25_000,
    seed=21,
)


class TestBidirectional:
    def test_halves_mean_hops(self):
        uni = Simulation(BASE).run()
        bi = Simulation(replace(BASE, bidirectional=True)).run()
        # Unidirectional k=8: ~7 hops mean; bidirectional minimal: ~4.
        assert uni.mean_hops == pytest.approx(7.11, rel=0.05)
        assert bi.mean_hops == pytest.approx(4.06, rel=0.08)

    def test_lowers_latency_at_equal_load(self):
        uni = Simulation(BASE).run()
        bi = Simulation(replace(BASE, bidirectional=True)).run()
        assert bi.mean_latency < uni.mean_latency

    def test_raises_saturation_load(self):
        """Halved hot-path channel load (two directions share the sink
        column) pushes the saturation point up."""
        rate = 2.6e-3  # saturates the unidirectional hot column
        uni = Simulation(
            replace(BASE, rate=rate, measure_cycles=40_000)
        ).run()
        bi = Simulation(
            replace(BASE, rate=rate, bidirectional=True, measure_cycles=40_000)
        ).run()
        assert uni.saturated or uni.mean_latency > 2 * bi.mean_latency
        assert not bi.saturated

    def test_conservation(self):
        w = TorusWorkload(replace(BASE, bidirectional=True))
        w.run()
        c = w.engine.counters
        assert c.generated == c.completed + c.backlog

    def test_no_vc_leak(self):
        w = TorusWorkload(replace(BASE, bidirectional=True, rate=5e-4))
        w.run()
        w._arrivals.clear()
        guard = 0
        while w.engine.messages:
            w.engine.step()
            guard += 1
            assert guard < 50_000
        assert w.engine.counters.completed > 0
        vc_state.assert_drained(w.engine)


class TestEjectionModelling:
    def test_adds_one_hop_latency_at_light_load(self):
        light = replace(BASE, rate=2e-4, measure_cycles=40_000)
        a = Simulation(light).run()
        b = Simulation(replace(light, model_ejection=True)).run()
        # One extra channel on every route: +~1-2 cycles, not more at
        # light load.
        assert b.mean_latency - a.mean_latency == pytest.approx(1.5, abs=1.0)

    def test_hot_ejection_is_bottleneck(self):
        """With a real ejection channel, the hot node's ejection port
        (which carries ALL hot traffic) saturates before the network
        would: measured ejection utilisation tops the network's."""
        cfg = replace(BASE, rate=2.2e-3, model_ejection=True, measure_cycles=40_000)
        w = TorusWorkload(cfg)
        w.run()
        util = w.measured_channel_utilization()
        hot_eject = util[w.ejection_channel_id(0)]
        network_max = util[: w._num_network_channels].max()
        assert hot_eject >= network_max * 0.9

    def test_ejection_channel_id_guarded(self):
        w = TorusWorkload(BASE)
        with pytest.raises(ValueError):
            w.ejection_channel_id(0)

    def test_counters_include_ejection_moves(self):
        cfg = replace(BASE, rate=5e-4, model_ejection=True, measure_cycles=10_000)
        w = TorusWorkload(cfg)
        w.run()
        # Every completed message crossed Lm ejection flits.
        eject_flits = w.engine.channel_flit_counts[w._num_network_channels :].sum()
        assert eject_flits >= w.engine.counters.completed * cfg.message_length
