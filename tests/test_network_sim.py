"""End-to-end tests of the flit-level simulation (TorusWorkload/Simulation)."""

import math
from dataclasses import replace

import pytest

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.network import TorusWorkload
from repro.traffic.patterns import TransposePattern

import vc_state


BASE = SimulationConfig(
    k=4,
    n=2,
    message_length=8,
    rate=2e-3,
    hotspot_fraction=0.0,
    warmup_cycles=1_000,
    measure_cycles=15_000,
    seed=11,
)


class TestConservation:
    def test_messages_conserved(self):
        w = TorusWorkload(BASE)
        w.run()
        c = w.engine.counters
        assert c.completed > 0
        assert c.generated == c.completed + c.backlog
        assert c.backlog == len(w.engine.messages)
        # Each live message waits at its source or holds a VC.
        in_flight = set(vc_state.held_vcs(w.engine))
        assert in_flight <= set(w.engine.messages)
        assert len(in_flight) + vc_state.source_queued(w.engine) == c.backlog

    def test_flit_moves_equal_length_times_hops(self):
        """Every completed message moved exactly length*hops flits, so
        total moves >= completed contribution (in-flight residue aside)."""
        w = TorusWorkload(BASE)
        w.run()
        # Drain what's left by running with arrivals exhausted.
        # (Simply bound-check: moves per completion between min and max
        # possible.)
        lm = BASE.message_length
        min_hops, max_hops = 1, 2 * (BASE.k - 1)
        c = w.engine.counters
        assert c.flit_moves >= c.completed * lm * min_hops
        assert c.flit_moves <= c.generated * lm * max_hops

    def test_no_vc_leak_after_drain(self):
        cfg = replace(BASE, rate=5e-4, measure_cycles=5_000)
        w = TorusWorkload(cfg)
        w.run()
        # Run on without new arrivals until in-flight messages drain.
        w._arrivals.clear()
        guard = 0
        while w.engine.messages:
            w.engine.step()
            guard += 1
            assert guard < 50_000
        assert w.engine.counters.completed > 0
        vc_state.assert_drained(w.engine)


class TestStatisticsSanity:
    def test_mean_hops_matches_uniform_expectation(self):
        res = Simulation(BASE).run()
        # Uniform over N-1 destinations: E[hops] = n*(k-1)/2 * N/(N-1).
        n_nodes = BASE.num_nodes
        expected = 2 * (BASE.k - 1) / 2 * n_nodes / (n_nodes - 1)
        assert res.mean_hops == pytest.approx(expected, rel=0.05)

    def test_zero_load_latency(self):
        cfg = replace(BASE, rate=5e-5, measure_cycles=200_000, warmup_cycles=0)
        res = Simulation(cfg).run()
        # Nearly contention-free: latency ~ Lm + hops - 1.
        expected = BASE.message_length + res.mean_hops - 1
        assert res.mean_latency == pytest.approx(expected, rel=0.08)

    def test_channel_utilization_matches_rate_equation(self):
        """Measured per-channel flit utilisation must equal
        lam * k-bar * Lm * N/(N-1) under uniform traffic."""
        cfg = replace(BASE, rate=4e-3, measure_cycles=40_000)
        w = TorusWorkload(cfg)
        w.run()
        util = w.measured_channel_utilization()
        n_nodes = cfg.num_nodes
        expected = (
            cfg.rate * (cfg.k - 1) / 2 * cfg.message_length * n_nodes / (n_nodes - 1)
        )
        assert util.mean() == pytest.approx(expected, rel=0.1)

    def test_determinism(self):
        a = Simulation(BASE).run()
        b = Simulation(BASE).run()
        assert a.mean_latency == b.mean_latency
        assert a.num_completed == b.num_completed

    def test_seed_changes_stream(self):
        a = Simulation(BASE).run()
        b = Simulation(replace(BASE, seed=12)).run()
        assert a.mean_latency != b.mean_latency

    def test_zero_rate(self):
        res = Simulation(replace(BASE, rate=0.0)).run()
        assert res.num_completed == 0
        assert math.isnan(res.mean_latency)
        assert not res.saturated


class TestHotSpotWorkload:
    def test_hot_message_share(self):
        cfg = replace(BASE, hotspot_fraction=0.5, rate=1e-3)
        w = TorusWorkload(cfg)
        w.run()
        total = w.all_stats.count
        hot = w.hot_stats.count
        # Destination-based classification: h + (1-h)/(N-1).
        expected = 0.5 + 0.5 / (cfg.num_nodes - 1)
        assert hot / total == pytest.approx(expected, abs=0.05)

    def test_hot_messages_slower(self):
        cfg = replace(
            BASE, hotspot_fraction=0.4, rate=2.5e-3, measure_cycles=40_000
        )
        w = TorusWorkload(cfg)
        w.run()
        assert w.hot_stats.mean > w.regular_stats.mean

    def test_hot_sink_is_hottest_channel(self):
        cfg = replace(
            BASE, hotspot_fraction=0.6, rate=2e-3, measure_cycles=40_000
        )
        sim = Simulation(cfg)
        res = sim.run()
        assert res.hot_sink_utilization == pytest.approx(
            res.max_channel_utilization, rel=0.15
        )

    def test_custom_hot_node(self):
        cfg = replace(BASE, hotspot_fraction=0.5, hotspot_node=(2, 3))
        w = TorusWorkload(cfg)
        assert w.pattern.hotspot_rank == w.network.rank((2, 3))
        w.run()
        assert w.hot_stats.count > 0


class TestSaturationDetection:
    def test_overload_flags_saturated(self):
        # Way past the bandwidth bound: k=4, Lm=8 uniform saturates
        # around lam ~ 1/((k-1)/2*Lm) ~ 0.083.
        cfg = replace(BASE, rate=0.2, measure_cycles=30_000, warmup_cycles=500)
        res = Simulation(cfg).run()
        assert res.saturated

    def test_moderate_load_not_saturated(self):
        res = Simulation(BASE).run()
        assert not res.saturated

    def test_hotspot_saturates_earlier_than_uniform(self):
        rate = 0.02  # below uniform saturation, above hot-spot one
        uni = Simulation(replace(BASE, rate=rate, measure_cycles=30_000)).run()
        hot = Simulation(
            replace(
                BASE, rate=rate, hotspot_fraction=0.5, measure_cycles=30_000
            )
        ).run()
        assert not uni.saturated
        assert hot.saturated


class TestCustomPattern:
    def test_transpose_pattern_runs(self):
        w = TorusWorkload(BASE, pattern=TransposePattern(TorusWorkload(BASE).network))
        w.run()
        assert w.all_stats.count > 0
        # No hot classification under a non-hot-spot pattern.
        assert w.hot_stats.count == 0
