"""Property-based stress tests of the cycle engine.

Randomised workloads over randomised small networks must preserve the
engine's global invariants: message conservation, complete VC release,
non-negative buffer occupancies bounded by depth, per-channel flit
accounting, and (via the watchdog) deadlock freedom.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.network import TorusWorkload

import vc_state


def drain(workload, guard=200_000):
    workload._arrivals.clear()
    steps = 0
    while workload.engine.messages:
        workload.engine.step()
        steps += 1
        assert steps < guard, "network failed to drain"


@st.composite
def small_configs(draw):
    k = draw(st.integers(3, 6))
    n = draw(st.integers(1, 3))
    routing = draw(st.sampled_from(["deterministic", "adaptive"]))
    num_vcs = draw(st.integers(3 if routing == "adaptive" else 2, 5))
    return SimulationConfig(
        k=k,
        n=n,
        num_vcs=num_vcs,
        buffer_depth=draw(st.integers(1, 4)),
        message_length=draw(st.integers(1, 12)),
        rate=draw(st.floats(1e-4, 8e-3)),
        hotspot_fraction=draw(st.floats(0.0, 0.8)),
        routing=routing,
        model_ejection=draw(st.booleans()),
        warmup_cycles=0,
        measure_cycles=draw(st.integers(1_500, 4_000)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestEngineInvariants:
    @given(cfg=small_configs())
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_release(self, cfg):
        w = TorusWorkload(cfg)
        w.run()
        c = w.engine.counters
        assert c.generated == c.completed + c.backlog
        # Every live message is queued at its source or holds a VC.
        in_flight = set(vc_state.held_vcs(w.engine))
        assert len(in_flight) + vc_state.source_queued(w.engine) == c.backlog
        drain(w)
        # Queued messages live in engine.messages too, so a full drain
        # implies empty source queues and zero backlog.
        assert not w.engine.messages
        assert w.engine.counters.backlog == 0
        vc_state.assert_drained(w.engine)

    @given(cfg=small_configs())
    @settings(max_examples=15, deadline=None)
    def test_flit_accounting(self, cfg):
        w = TorusWorkload(cfg)
        w.run()
        drain(w)
        # Total flit moves = sum over channels of per-channel counts.
        assert w.engine.counters.flit_moves == int(
            w.engine.channel_flit_counts.sum()
        )
        # Every channel carried whole messages: counts divisible checks
        # are not valid per channel (messages interleave), but totals
        # are multiples of message length when everything drained.
        assert w.engine.counters.flit_moves % cfg.message_length == 0

    @given(cfg=small_configs())
    @settings(max_examples=10, deadline=None)
    def test_latencies_bounded_below(self, cfg):
        """Every measured latency >= message length (the tail must
        stream Lm flits through the last channel)."""
        w = TorusWorkload(cfg)
        w.run()
        if w.all_stats.count:
            assert w.all_stats.min >= cfg.message_length
