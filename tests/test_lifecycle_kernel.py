"""The C wormhole lifecycle (``repro_soa_run``) against its oracles.

Deterministic-routing SoA runs keep VC allocation, header/tail handling
and delivery in the C kernel.  Every run here is compared with the
reference engine and with the numpy lifecycle (``REPRO_SOA_KERNEL=
numpy``), which share none of that code: on the paper's Figure-1
configurations near saturation, and on every way a run can end —
backlog exit, completion target, zero load, an idle fast-forward that
jumps over the warm-up edge, the end of the run cutting worms
mid-flight, and the no-progress watchdog — solo and batched.
"""

import dataclasses
import math
import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.figures import get_panel
from repro.experiments.sweep import point_seed
from repro.simulator import BatchedSoAEngine, SimulationConfig
from repro.simulator.kernel import c_kernel_available
from repro.simulator.network import TorusWorkload
from repro.simulator.sim import _workload_result

import vc_state

pytestmark = pytest.mark.skipif(
    not c_kernel_available(), reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def _default_engine(monkeypatch):
    """Default engine and kernel selection, whatever the caller's env."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_SOA_KERNEL", raising=False)


@contextmanager
def _soa_kernel(value):
    old = os.environ.get("REPRO_SOA_KERNEL")
    os.environ["REPRO_SOA_KERNEL"] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_SOA_KERNEL"]
        else:
            os.environ["REPRO_SOA_KERNEL"] = old


def _fields(result):
    """Every SimulationResult field but the config (its engine differs)."""
    return [
        getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "config"
    ]


def _same(a, b) -> bool:
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def assert_same_run(a, b, label):
    """Results, counters and per-channel flits agree bit for bit."""
    fa, fb = _fields(_workload_result(a)), _fields(_workload_result(b))
    assert all(_same(x, y) for x, y in zip(fa, fb)), (label, fa, fb)
    ca, cb = a.engine.counters, b.engine.counters
    assert (ca.generated, ca.completed, ca.flit_moves, ca.cycles_run) == (
        cb.generated, cb.completed, cb.flit_moves, cb.cycles_run
    ), label
    assert np.array_equal(a.engine.channel_flit_counts, b.engine.channel_flit_counts)
    assert a.measured_generated == b.measured_generated, label
    assert a._cycles_at_warmup == b._cycles_at_warmup, label


def run_three(cfg):
    """The same config on the C lifecycle, the numpy lifecycle and the
    reference engine."""
    lifecycle = TorusWorkload(replace(cfg, engine="soa"))
    assert lifecycle.engine.kernel_lifecycle
    lifecycle.run()
    with _soa_kernel("numpy"):
        numpy_run = TorusWorkload(replace(cfg, engine="soa"))
        assert not numpy_run.engine.kernel_lifecycle
        numpy_run.run()
    reference = TorusWorkload(replace(cfg, engine="reference"))
    reference.run()
    assert_same_run(lifecycle, reference, "C lifecycle vs reference")
    assert_same_run(lifecycle, numpy_run, "C lifecycle vs numpy lifecycle")
    return lifecycle


# (panel, grid index): the two highest rates of each Figure-1 panel
# whose simulated latency is finite at 2000 + 6000 cycles under the
# CLI's default seed — the event-dense points nearest saturation.
FIGURE1_POINTS = [
    ("fig1_h20", 6),
    ("fig1_h20", 7),
    ("fig1_h40", 3),
    ("fig1_h40", 4),
    ("fig1_h70", 6),
    ("fig1_h70", 7),
]


def figure1_config(name, index):
    spec = get_panel(name)
    return SimulationConfig(
        k=spec.k,
        n=2,
        num_vcs=spec.num_vcs,
        message_length=spec.message_length,
        rate=float(spec.rates[index]),
        hotspot_fraction=spec.hotspot_fraction,
        warmup_cycles=2_000,
        measure_cycles=6_000,
        seed=point_seed(42, spec.name, index),
    )


class TestFigure1:
    @pytest.mark.parametrize("name,index", FIGURE1_POINTS)
    def test_near_saturation_bit_identical(self, name, index):
        cfg = figure1_config(name, index)
        assert (cfg.k, cfg.message_length) == (16, 32)
        w = run_three(cfg)
        res = _workload_result(w)
        assert not res.saturated and math.isfinite(res.mean_latency)
        assert res.num_completed > 200


BASE = SimulationConfig(
    k=8,
    message_length=16,
    rate=1e-3,
    hotspot_fraction=0.2,
    warmup_cycles=2_000,
    measure_cycles=8_000,
    seed=7,
)


class TestExitPaths:
    def test_backlog_exit(self):
        w = run_three(replace(BASE, rate=0.2, seed=13))
        limit = int(BASE.saturation_backlog_factor * BASE.num_nodes)
        assert w.engine.counters.backlog > limit
        assert w.engine.cycle < BASE.total_cycles

    def test_completion_target(self):
        w = run_three(replace(BASE, target_completions=50, seed=12))
        assert w.all_stats.count == 50
        assert w.engine.cycle < BASE.total_cycles

    def test_zero_rate(self):
        w = run_three(replace(BASE, rate=0.0))
        assert w.engine.counters.cycles_run == 0
        assert w.engine.counters.generated == 0

    def test_idle_fast_forward_over_warmup_edge(self):
        # At a rate this low the network is empty on the cycle right
        # after the first step, which is the warm-up edge; the jump to
        # the next arrival skips it, so the snapshot falls to the end
        # of the run — in every engine.
        w = run_three(replace(BASE, rate=1e-5, warmup_cycles=1, seed=15))
        assert w.engine.counters.cycles_run == BASE.measure_cycles + 1
        assert w._cycles_at_warmup == w.engine.counters.cycles_run

    def test_end_of_run_cuts_worms_mid_flight(self):
        w = run_three(
            replace(
                BASE, message_length=100, rate=2e-3, warmup_cycles=0,
                measure_cycles=700, seed=3,
            )
        )
        assert w.engine.cycle == 700
        assert w.engine.messages
        assert vc_state.held_vcs(w.engine)

    def test_watchdog_fires_on_the_same_cycle(self):
        # With every free-VC stack emptied no message is ever granted a
        # VC: the C lifecycle must jump its stalled cycles yet raise on
        # the very cycle the numpy lifecycle's stepwise watchdog does.
        cfg = replace(BASE, rate=5e-3, warmup_cycles=0, seed=2)
        stalled_at = []
        for kernel in ("c", "numpy"):
            with _soa_kernel(kernel):
                w = TorusWorkload(cfg)
                e = w.engine
                e._watchdog_cycles = 50
                if e.kernel_lifecycle:
                    e._tables["watchdog"] = 50
                    e._tables["free_n"][:] = 0
                    e._pack_ctx()
                else:
                    for pool in e.pools:
                        pool.free_by_class = [[] for _ in pool.free_by_class]
                with pytest.raises(RuntimeError, match="no flit progress"):
                    w.run()
            stalled_at.append(e.cycle)
        assert stalled_at[0] == stalled_at[1] > 50


class TestBatchedExitPaths:
    def test_mixed_exits_in_one_batch_match_solo(self):
        cfgs = [
            replace(BASE, rate=0.2, seed=13),
            replace(BASE, target_completions=50, seed=12),
            replace(BASE, rate=0.0),
            replace(BASE, rate=1e-5, warmup_cycles=1, seed=15),
            replace(BASE, message_length=100, rate=2e-3, warmup_cycles=0,
                    measure_cycles=700, seed=3),
            replace(BASE, seed=8),
        ]
        solo = []
        for cfg in cfgs:
            w = TorusWorkload(cfg)
            w.run()
            solo.append(w)
        batched = [TorusWorkload(cfg) for cfg in cfgs]
        BatchedSoAEngine(batched).run()
        for i, (a, b) in enumerate(zip(solo, batched)):
            assert_same_run(a, b, f"row {i}")


class TestStep:
    def test_step_drains_a_run_like_the_reference(self):
        cfg = replace(BASE, rate=3e-3, measure_cycles=3_000, seed=21)
        drained = []
        for engine in ("soa", "reference"):
            w = TorusWorkload(replace(cfg, engine=engine))
            w.run()
            assert w.engine.messages
            w._arrivals.clear()
            while w.engine.messages:
                w.engine.step()
            vc_state.assert_drained(w.engine)
            drained.append(w)
        assert drained[0].engine.kernel_lifecycle
        assert_same_run(drained[0], drained[1], "drained")

    def test_step_reports_moves(self):
        w = TorusWorkload(replace(BASE, rate=5e-3, seed=4))
        moved = 0
        for _ in range(3_000):
            w._feed_arrivals()
            moved += w.engine.step()
        assert moved == w.engine.counters.flit_moves > 0
        assert w.engine.cycle == w.engine.counters.cycles_run == 3_000
