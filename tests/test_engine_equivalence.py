"""Cross-engine equivalence: SoA engine vs reference engine.

The structure-of-arrays engine is only allowed to be *faster* than the
reference engine, never different: delivered-message streams (ids,
completion cycles, generation times), aggregate counters and
per-channel flit counts must agree bit for bit on every configuration —
deterministic and adaptive routing, uniform and hot-spot traffic, with
and without ejection modelling, for both the C and the numpy kernel.

A hypothesis property sweeps random small configurations; pinned
example cases keep the matrix covered even on --hypothesis-seed reruns.
"""

import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    CycleEngine,
    Simulation,
    SimulationConfig,
    SoACycleEngine,
    resolve_engine_kind,
)
from repro.simulator.kernel import c_kernel_available
from repro.simulator.network import TorusWorkload
from repro.simulator.soa import resolve_soa_kernel

import vc_state


@contextmanager
def _env(name, value):
    old = os.environ.get(name)
    try:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def run_traced(cfg: SimulationConfig, engine: str, kernel: str = "auto"):
    """Run a workload and capture everything that must match."""
    with _env("REPRO_SOA_KERNEL", kernel):
        w = TorusWorkload(replace(cfg, engine=engine))
        deliveries = []
        original = w.engine.on_delivery

        def hook(msg, cycle):
            deliveries.append((msg.msg_id, cycle, msg.generated_at, msg.is_hot))
            original(msg, cycle)

        w.engine.on_delivery = hook
        w.run()
    c = w.engine.counters
    return {
        "deliveries": deliveries,
        "counters": (c.generated, c.completed, c.flit_moves, c.cycles_run),
        "channel_flits": w.engine.channel_flit_counts.copy(),
        "mean": w.all_stats.mean,
        "count": w.all_stats.count,
    }


def assert_identical(ref, soa, label):
    assert ref["counters"] == soa["counters"], label
    assert ref["deliveries"] == soa["deliveries"], label
    assert np.array_equal(ref["channel_flits"], soa["channel_flits"]), label
    assert ref["count"] == soa["count"], label
    if ref["count"]:
        assert ref["mean"] == soa["mean"], label


def available_kernels():
    kernels = ["numpy"]
    if c_kernel_available():
        kernels.append("c")
    return kernels


@st.composite
def equivalence_configs(draw):
    routing = draw(st.sampled_from(["deterministic", "adaptive"]))
    return SimulationConfig(
        k=draw(st.integers(2, 5)),
        n=draw(st.integers(1, 2)),
        routing=routing,
        num_vcs=draw(st.integers(3 if routing == "adaptive" else 2, 5)),
        buffer_depth=draw(st.integers(1, 4)),
        message_length=draw(st.integers(1, 10)),
        rate=draw(st.floats(2e-4, 8e-3, allow_nan=False)),
        hotspot_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
        model_ejection=draw(st.booleans()),
        warmup_cycles=draw(st.sampled_from([0, 250])),
        measure_cycles=draw(st.integers(800, 2_000)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestEquivalenceProperty:
    @given(cfg=equivalence_configs())
    @settings(max_examples=20, deadline=None)
    def test_soa_matches_reference(self, cfg):
        ref = run_traced(cfg, "reference")
        for kernel in available_kernels():
            soa = run_traced(cfg, "soa", kernel)
            assert_identical(ref, soa, f"kernel={kernel} cfg={cfg}")


PINNED_CASES = [
    # (k, n, routing, vcs, depth, lm, h, ejection, rate)
    (4, 2, "deterministic", 2, 4, 8, 0.0, False, 2e-3),
    (4, 2, "deterministic", 2, 1, 8, 0.3, False, 3e-3),
    (3, 3, "deterministic", 3, 2, 5, 0.5, True, 2e-3),
    (5, 2, "deterministic", 4, 3, 1, 0.2, False, 1e-3),
    (4, 2, "adaptive", 3, 2, 8, 0.3, False, 3e-3),
    (4, 2, "adaptive", 4, 3, 6, 0.0, True, 2e-3),
    (6, 2, "adaptive", 3, 1, 10, 0.6, False, 2e-3),
    (2, 4, "deterministic", 2, 2, 4, 0.1, False, 4e-3),
]


class TestEquivalencePinned:
    @pytest.mark.parametrize(
        "k,n,routing,vcs,depth,lm,h,ejection,rate", PINNED_CASES
    )
    def test_pinned_case(self, k, n, routing, vcs, depth, lm, h, ejection, rate):
        cfg = SimulationConfig(
            k=k,
            n=n,
            routing=routing,
            num_vcs=vcs,
            buffer_depth=depth,
            message_length=lm,
            rate=rate,
            hotspot_fraction=h,
            model_ejection=ejection,
            warmup_cycles=200,
            measure_cycles=3_000,
            seed=k * 100 + vcs,
        )
        ref = run_traced(cfg, "reference")
        for kernel in available_kernels():
            soa = run_traced(cfg, "soa", kernel)
            assert_identical(ref, soa, f"kernel={kernel}")

    def test_bidirectional_case(self):
        cfg = SimulationConfig(
            k=4,
            n=2,
            bidirectional=True,
            num_vcs=5,
            message_length=12,
            rate=2e-3,
            warmup_cycles=0,
            measure_cycles=3_000,
            seed=23,
        )
        ref = run_traced(cfg, "reference")
        for kernel in available_kernels():
            assert_identical(ref, run_traced(cfg, "soa", kernel), kernel)

    def test_kernels_agree_with_each_other(self):
        if not c_kernel_available():
            pytest.skip("no C compiler available")
        cfg = SimulationConfig(
            k=4, message_length=8, rate=2e-3, hotspot_fraction=0.2,
            warmup_cycles=0, measure_cycles=4_000, seed=3,
        )
        a = run_traced(cfg, "soa", "c")
        b = run_traced(cfg, "soa", "numpy")
        assert_identical(a, b, "c vs numpy")


class TestEngineSelection:
    BASE = SimulationConfig(
        k=4, message_length=4, rate=1e-3, warmup_cycles=0,
        measure_cycles=500, seed=1,
    )

    def test_default_is_soa(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        w = TorusWorkload(self.BASE)
        assert isinstance(w.engine, SoACycleEngine)
        assert w.engine_kind == "soa"

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        w = TorusWorkload(self.BASE)
        assert type(w.engine) is CycleEngine
        assert w.engine_kind == "reference"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        w = TorusWorkload(replace(self.BASE, engine="soa"))
        assert isinstance(w.engine, SoACycleEngine)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine_kind("auto")

    def test_bad_config_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            replace(self.BASE, engine="turbo")

    def test_bad_kernel_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_KERNEL", "fortran")
        with pytest.raises(ValueError, match="REPRO_SOA_KERNEL"):
            resolve_soa_kernel()

    def test_engine_argument_normalized(self, monkeypatch):
        # Case- and whitespace-insensitive, empty means auto — the same
        # normalisation $REPRO_ENGINE gets.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine_kind("  SoA ") == "soa"
        assert resolve_engine_kind("REFERENCE") == "reference"
        assert resolve_engine_kind("") == "soa"
        assert resolve_engine_kind(" Auto\t") == "soa"

    def test_engine_env_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "  Reference ")
        assert resolve_engine_kind("auto") == "reference"
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine_kind("auto") == "soa"

    def test_bad_engine_argument_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError, match="turbo"):
            resolve_engine_kind("turbo")

    def test_kernel_argument_normalized(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOA_KERNEL", raising=False)
        assert resolve_soa_kernel(" NumPy ") == "numpy"
        assert resolve_soa_kernel("") in ("c", "numpy")  # empty == auto

    def test_kernel_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_KERNEL", "c")
        assert resolve_soa_kernel("numpy") == "numpy"

    def test_bad_kernel_argument_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOA_KERNEL", raising=False)
        with pytest.raises(ValueError, match="fortran"):
            resolve_soa_kernel("fortran")

    def test_simulation_result_identical_across_engines(self):
        ref = Simulation(replace(self.BASE, engine="reference")).run()
        soa = Simulation(replace(self.BASE, engine="soa")).run()
        assert ref.mean_latency == soa.mean_latency
        assert ref.num_completed == soa.num_completed
        assert ref.cycles_run == soa.cycles_run
        assert ref.max_channel_utilization == soa.max_channel_utilization


class TestSoAInternals:
    """The SoA engine keeps the reference engine's public invariants."""

    def test_pools_drain_clean(self, monkeypatch):
        # Stepped by hand, so step() is the path under test; VCs are
        # read from the kernel's holder slots and free stacks when the
        # lifecycle runs in C, from the pools otherwise.
        monkeypatch.delenv("REPRO_SOA_KERNEL", raising=False)
        cfg = SimulationConfig(
            k=4, message_length=6, rate=2e-3, hotspot_fraction=0.3,
            warmup_cycles=0, measure_cycles=3_000, seed=9, engine="soa",
        )
        w = TorusWorkload(cfg)
        assert vc_state.in_kernel(w.engine) == c_kernel_available()
        most_held = 0
        while w.engine.cycle < 3_000:
            w._feed_arrivals()
            w.engine.step()
            most_held = max(most_held, len(vc_state.held_vcs(w.engine)))
        assert most_held > 0
        w._arrivals.clear()
        guard = 0
        while w.engine.messages:
            w.engine.step()
            guard += 1
            assert guard < 100_000
        assert w.engine.counters.completed == w.engine.counters.generated > 0
        vc_state.assert_drained(w.engine)
        assert not np.any(w.engine._busy_cnt)
        assert not np.any(w.engine._avail[: w.engine._n_slots])

    def test_conservation(self):
        cfg = SimulationConfig(
            k=4, message_length=8, rate=2e-3, warmup_cycles=0,
            measure_cycles=4_000, seed=2, engine="soa",
        )
        w = TorusWorkload(cfg)
        w.run()
        c = w.engine.counters
        assert c.generated == c.completed + c.backlog
        assert c.flit_moves == int(w.engine.channel_flit_counts.sum())
