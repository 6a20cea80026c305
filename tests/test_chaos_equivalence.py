"""Acceptance tests: chaos equivalence and crash-safe resume.

The two end-to-end guarantees of the fault-tolerant sweep stack:

* **Chaos equivalence** — a parallel campaign run under injected worker
  crashes and a hung worker (``REPRO_FAULTS``) produces a *bit-identical*
  ``SweepResult`` to the fault-free run, with the injected failures
  visible in the campaign's checkpoint journal and the engine stats.
* **Resumability** — a campaign interrupted partway through and simply
  re-run with the result store on finds every point finished before the
  interruption in the store (no recomputation) and completes to the
  fault-free result.  The journal is an event log only: its contents
  never feed results.

The fault seeds are *searched*, not guessed: the injection draws are
pure SHA-256 functions of (kind, seed, point seed, attempt), so the test
scans for seeds that place a crash on an early point's first attempt, a
hang on the saturating point's first attempt, and nothing anywhere else
— making the chaos deterministic and the assertions exact.
"""

import json

import pytest

import repro.simulator.sim as sim_mod
from repro.experiments import SweepEngine, point_seed
from repro.faults import ENV_VAR, FaultPlan, FaultSpec
from test_sweep_engine import tiny_panel

PANEL = "tiny"
RATES = (0.002, 0.01, 0.12, 0.18)  # index 2 is the first saturated rate
BASE_SEED = 7
MAX_RETRIES = 3
FAULT_RATE = 0.3
SIM_KWARGS = dict(seed=BASE_SEED, measure_cycles=3_000, warmup_cycles=500)

POINT_SEEDS = [point_seed(BASE_SEED, PANEL, i) for i in range(len(RATES))]


def _find_crash_seed() -> int:
    """A seed that crashes one of the first two points on attempt 0 only.

    Constraints: at least one of points 0/1 draws a crash on its first
    attempt; points 2/3 never crash (a crash while point 2 hangs would
    charge the hang an attempt and rob the test of its timeout); no
    point crashes on a retry attempt, so every retry succeeds and the
    campaign converges to the fault-free result.
    """
    for seed in range(50_000):
        plan = FaultPlan(
            {"crash": FaultSpec(kind="crash", rate=FAULT_RATE, seed=seed)}
        )
        if not any(plan.triggers("crash", POINT_SEEDS[i], 0) for i in (0, 1)):
            continue
        if any(plan.triggers("crash", POINT_SEEDS[i], 0) for i in (2, 3)):
            continue
        if any(
            plan.triggers("crash", s, a)
            for s in POINT_SEEDS
            for a in range(1, MAX_RETRIES + 1)
        ):
            continue
        return seed
    raise AssertionError("no suitable crash seed in range")  # pragma: no cover


def _find_hang_seed() -> int:
    """A seed that hangs exactly point 2 on attempt 0, nothing else."""
    for seed in range(50_000):
        plan = FaultPlan(
            {"hang": FaultSpec(kind="hang", rate=FAULT_RATE, seed=seed)}
        )
        if not plan.triggers("hang", POINT_SEEDS[2], 0):
            continue
        if any(
            plan.triggers("hang", POINT_SEEDS[i], 0) for i in (0, 1, 3)
        ):
            continue
        if any(
            plan.triggers("hang", s, a)
            for s in POINT_SEEDS
            for a in range(1, MAX_RETRIES + 1)
        ):
            continue
        return seed
    raise AssertionError("no suitable hang seed in range")  # pragma: no cover


class TestChaosEquivalence:
    def test_faulted_campaign_bit_identical_to_fault_free(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_panel(PANEL, rates=RATES)
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = SweepEngine(jobs=2, use_cache=False).run_panel(
            spec, **SIM_KWARGS
        )
        assert not reference.simulation.failures

        crash_seed = _find_crash_seed()
        hang_seed = _find_hang_seed()
        monkeypatch.setenv(
            ENV_VAR,
            f"crash:rate={FAULT_RATE},seed={crash_seed};"
            f"hang:rate={FAULT_RATE},seed={hang_seed},secs=30",
        )
        engine = SweepEngine(
            jobs=2,
            use_cache=True,
            cache_dir=tmp_path,
            max_retries=MAX_RETRIES,
            point_timeout=3.0,
            backoff_base=0.001,
        )
        faulted = engine.run_panel(spec, **SIM_KWARGS)

        # Bit-identical to the fault-free run, no terminal failures.
        assert faulted.simulation == reference.simulation
        assert faulted.model == reference.model

        # The chaos actually happened and was survived.
        assert engine.stats.pool_rebuilds >= 1, "no injected crash fired"
        assert engine.stats.timeouts >= 1, "no injected hang was killed"
        assert engine.stats.retries >= 2
        assert engine.stats.failures == 0

        # ... and is recorded in the campaign journal.
        journals = list(engine.journal_dir().glob("*.jsonl"))
        assert len(journals) == 1
        entries = [
            json.loads(line)
            for line in journals[0].read_text().splitlines()
        ]
        retry_kinds = {
            e["kind"] for e in entries if e.get("event") == "retry"
        }
        assert "worker-crash" in retry_kinds
        assert "timeout" in retry_kinds
        done = [
            e
            for e in entries
            if e.get("event") == "point" and e.get("status") == "done"
        ]
        assert {e["index"] for e in done} >= {0, 1, 2}
        assert not any(
            e.get("status") == "failed"
            for e in entries
            if e.get("event") == "point"
        )


class _CountingSim:
    """In-process Simulation wrapper that counts runs and can interrupt."""

    real = None
    calls = 0
    interrupt_at = None  # 1-based call number to interrupt on

    def __init__(self, cfg):
        cls = type(self)
        cls.calls += 1
        if cls.interrupt_at is not None and cls.calls == cls.interrupt_at:
            raise KeyboardInterrupt
        self._inner = cls.real(cfg)

    def run(self):
        return self._inner.run()


class TestResume:
    def test_interrupted_campaign_resumes_without_recompute(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_panel(PANEL, rates=RATES)
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = SweepEngine(jobs=1, use_cache=False).run_panel(
            spec, **SIM_KWARGS
        )
        n_reference = len(reference.simulation.points)  # 3: stops at sat

        _CountingSim.real = sim_mod.Simulation
        _CountingSim.calls = 0
        _CountingSim.interrupt_at = 3  # die while computing point 2
        monkeypatch.setattr(sim_mod, "Simulation", _CountingSim)

        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            engine.run_panel(spec, **SIM_KWARGS)

        journals = list(engine.journal_dir().glob("*.jsonl"))
        assert len(journals) == 1
        entries = [
            json.loads(line)
            for line in journals[0].read_text().splitlines()
        ]
        done = [e for e in entries if e.get("status") == "done"]
        assert {e["index"] for e in done} == {0, 1}

        # Re-run: the store holds points 0 and 1, so only the
        # interrupted point is recomputed.
        _CountingSim.calls = 0
        _CountingSim.interrupt_at = None
        resumed = SweepEngine(jobs=1, cache_dir=tmp_path).run_panel(
            spec, **SIM_KWARGS
        )
        assert _CountingSim.calls == n_reference - 2
        assert resumed.simulation == reference.simulation

        # A third run recomputes nothing at all.
        _CountingSim.calls = 0
        again = SweepEngine(jobs=1, cache_dir=tmp_path).run_panel(
            spec, **SIM_KWARGS
        )
        assert _CountingSim.calls == 0
        assert again.simulation == reference.simulation

    def test_fresh_run_ignores_stale_journal(self, tmp_path, monkeypatch):
        """Journal contents never feed results: forged ``done`` lines
        with wrong latencies and an empty store change nothing."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        spec = tiny_panel(PANEL, rates=RATES)
        reference = SweepEngine(jobs=1, use_cache=False).run_panel(
            spec, **SIM_KWARGS
        )
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        engine.run_panel(spec, **SIM_KWARGS)
        journals = list(engine.journal_dir().glob("*.jsonl"))
        assert len(journals) == 1
        forged = []
        for line in journals[0].read_text().splitlines():
            entry = json.loads(line)
            if entry.get("status") == "done":
                entry["latency"] = 12345.0
                entry["saturated"] = False
            forged.append(json.dumps(entry))
        journals[0].write_text("\n".join(forged) + "\n")
        for entry in tmp_path.glob("*.json"):
            entry.unlink()

        _CountingSim.real = sim_mod.Simulation
        _CountingSim.calls = 0
        _CountingSim.interrupt_at = None
        monkeypatch.setattr(sim_mod, "Simulation", _CountingSim)
        fresh = SweepEngine(jobs=1, cache_dir=tmp_path).run_panel(
            spec, **SIM_KWARGS
        )
        assert _CountingSim.calls == len(reference.simulation.points)
        assert fresh.simulation == reference.simulation
