"""Performance benchmark harness: measure, record and gate throughput.

One timing path with two front-ends: the ``repro bench`` CLI subcommand
and ``benchmarks/test_bench_speed.py`` both run the same standard
configurations through :func:`run_sim_once` / :func:`throughput_stats`,
so the numbers they report are directly comparable.

``repro bench`` writes a ``BENCH_*.json`` report — simulator cycles/sec
and flits/sec, analytical-model solves/sec, the benchmark config hash,
the git revision and library versions — so the performance trajectory
of the repository is recorded PR over PR (committed baselines live in
``benchmarks/results/``).  ``repro bench --check BASELINE`` exits
non-zero when simulator throughput regressed more than
:data:`MAX_SLOWDOWN` versus a recorded baseline; CI runs that gate on
every push with ``--quick``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import HotSpotLatencyModel
from repro.simulator import Simulation, SimulationConfig

__all__ = [
    "MAX_SLOWDOWN",
    "SimRun",
    "bench_model",
    "bench_model_rates",
    "bench_sim_config",
    "build_report",
    "check_regression",
    "config_hash",
    "default_report_name",
    "git_rev",
    "bench_sim_batch_configs",
    "measure_model",
    "measure_model_batch",
    "measure_sim_batch",
    "measure_distributed_sweep",
    "measure_simulator",
    "measure_sweep",
    "run_sim_once",
    "throughput_stats",
    "write_report",
]

#: A check fails when throughput drops below baseline / MAX_SLOWDOWN.
MAX_SLOWDOWN = 2.0

#: Model evaluations per timing round in :func:`measure_model`.
_MODEL_EVALS = 25


def bench_sim_config(
    quick: bool = False, engine: str = "auto"
) -> SimulationConfig:
    """The standard speed-benchmark simulation.

    Moderate hot-spot load on the paper's 16x16 torus — the same
    configuration ``benchmarks/test_bench_speed.py`` times, so CLI
    reports and pytest-benchmark numbers are comparable.  ``quick``
    shrinks the measurement window for CI smoke runs.
    """
    return SimulationConfig(
        k=16,
        message_length=32,
        rate=3e-4,
        hotspot_fraction=0.2,
        warmup_cycles=0,
        measure_cycles=4_000 if quick else 20_000,
        seed=99,
        engine=engine,
    )


def bench_model(kernel: str = "auto") -> HotSpotLatencyModel:
    """The standard model-throughput benchmark instance."""
    return HotSpotLatencyModel(
        k=16, message_length=32, hotspot_fraction=0.4, kernel=kernel
    )


def bench_model_rates() -> "np.ndarray":
    """The standard panel-shaped rate grid of the batched model bench.

    The Figure-1 ``h = 40%`` panel grid of
    :mod:`repro.experiments.figures` — the exact shape a ``repro
    figure`` invocation hands :meth:`HotSpotLatencyModel.sweep`, so the
    ``model_batch`` metric measures real figure-regeneration work.
    """
    from repro.experiments.figures import get_panel

    return np.asarray(get_panel("fig1_h40").rates, dtype=float)


@dataclass(frozen=True)
class SimRun:
    """Work counters of one benchmark simulation run."""

    cycles_run: int
    flit_moves: int
    completed: int
    engine: str
    kernel: str


def run_sim_once(cfg: SimulationConfig) -> SimRun:
    """Run one simulation and return its work counters."""
    sim = Simulation(cfg)
    result = sim.run()
    engine = sim.workload.engine
    return SimRun(
        cycles_run=result.cycles_run,
        flit_moves=engine.counters.flit_moves,
        completed=result.num_completed,
        engine=sim.workload.engine_kind,
        kernel=getattr(engine, "kernel_name", "python"),
    )


def throughput_stats(run: SimRun, seconds: float) -> Dict[str, float]:
    """Throughput numbers for one timed run (shared by all front-ends)."""
    return {
        "cycles_per_sec": run.cycles_run / seconds,
        "flits_per_sec": run.flit_moves / seconds,
    }


def measure_simulator(
    cfg: Optional[SimulationConfig] = None,
    *,
    rounds: int = 3,
    quick: bool = False,
    engine: str = "auto",
) -> Dict[str, object]:
    """Best-of-``rounds`` simulator throughput on the benchmark config."""
    if cfg is None:
        cfg = bench_sim_config(quick=quick, engine=engine)
    best = float("inf")
    run: Optional[SimRun] = None
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        run = run_sim_once(cfg)
        best = min(best, time.perf_counter() - t0)
    assert run is not None
    return {
        "seconds": best,
        "cycles_run": run.cycles_run,
        "flit_moves": run.flit_moves,
        "completed": run.completed,
        "engine": run.engine,
        "kernel": run.kernel,
        **throughput_stats(run, best),
    }


def measure_model(*, rounds: int = 3, kernel: str = "auto") -> Dict[str, object]:
    """Best-of-``rounds`` analytical-model evaluation throughput.

    Times *independent single-rate solves* — the cost every
    ``saturation_rate`` probe and every cold evaluation pays; the
    batched figure-panel path is measured by :func:`measure_model_batch`.
    """
    model = bench_model(kernel)
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        for _ in range(_MODEL_EVALS):
            result = model.evaluate(2e-4)
        best = min(best, time.perf_counter() - t0)
    assert result.finite
    return {
        "solves_per_sec": _MODEL_EVALS / best,
        "seconds": best,
        "kernel": model.kernel,
    }


def measure_model_batch(*, rounds: int = 3, kernel: str = "auto") -> Dict[str, object]:
    """Best-of-``rounds`` throughput of a panel-shaped batched sweep.

    One :meth:`HotSpotLatencyModel.sweep` over the standard panel grid
    (:func:`bench_model_rates`) per timing round — with the vector
    kernel the whole grid is a single batched fixed-point solve with
    warm-start chaining, so this is the figure-regeneration metric.
    """
    model = bench_model(kernel)
    rates = bench_model_rates()
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        sweep = model.sweep(rates)
        best = min(best, time.perf_counter() - t0)
    assert len(sweep.points) == len(rates)
    return {
        "points_per_sec": len(rates) / best,
        "points": int(len(rates)),
        "seconds": best,
        "kernel": model.kernel,
    }


def bench_sim_batch_configs(
    quick: bool = False, batch: int = 8
) -> List[SimulationConfig]:
    """The standard batched-simulation benchmark: ``batch`` same-shape runs.

    Long messages at light load on the paper's 16x16 torus — the
    event-sparse regime, where the lifecycle kernel advances many cycles
    per call and a batch shares each call among its rows.  The configs differ only in seed, like the
    same sweep point re-run across a seed panel.
    """
    from dataclasses import replace

    base = SimulationConfig(
        k=16,
        message_length=256,
        rate=2e-5,
        hotspot_fraction=0.2,
        warmup_cycles=1_000,
        measure_cycles=4_000 if quick else 20_000,
        seed=100,
    )
    return [replace(base, seed=100 + i) for i in range(batch)]


def measure_sim_batch(
    *, rounds: int = 3, quick: bool = False, batch: int = 8
) -> Dict[str, object]:
    """Aggregate throughput of ``batch`` networks: sequential vs batched.

    Times the same ``batch`` same-shape simulations twice per round —
    one :class:`Simulation` after another, then one
    :class:`~repro.simulator.BatchedSoAEngine` advancing every network
    per kernel call — and reports best-of-``rounds`` seconds for each
    side, the aggregate cycles/sec speedup, and whether the batched
    results stayed bit-identical to the solo runs.
    """
    from repro.simulator.batch import BatchedSoAEngine
    from repro.simulator.network import TorusWorkload
    from repro.simulator.sim import _workload_result

    cfgs = bench_sim_batch_configs(quick=quick, batch=batch)
    # Warm the kernel cache so neither side pays the one-off compile.
    Simulation(
        bench_sim_config(quick=True)
    ).run()
    best_seq = float("inf")
    best_batch = float("inf")
    solo_results = batch_results = None
    kernel = "python"
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        solo_results = [Simulation(c).run() for c in cfgs]
        best_seq = min(best_seq, time.perf_counter() - t0)
        workloads = [TorusWorkload(c) for c in cfgs]
        engine = BatchedSoAEngine(workloads)
        t0 = time.perf_counter()
        engine.run()
        best_batch = min(best_batch, time.perf_counter() - t0)
        batch_results = [_workload_result(w) for w in workloads]
        kernel = engine.kernel_name
    assert solo_results is not None and batch_results is not None
    cycles = sum(r.cycles_run for r in solo_results)
    return {
        "batch": int(len(cfgs)),
        "cycles_run": int(cycles),
        "seconds_sequential": best_seq,
        "seconds_batched": best_batch,
        "cycles_per_sec_sequential": cycles / best_seq,
        "cycles_per_sec_batched": cycles / best_batch,
        "speedup": best_seq / best_batch,
        "bit_identical": bool(
            all(s == b for s, b in zip(solo_results, batch_results))
        ),
        "kernel": kernel,
    }


def measure_sweep(*, jobs: int = 2, backend: object = None) -> Dict[str, object]:
    """End-to-end throughput of a small parallel sweep campaign.

    Runs a tiny uncached panel through the resilient sweep engine
    (``jobs`` pool workers, short measurement window) and reports
    points/sec plus the engine's resilience counters — retries, timeouts,
    pool rebuilds and terminally failed points — so a campaign that only
    succeeded by retrying shows up in the BENCH report rather than
    passing silently.  ``backend`` overrides the execution substrate
    (see :func:`measure_distributed_sweep`).
    """
    from repro.experiments.figures import PanelSpec
    from repro.experiments.sweep import SweepEngine

    spec = PanelSpec(
        figure=1,
        name="bench_sweep",
        k=4,
        message_length=8,
        hotspot_fraction=0.2,
        rates=(0.002, 0.01, 0.02),
        paper_axis_max_rate=0.02,
        paper_axis_max_latency=200.0,
    )
    engine = SweepEngine(jobs=jobs, use_cache=False, backend=backend)
    t0 = time.perf_counter()
    sweep = engine.simulation_sweep(spec, measure_cycles=2_000)
    seconds = time.perf_counter() - t0
    points = len(sweep.points)
    return {
        "points": points,
        "points_per_sec": points / seconds if seconds > 0 else 0.0,
        "seconds": seconds,
        "jobs": jobs,
        "backend": engine.backend.name,
        "failed_points": len(sweep.failures),
        **engine.stats.as_dict(),
    }


def measure_distributed_sweep(*, workers: int = 2) -> Dict[str, object]:
    """The :func:`measure_sweep` campaign on the file-queue backend.

    Spawns ``workers`` real ``repro worker`` subprocesses cooperating
    through a throwaway campaign directory, so the BENCH report captures
    the lease/heartbeat protocol overhead next to the local-pool number
    — the two sections are directly comparable (same panel, same
    window).
    """
    import tempfile

    from repro.backends import FileQueueBackend

    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        backend = FileQueueBackend(
            tmp,
            spawn_workers=workers,
            lease_timeout=30.0,
            heartbeat_timeout=10.0,
            poll_interval=0.05,
            worker_poll_interval=0.05,
            worker_heartbeat_interval=1.0,
            speculate_factor=None,
        )
        section = measure_sweep(jobs=1, backend=backend)
    section["workers"] = workers
    return section


def config_hash(cfg: SimulationConfig) -> str:
    """Stable short hash of a simulation config (cache-key compatible)."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_report(
    *, quick: bool = False, rounds: int = 3, engine: str = "auto"
) -> Dict[str, object]:
    """Measure everything and assemble one ``BENCH_*.json`` payload."""
    cfg = bench_sim_config(quick=quick, engine=engine)
    return {
        "schema": 1,
        "kind": "repro-bench",
        "quick": quick,
        "rounds": rounds,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_rev(),
        "config_hash": config_hash(cfg),
        "simulator": measure_simulator(cfg, rounds=rounds),
        "model": measure_model(rounds=rounds),
        "model_batch": measure_model_batch(rounds=rounds),
        "sim_batch": measure_sim_batch(rounds=rounds, quick=quick),
        "resilience": measure_sweep(),
        # Worker subprocess startup dominates in the quick (CI smoke)
        # window, so the distributed section is full-report only.
        "distributed": None if quick else measure_distributed_sweep(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def default_report_name(report: Dict[str, object]) -> str:
    stamp = str(report["timestamp"]).replace(":", "").replace("-", "")
    stamp = stamp.split("+")[0]
    return f"BENCH_{report['git_rev']}_{stamp}.json"


def write_report(report: Dict[str, object], path: "Path | str") -> Path:
    path = Path(path)
    if path.is_dir():
        path = path / default_report_name(report)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(
    report: Dict[str, object],
    baseline: Dict[str, object],
    max_slowdown: float = MAX_SLOWDOWN,
) -> List[str]:
    """Failure messages when ``report`` regressed vs ``baseline``.

    Gates on the two throughput metrics this repository's perf work
    targets — simulator cycles/sec and analytical-model solves/sec: a
    drop below ``baseline / max_slowdown`` on either fails.  Engine,
    model-kernel or quick-mode mismatches are flagged as incomparable
    rather than silently passed.  Returns an empty list when the report
    is acceptable.
    """
    failures: List[str] = []
    try:
        new = float(report["simulator"]["cycles_per_sec"])  # type: ignore[index]
        old = float(baseline["simulator"]["cycles_per_sec"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError):
        return ["baseline or report is missing simulator.cycles_per_sec"]
    if bool(report.get("quick")) != bool(baseline.get("quick")):
        failures.append(
            "quick-mode mismatch between report and baseline "
            f"(report quick={report.get('quick')}, "
            f"baseline quick={baseline.get('quick')}): numbers are not "
            "comparable"
        )
    new_engine = report["simulator"].get("engine")  # type: ignore[index]
    old_engine = baseline["simulator"].get("engine")  # type: ignore[index]
    if new_engine != old_engine:
        failures.append(
            f"engine mismatch between report ({new_engine}) and baseline "
            f"({old_engine}): numbers are not comparable"
        )
    if new * max_slowdown < old:
        failures.append(
            f"simulator throughput regressed >{max_slowdown:g}x: "
            f"{new:,.0f} cycles/s vs baseline {old:,.0f} cycles/s "
            f"(baseline rev {baseline.get('git_rev', '?')})"
        )
    try:
        new_m = float(report["model"]["solves_per_sec"])  # type: ignore[index]
        old_m = float(baseline["model"]["solves_per_sec"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError):
        failures.append("baseline or report is missing model.solves_per_sec")
        return failures
    new_kernel = report["model"].get("kernel")  # type: ignore[index]
    old_kernel = baseline["model"].get("kernel")  # type: ignore[index]
    # Pre-kernel baselines (no "kernel" field) timed the only (scalar)
    # implementation there was; only flag a mismatch when both sides
    # declare a kernel.
    if new_kernel is not None and old_kernel is not None and new_kernel != old_kernel:
        failures.append(
            f"model-kernel mismatch between report ({new_kernel}) and "
            f"baseline ({old_kernel}): numbers are not comparable"
        )
    if new_m * max_slowdown < old_m:
        failures.append(
            f"model throughput regressed >{max_slowdown:g}x: "
            f"{new_m:,.1f} solves/s vs baseline {old_m:,.1f} solves/s "
            f"(baseline rev {baseline.get('git_rev', '?')})"
        )
    # The batched-panel metric gates too, where both sides record it
    # (pre-batch baselines lack the section; the gates above still
    # apply against them).
    try:
        new_b = float(report["model_batch"]["points_per_sec"])  # type: ignore[index]
        old_b = float(baseline["model_batch"]["points_per_sec"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError):
        new_b = old_b = None
    if new_b is not None and old_b is not None and new_b * max_slowdown < old_b:
        failures.append(
            f"batched model throughput regressed >{max_slowdown:g}x: "
            f"{new_b:,.1f} points/s vs baseline {old_b:,.1f} points/s "
            f"(baseline rev {baseline.get('git_rev', '?')})"
        )
    # Same treatment for the batched-simulator metric (pre-batch
    # baselines lack the section): gate aggregate batched cycles/sec,
    # and fail outright if batched results stopped matching solo runs.
    sim_batch = report.get("sim_batch")
    if isinstance(sim_batch, dict) and not sim_batch.get("bit_identical", True):
        failures.append(
            "batched simulation results are no longer bit-identical to "
            "sequential runs"
        )
    try:
        new_s = float(report["sim_batch"]["cycles_per_sec_batched"])  # type: ignore[index]
        old_s = float(baseline["sim_batch"]["cycles_per_sec_batched"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError):
        return failures
    if new_s * max_slowdown < old_s:
        failures.append(
            f"batched simulator throughput regressed >{max_slowdown:g}x: "
            f"{new_s:,.0f} cycles/s vs baseline {old_s:,.0f} cycles/s "
            f"(baseline rev {baseline.get('git_rev', '?')})"
        )
    return failures
