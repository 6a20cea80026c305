"""The four benchmark workloads: inputs from a seed, one job, its outputs.

Every workload is a closed loop with one client: the benchmark submits
the workload's fixed job through the public API, waits for it, and
submits the next.  Inputs are generated here from the ``--seed``
argument; the program only ever sees the generated panels, configs and
design points.

``fig1-solo``
    ``repro figure 1 --simulate`` as a user runs it:
    ``SweepEngine(jobs=1)``, default solo SoA engine, a fresh empty
    result store per job, the three Figure-1 panels at a pinned
    measurement window.
``fig2-batch8``
    The three Figure-2 panels through ``SweepEngine(jobs=1, batch=8)``:
    each panel is one 8-row ``BatchedSoAEngine`` chunk.
``model-dse``
    A seeded Latin-hypercube design-space sweep of the analytical model
    (240 points): per design point ``saturation_rate()`` then a 16-rate
    ``sweep()`` up to 105% of saturation.
``campaign-fq2``
    A ``FileQueueBackend`` campaign with two worker processes over four
    small 8x8 panels, its result store restored per job from a snapshot
    holding every other point.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

WORKLOADS = ("fig1-solo", "fig2-batch8", "model-dse", "campaign-fq2")
DEFAULT_SEED = 0

#: Pinned per-point measurement window of the figure workloads
#: (``repro figure N --simulate --cycles 6000``; warmup defaults to 2000).
FIG_MEASURE_CYCLES = 6000

#: ``model-dse``: design points per blocking policy, rates per sweep and
#: the saturation-search tolerance.  TRANSMISSION is the model's default
#: reading; HOLDING and ENTRANCE are its ablations.  Near their critical
#: load those two converge slowly, so one of their points costs 0.1-1 s
#: where a TRANSMISSION point costs ~55 ms: at equal weights the job's
#: wall time would move by about 8% with the seed.
DSE_POLICY_POINTS = {"transmission": 200, "holding": 20, "entrance": 20}
DSE_RATES = 16
DSE_SAT_TOL = 3e-6

#: ``campaign-fq2``: 8x8 tori, short messages, short windows.
CAMPAIGN_MEASURE = 1500
CAMPAIGN_WARMUP = 500
CAMPAIGN_WORKERS = 2
#: (Lm, h, model saturation rate) of the four campaign panels; rates are
#: fixed fractions of the model's saturation, far from the knee.
CAMPAIGN_PANELS = ((8, 0.2, 0.0079), (8, 0.5, 0.0037), (16, 0.2, 0.0042), (16, 0.5, 0.00197))
CAMPAIGN_FRACTIONS = (0.1, 0.18, 0.26, 0.34, 0.42, 0.5)
#: Coordination settings, identical in the traced and untraced runs.
CAMPAIGN_POLL = 0.05
CAMPAIGN_HEARTBEAT = 1.0


def derived_seed(seed: int, workload: str) -> int:
    """The program-facing base seed generated from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a job needs, generated before timing starts."""

    workload: str
    seed: int
    sweep_seed: int = 0
    panels: list = field(default_factory=list)
    batch: int = 1
    design: List[dict] = field(default_factory=list)
    snapshot: Optional[Path] = None
    snapshot_points: int = 0

    def describe(self) -> dict:
        """JSON summary used by the self-tests and the run record."""
        return {
            "workload": self.workload,
            "sweep_seed": self.sweep_seed,
            "panels": [p.name for p in self.panels],
            "design": self.design,
            "snapshot_points": self.snapshot_points,
        }


def lhs_design(seed: int) -> List[dict]:
    """Latin-hypercube design points over the model constructors' ranges.

    Every dimension is split into as many strata as there are points,
    each visited once, so the marginals are the same for every seed: the
    discrete dimensions (radix, VCs, policy per :data:`DSE_POLICY_POINTS`)
    take the same multiset of values, and the seed only decides the
    pairing and the jitter within strata.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    policies = [p for p, count in DSE_POLICY_POINTS.items() for _ in range(count)]
    n = len(policies)

    def levels(count: int) -> np.ndarray:
        """Stratum index mapped onto ``count`` discrete levels."""
        return rng.permutation(n) * count // n

    def uniform() -> np.ndarray:
        """One uniform draw inside each of the ``n`` strata of [0, 1)."""
        return (rng.permutation(n) + rng.random(n)) / n

    k_l, v_l, pol_l = levels(13), levels(3), rng.permutation(n)
    lm_u, h_u = uniform(), uniform()
    design = []
    for i in range(n):
        design.append(
            {
                "k": 4 + int(k_l[i]),  # 4..16
                "message_length": int(round(8 * 16 ** lm_u[i])),  # 8..128, log-uniform
                "num_vcs": 2 + int(v_l[i]),  # 2..4
                "hotspot_fraction": round(float(0.8 * h_u[i]), 6),  # [0, 0.8)
                "blocking_service": policies[int(pol_l[i])],
            }
        )
    return design


def campaign_panels() -> list:
    from repro.experiments.figures import PanelSpec

    panels = []
    for lm, h, sat in CAMPAIGN_PANELS:
        rates = tuple(round(f * sat, 8) for f in CAMPAIGN_FRACTIONS)
        panels.append(
            PanelSpec(
                figure=0,
                name=f"fq_l{lm}_h{int(h * 100)}",
                k=8,
                message_length=lm,
                hotspot_fraction=h,
                rates=rates,
                paper_axis_max_rate=sat,
                paper_axis_max_latency=0.0,
            )
        )
    return panels


def campaign_configs(panels: list, sweep_seed: int) -> Dict[tuple, object]:
    """``(panel, index) -> SimulationConfig`` as the sweep engine builds them."""
    from repro.experiments.sweep import point_seed
    from repro.simulator.config import SimulationConfig

    out = {}
    for spec in panels:
        for i, rate in enumerate(spec.rates):
            out[(spec.name, i)] = SimulationConfig(
                k=spec.k,
                n=2,
                num_vcs=spec.num_vcs,
                message_length=spec.message_length,
                rate=float(rate),
                hotspot_fraction=spec.hotspot_fraction,
                warmup_cycles=CAMPAIGN_WARMUP,
                measure_cycles=CAMPAIGN_MEASURE,
                seed=point_seed(sweep_seed, spec.name, i),
            )
    return out


def build_inputs(workload: str, seed: int, work: Path) -> Inputs:
    """Generate the workload's inputs (and campaign store snapshot)."""
    from repro.experiments.figures import panels_of_figure

    inp = Inputs(workload=workload, seed=seed, sweep_seed=derived_seed(seed, workload))
    if workload == "fig1-solo":
        inp.panels = panels_of_figure(1)
    elif workload == "fig2-batch8":
        inp.panels = panels_of_figure(2)
        inp.batch = 8
    elif workload == "model-dse":
        inp.design = lhs_design(inp.sweep_seed)
    elif workload == "campaign-fq2":
        inp.panels = campaign_panels()
        inp.snapshot = build_snapshot(inp, work / "snapshot")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return inp


def build_snapshot(inp: Inputs, root: Path) -> Path:
    """A result store holding every other campaign point (even indices)."""
    from repro.core.results import SweepPoint
    from repro.simulator.sim import Simulation
    from repro.store import ResultStore

    if root.exists():
        shutil.rmtree(root)
    store = ResultStore(root)
    count = 0
    for (_panel, i), cfg in campaign_configs(inp.panels, inp.sweep_seed).items():
        if i % 2:
            continue
        res = Simulation(cfg).run()
        latency = math.inf if res.saturated else res.mean_latency
        store.put(cfg, SweepPoint(rate=cfg.rate, latency=latency, saturated=res.saturated))
        count += 1
    inp.snapshot_points = count
    return root


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
@dataclass
class JobResult:
    """What one job delivered, plus its host time."""

    wall_s: float
    points: int
    failures: int
    output: dict
    unit_times: List[float] = field(default_factory=list)
    saturation_searches: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _point_row(p) -> list:
    return [p.rate.hex(), float(p.latency).hex(), bool(p.saturated)]


def _panel_output(results: dict) -> dict:
    out = {}
    for name, pr in results.items():
        out[name] = {
            "model": [[p.rate, p.latency, bool(p.saturated)] for p in pr.model.points],
            "sim": [_point_row(p) for p in pr.simulation.points],
            "failures": len(pr.simulation.failures),
            "pairs": [list(t) for t in pr.paired_points()],
        }
    return out


def run_figure_job(inp: Inputs, store_dir: Path) -> JobResult:
    from repro.experiments.sweep import SweepEngine

    engine = SweepEngine(jobs=1, batch=inp.batch, cache_dir=store_dir)
    t0 = time.perf_counter()
    results = engine.run_panels(
        inp.panels, simulate=True, seed=inp.sweep_seed, measure_cycles=FIG_MEASURE_CYCLES
    )
    wall = time.perf_counter() - t0
    out = _panel_output(results)
    return JobResult(
        wall_s=wall,
        points=sum(len(v["sim"]) for v in out.values()),
        failures=sum(v["failures"] for v in out.values()),
        output={"panels": out},
        stats=engine.stats.as_dict(),
    )


def evaluate_design_point(point: dict):
    """``saturation_rate()`` then a 16-rate ``sweep()`` up to 105% of it."""
    import numpy as np

    from repro.core.model import HotSpotLatencyModel

    model = HotSpotLatencyModel(
        point["k"],
        point["message_length"],
        point["hotspot_fraction"],
        point["num_vcs"],
        blocking_service=point["blocking_service"],
    )
    sat = model.saturation_rate(tol=DSE_SAT_TOL)
    rates = np.linspace(sat / DSE_RATES, 1.05 * sat, DSE_RATES)
    return sat, rates, model.sweep(rates)


def run_dse_job(inp: Inputs) -> JobResult:
    rows = []
    times = []
    t0 = time.perf_counter()
    for point in inp.design:
        t = time.perf_counter()
        sat, _rates, sweep = evaluate_design_point(point)
        times.append(time.perf_counter() - t)
        rows.append(
            [sat, [p.rate for p in sweep.points], [p.latency for p in sweep.points],
             [bool(p.saturated) for p in sweep.points]]
        )
    wall = time.perf_counter() - t0
    return JobResult(
        wall_s=wall,
        points=len(rows) * DSE_RATES,
        failures=0,
        output={"design": rows},
        unit_times=times,
        saturation_searches=len(rows),
    )


def run_campaign_job(
    inp: Inputs,
    store_dir: Path,
    campaign_dir: Path,
    provision: Optional[Callable[[Path], Callable[[], None]]] = None,
) -> JobResult:
    """One file-queue campaign; ``provision`` starts external workers.

    Untraced runs let the backend spawn its own ``repro worker`` fleet
    (``spawn_workers=2``).  A traced run passes ``provision``, which
    starts the benchmark's traced worker entries for ``campaign_dir``
    and returns a function that drains them; the backend then runs
    with ``spawn_workers=0`` and the same coordination settings.
    """
    from repro.backends.filequeue import FileQueueBackend
    from repro.experiments.sweep import SweepEngine

    if store_dir.exists():
        shutil.rmtree(store_dir)
    shutil.copytree(inp.snapshot, store_dir)
    common = dict(poll_interval=CAMPAIGN_POLL)
    if provision is None:
        backend = FileQueueBackend(
            campaign_dir,
            spawn_workers=CAMPAIGN_WORKERS,
            worker_poll_interval=CAMPAIGN_POLL,
            worker_heartbeat_interval=CAMPAIGN_HEARTBEAT,
            **common,
        )
    else:
        backend = FileQueueBackend(
            campaign_dir, spawn_workers=0, wait_for_workers=60.0, **common
        )
    engine = SweepEngine(jobs=CAMPAIGN_WORKERS, backend=backend, cache_dir=store_dir)
    t0 = time.perf_counter()
    drain = provision(campaign_dir) if provision is not None else None
    try:
        results = engine.run_panels(
            inp.panels,
            simulate=True,
            seed=inp.sweep_seed,
            measure_cycles=CAMPAIGN_MEASURE,
            warmup_cycles=CAMPAIGN_WARMUP,
        )
    finally:
        if drain is not None:
            drain()
    wall = time.perf_counter() - t0
    out = _panel_output(results)
    hits = 0
    for journal in (store_dir / "journal").glob("*.jsonl"):
        from repro.resilience import CheckpointJournal

        _header, entries = CheckpointJournal.load(journal)
        hits += sum(e.get("source") == "cache" for e in entries)
    return JobResult(
        wall_s=wall,
        points=sum(len(v["sim"]) for v in out.values()),
        failures=sum(v["failures"] for v in out.values()),
        output={"panels": {k: {"sim": v["sim"], "failures": v["failures"]} for k, v in out.items()}},
        stats=engine.stats.as_dict(),
        extra={"store_hits": hits},
    )
