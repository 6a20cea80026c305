"""Per-layer ledger: the traced run's spans and counters as metrics.

Inputs are tracer dumps (the benchmark process's and, for
``campaign-fq2``, each traced worker's), merged by summing, plus the
job count and the exact simulator counts captured from results.  Times
and counts are per job; ratios are taken where the work happens.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List

from .metrics import PER_LAYER
from .tracer import KERNEL

STEP = "simulator.soa.step"
BATCH_RUN = "simulator.batch.run"
QUEUEING = (
    "queueing.mg1_waiting_time",
    "queueing.blocking_delay",
    "queueing.blocking_delay_raw",
    "queueing.multiplexing_degree",
)
COMPUTE = ("experiments.sweep.simulate_point", "experiments.sweep.simulate_chunk")


def merge(dumps: Iterable[dict]) -> dict:
    """Sum several tracer dumps into one."""
    agg: Dict[str, List[float]] = {}
    pairs: Dict[tuple, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for d in dumps:
        for name, (calls, total, child) in d.get("agg", {}).items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += child
        for parent, child, t in d.get("pairs", []):
            pairs[(parent, child)] += t
        for name, v in d.get("counts", {}).items():
            counts[name] += v
    return {"agg": agg, "pairs": dict(pairs), "counts": dict(counts)}


def self_by_span(dump: dict, jobs: int) -> Dict[str, float]:
    """Self seconds per job of every span name (total minus children)."""
    return {
        name: (total - child) / jobs
        for name, (_calls, total, child) in sorted(dump["agg"].items())
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    main: dict,
    workers: List[dict],
    *,
    jobs: int,
    sim_counts: Dict[str, float],
    engine_stats: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    setup: Dict[str, float],
    worker_ready: List[float],
    worker_rss_mb: List[float],
    num_workers: int,
) -> Dict[str, float]:
    """Every :data:`metrics.PER_LAYER` metric (0 where a layer is idle)."""
    d = merge([main] + workers)
    w = merge(workers)
    agg, pairs, counts = d["agg"], d["pairs"], d["counts"]
    J = max(jobs, 1)

    def calls(name: str) -> float:
        return agg.get(name, [0, 0.0, 0.0])[0] / J

    def total(name: str) -> float:
        return agg.get(name, [0, 0.0, 0.0])[1] / J

    def self_s(name: str) -> float:
        a = agg.get(name, [0, 0.0, 0.0])
        return (a[1] - a[2]) / J

    def count(name: str) -> float:
        return counts.get(name, 0.0) / J

    cycles = sim_counts.get("cycles_run", 0.0) / J
    step_calls = calls(STEP)
    kernel_calls = calls(KERNEL)
    compute_s = sum(
        w["agg"].get(n, [0, 0.0, 0.0])[1] for n in COMPUTE
    ) / J
    get_calls = calls("store.get")
    claim_attempts = calls("backends.worker.claim")
    out = {
        "cli.import_s": setup.get("import_s", 0.0),
        "simulator.kernel.load_s": setup.get("kernel_load_s", 0.0),
        "simulator.kernel.compile_s": setup.get("kernel_compile_s", 0.0),
        "topology.build_s": total("topology.build"),
        "simulator.soa.step_calls": step_calls,
        "simulator.soa.step_self_s": total(STEP) - pairs.get((STEP, KERNEL), 0.0) / J,
        "simulator.soa.cycles_per_step": _ratio(cycles, step_calls),
        "simulator.kernel.calls": kernel_calls,
        "simulator.kernel.s": total(KERNEL),
        "simulator.kernel.ns_per_call": _ratio(total(KERNEL), kernel_calls) * 1e9,
        "simulator.kernel.cycles_per_call": _ratio(cycles, kernel_calls),
        "simulator.batch.python_s": total(BATCH_RUN) - pairs.get((BATCH_RUN, KERNEL), 0.0) / J,
        "traffic.schedule_calls": calls("traffic.schedule"),
        "traffic.schedule_s": total("traffic.schedule"),
        "traffic.gap_s": total("traffic.gap"),
        "simulator.stats.record_calls": calls("simulator.stats.record"),
        "simulator.stats.record_s": total("simulator.stats.record"),
        "simulator.cycles_run": cycles,
        "simulator.flit_moves": sim_counts.get("flit_moves", 0.0) / J,
        "simulator.messages_completed": sim_counts.get("messages_completed", 0.0) / J,
        "core.model.build_s": total("core.model.build"),
        "core.model.evaluate_batch_calls": calls("core.model.evaluate_batch"),
        "core.model.evaluate_batch_self_s": self_s("core.model.evaluate_batch"),
        "core.model.update_self_s": self_s("core.model.update"),
        "core.fixed_point.solve_batch_self_s": self_s("core.fixed_point.solve_batch"),
        "core.fixed_point.iterations": count("core.fixed_point.iterations"),
        "core.fixed_point.rows": count("core.fixed_point.rows"),
        "core.fixed_point.reseeded_rows": count("core.fixed_point.reseeded_rows"),
        "core.fixed_point.failed_rows": count("core.fixed_point.failed_rows"),
        "queueing.calls": sum(calls(n) for n in QUEUEING),
        "queueing.s": sum(total(n) for n in QUEUEING),
        "core.model.saturation_searches": calls("core.model.saturation"),
        "core.model.saturation_probes": count("core.model.saturation_probes"),
        "core.model.saturation_s": total("core.model.saturation"),
        "store.get_calls": get_calls,
        "store.hit_ratio": _ratio(count("store.hits"), get_calls),
        "store.get_s": total("store.get"),
        "store.put_calls": calls("store.put"),
        "store.put_s": total("store.put"),
        "resilience.journal_records": calls("resilience.journal"),
        "resilience.journal_s": total("resilience.journal"),
        "resilience.retries": engine_stats.get("retries", 0) / J,
        "resilience.timeouts": engine_stats.get("timeouts", 0) / J,
        "resilience.pool_rebuilds": engine_stats.get("pool_rebuilds", 0) / J,
        "backends.worker.ready_s": statistics.median(worker_ready) if worker_ready else 0.0,
        "backends.worker.claim_attempts": claim_attempts,
        "backends.worker.claim_ratio": _ratio(count("backends.worker.claim_wins"), claim_attempts),
        "backends.worker.claim_s": total("backends.worker.claim"),
        "backends.worker.publish_s": total("backends.worker.publish"),
        "backends.worker.compute_s": compute_s,
        "backends.worker.peak_rss_mb": max(worker_rss_mb) if worker_rss_mb else 0.0,
        "backends.campaign_efficiency": (
            _ratio(compute_s, traced_wall * num_workers) if num_workers else 0.0
        ),
        "experiments.sweep.self_s": self_s("experiments.sweep.run_panels"),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
    }
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise AssertionError(f"ledger lacks {sorted(missing)}")
    return out


def shares(dump: dict, jobs: int, wall: float) -> Dict[str, float]:
    """Self-time share of the job wall time by span name, plus the rest."""
    selfs = self_by_span(dump, jobs)
    out = {name: _ratio(s, wall) for name, s in selfs.items()}
    out["(outside wrapped spans)"] = _ratio(wall - sum(selfs.values()), wall)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))

