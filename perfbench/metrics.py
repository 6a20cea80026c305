"""Metric tables and the statistics the benchmark reports with.

``E2E`` lists every end-to-end metric with its unit, direction, bound
and the workloads it applies to.  The ones marked ``gated`` apply to
every workload and are the ``end_to_end`` metrics of ``BENCHMARK.json``
(printed in the final JSON line); the others are printed by name in the
human-readable report and compared by ``compare.py`` with the bound
given here.  ``PER_LAYER`` lists the traced-run metrics.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

ALL = ("fig1-solo", "fig2-batch8", "model-dse", "campaign-fq2")
SIM = ("fig1-solo", "fig2-batch8")

#: name -> (unit, better, bound, workloads, gated)
E2E: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25, ALL, True),
    "wall_s": ("s", "lower", 0.24, ALL, True),
    "points_per_s": ("1/s", "higher", 0.24, ALL, True),
    "peak_rss_mb": ("MB", "lower", 0.1, ALL, True),
    "sim_cycles_per_s": ("1/s", "higher", 0.24, SIM, False),
    "flit_moves_per_s": ("1/s", "higher", 0.24, SIM, False),
    "saturation_searches_per_s": ("1/s", "higher", 0.24, ("model-dse",), False),
    "config_p50_ms": ("ms", "lower", 0.24, ("model-dse",), False),
    "config_p90_ms": ("ms", "lower", 0.24, ("model-dse",), False),
    "worker_peak_rss_mb": ("MB", "lower", 0.1, ("campaign-fq2",), False),
    "failed_frac": ("1", "lower", 0.0, ALL, False),
    "mismatches": ("count", "lower", 0.0, ALL, False),
    "model_sim_rel_err": ("1", "lower", 0.0, SIM, False),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER: Dict[str, tuple] = {
    "cli.import_s": ("s", "lower"),
    "simulator.kernel.load_s": ("s", "lower"),
    "simulator.kernel.compile_s": ("s", "lower"),
    "topology.build_s": ("s", "lower"),
    "simulator.soa.step_calls": ("count", "lower"),
    "simulator.soa.step_self_s": ("s", "lower"),
    "simulator.soa.cycles_per_step": ("count", "higher"),
    "simulator.kernel.calls": ("count", "lower"),
    "simulator.kernel.s": ("s", "lower"),
    "simulator.kernel.ns_per_call": ("ns", "lower"),
    "simulator.kernel.cycles_per_call": ("count", "higher"),
    "simulator.batch.python_s": ("s", "lower"),
    "traffic.schedule_calls": ("count", "lower"),
    "traffic.schedule_s": ("s", "lower"),
    "traffic.gap_s": ("s", "lower"),
    "simulator.stats.record_calls": ("count", "lower"),
    "simulator.stats.record_s": ("s", "lower"),
    "simulator.cycles_run": ("count", "higher"),
    "simulator.flit_moves": ("count", "higher"),
    "simulator.messages_completed": ("count", "higher"),
    "core.model.build_s": ("s", "lower"),
    "core.model.evaluate_batch_calls": ("count", "lower"),
    "core.model.evaluate_batch_self_s": ("s", "lower"),
    "core.model.update_self_s": ("s", "lower"),
    "core.fixed_point.solve_batch_self_s": ("s", "lower"),
    "core.fixed_point.iterations": ("count", "lower"),
    "core.fixed_point.rows": ("count", "lower"),
    "core.fixed_point.reseeded_rows": ("count", "lower"),
    "core.fixed_point.failed_rows": ("count", "lower"),
    "queueing.calls": ("count", "lower"),
    "queueing.s": ("s", "lower"),
    "core.model.saturation_searches": ("count", "higher"),
    "core.model.saturation_probes": ("count", "lower"),
    "core.model.saturation_s": ("s", "lower"),
    "store.get_calls": ("count", "lower"),
    "store.hit_ratio": ("1", "higher"),
    "store.get_s": ("s", "lower"),
    "store.put_calls": ("count", "lower"),
    "store.put_s": ("s", "lower"),
    "resilience.journal_records": ("count", "lower"),
    "resilience.journal_s": ("s", "lower"),
    "resilience.retries": ("count", "lower"),
    "resilience.timeouts": ("count", "lower"),
    "resilience.pool_rebuilds": ("count", "lower"),
    "backends.worker.ready_s": ("s", "lower"),
    "backends.worker.claim_attempts": ("count", "lower"),
    "backends.worker.claim_ratio": ("1", "higher"),
    "backends.worker.claim_s": ("s", "lower"),
    "backends.worker.publish_s": ("s", "lower"),
    "backends.worker.compute_s": ("s", "lower"),
    "backends.worker.peak_rss_mb": ("MB", "lower"),
    "backends.campaign_efficiency": ("1", "higher"),
    "experiments.sweep.self_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


def gated() -> List[str]:
    return [name for name, spec in E2E.items() if spec[4]]


def applies(name: str, workload: str) -> bool:
    return workload in E2E[name][3]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
#: Percentiles the benchmark may report, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """Highest reportable percentile with at least ``beyond`` samples past it."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= beyond:
            best = p
    return best


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
