"""Simulation front-end: configure, run, collect results.

:class:`Simulation` is the user-facing entry point mirroring the
analytical model's interface: construct with a
:class:`~repro.simulator.config.SimulationConfig`, call :meth:`run`, get
a :class:`SimulationResult` whose ``mean_latency`` is directly comparable
with :meth:`repro.core.model.HotSpotLatencyModel.evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import SweepPoint, SweepResult
from repro.simulator.config import SimulationConfig, resolve_engine_kind
from repro.simulator.network import TorusWorkload
from repro.traffic.burst import ArrivalModel
from repro.traffic.patterns import DestinationPattern

__all__ = ["Simulation", "SimulationResult", "run_batch"]


@dataclass(frozen=True)
class SimulationResult:
    """Measured outcome of one simulation run.

    ``saturated`` mirrors the analytical model's notion: the offered
    load was not drained at steady state (runaway backlog or a
    completion deficit over the measurement window), so ``mean_latency``
    — if finite — underestimates an unbounded quantity.
    """

    config: SimulationConfig
    mean_latency: float
    ci95: Optional[float]
    mean_latency_regular: float
    mean_latency_hot: float
    num_completed: int
    num_generated: int
    saturated: bool
    mean_hops: float
    max_channel_utilization: float
    hot_sink_utilization: float
    cycles_run: int

    @property
    def rate(self) -> float:
        return self.config.rate


class Simulation:
    """One flit-level simulation of the paper's workload.

    Examples
    --------
    >>> cfg = SimulationConfig(k=8, message_length=16, rate=1e-3,
    ...                        hotspot_fraction=0.2, warmup_cycles=2000,
    ...                        measure_cycles=20000, seed=7)
    >>> result = Simulation(cfg).run()
    >>> result.num_completed > 0
    True
    """

    def __init__(
        self,
        config: SimulationConfig,
        pattern: Optional[DestinationPattern] = None,
        arrival_model: Optional[ArrivalModel] = None,
    ) -> None:
        self.config = config
        self.workload = TorusWorkload(
            config, pattern=pattern, arrival_model=arrival_model
        )

    def run(self) -> SimulationResult:
        self.workload.run()
        return _workload_result(self.workload)


def _workload_result(w: TorusWorkload) -> SimulationResult:
    """Assemble the result record of a finished workload.

    Shared by :meth:`Simulation.run` and :func:`run_batch`, so a
    batched row reports through exactly the same code path as a solo
    run.
    """
    cfg = w.config
    saturated = w.backlog_saturated() or (
        w.drain_ratio() < cfg.min_drain_ratio
    )
    util = w.measured_channel_utilization()
    return SimulationResult(
        config=cfg,
        mean_latency=w.all_stats.mean,
        ci95=w.batches.confidence_interval(0.95),
        mean_latency_regular=w.regular_stats.mean,
        mean_latency_hot=w.hot_stats.mean,
        num_completed=w.all_stats.count,
        num_generated=w.measured_generated,
        saturated=saturated,
        mean_hops=w.all_stats.mean_hops,
        max_channel_utilization=float(util.max()) if util.size else 0.0,
        hot_sink_utilization=w.hot_sink_channel_utilization(),
        cycles_run=w.engine.counters.cycles_run,
    )


def run_batch(
    configs: Sequence[SimulationConfig],
    seeds: Optional[Sequence[int]] = None,
    *,
    kernel: str = "auto",
) -> List[SimulationResult]:
    """Run many configurations, advancing same-shape ones as one batch.

    Deterministic-routing configurations sharing an array shape
    (:func:`~repro.simulator.batch.batch_shape_key`) run as one
    :class:`~repro.simulator.batch.BatchedSoAEngine`, so one kernel call
    per tick advances all of them; the rest — singletons, adaptive
    routing and reference-engine rows — run solo.  Either way every
    configuration's result is bit-identical to its solo run, and results
    come back in input order.

    ``seeds``, when given, overrides the per-configuration seed
    (``len(seeds) == len(configs)``); ``kernel`` picks the batched
    kernel like ``$REPRO_SOA_KERNEL`` does for solo runs.
    """
    from repro.simulator.batch import BatchedSoAEngine, batch_shape_key

    cfgs = list(configs)
    if seeds is not None:
        if len(seeds) != len(cfgs):
            raise ValueError(
                f"got {len(cfgs)} configs but {len(seeds)} seeds"
            )
        cfgs = [replace(c, seed=int(s)) for c, s in zip(cfgs, seeds)]
    results: List[Optional[SimulationResult]] = [None] * len(cfgs)
    groups: Dict[Tuple, List[int]] = {}
    for i, cfg in enumerate(cfgs):
        if (
            resolve_engine_kind(cfg.engine) == "reference"
            or cfg.routing == "adaptive"
        ):
            results[i] = Simulation(cfg).run()
        else:
            groups.setdefault(batch_shape_key(cfg), []).append(i)
    for idxs in groups.values():
        if len(idxs) == 1:
            results[idxs[0]] = Simulation(cfgs[idxs[0]]).run()
            continue
        workloads = [TorusWorkload(cfgs[i]) for i in idxs]
        BatchedSoAEngine(workloads, kernel=kernel).run()
        for i, w in zip(idxs, workloads):
            results[i] = _workload_result(w)
    return results


def sweep(
    base_config: SimulationConfig,
    rates: Sequence[float],
    label: str = "simulation",
    *,
    stop_after_saturation: bool = True,
) -> SweepResult:
    """Run the simulator over a load grid, mirroring the model's sweep.

    Saturated points report ``latency = inf``; with
    ``stop_after_saturation`` the sweep stops at the first saturated
    point (higher loads are also saturated and only cost time).
    """
    from dataclasses import replace

    out = SweepResult(label=label)
    for r in rates:
        cfg = replace(base_config, rate=float(r))
        res = Simulation(cfg).run()
        latency = math.inf if res.saturated else res.mean_latency
        out.points.append(
            SweepPoint(rate=float(r), latency=latency, saturated=res.saturated)
        )
        if res.saturated and stop_after_saturation:
            break
    return out
