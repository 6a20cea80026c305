"""Parallel, cached, warm-started, fault-tolerant sweep engine.

Every figure of the paper is a *load sweep*: the analytical model and
the flit-level simulator evaluated over a grid of injection rates.  The
:class:`SweepEngine` is the one place that work is orchestrated.

One campaign loop
    :meth:`SweepEngine.run_panels` simulates every panel of a call as
    one campaign, in three steps:

    1. Points found in the result store are noted first; every store
       hit is journaled with ``source: "cache"``.
    2. The remaining points of each panel — up to its first *known*
       saturated point — are cut, in grid order, into chunks of
       ``batch`` points (one point each with ``batch=1``).  A chunk is
       keyed by its first member.
    3. Every chunk goes through one :meth:`~repro.backends.SweepBackend
       .run` call with :func:`_simulate_chunk` as the unit of work,
       which writes each point it computes to the store.  As each chunk
       completes, its points are journaled, and any queued chunk lying
       entirely past the panel's first saturated point is dropped.

    Each series is then truncated at its first saturated point.  Every
    grid point has a *deterministic per-point seed* derived from
    ``(base seed, panel name, point index)`` via SHA-256
    (:func:`point_seed`), and the batched simulator is bit-identical to
    solo runs, so the returned
    :class:`~repro.core.results.SweepResult` is identical for any
    ``jobs``, ``batch`` or backend.

Execution backends
    The default :class:`~repro.backends.LocalPoolBackend` runs chunks
    in process, in order, when ``jobs=1`` — so the early stop at
    saturation is the same ``on_result`` drop every backend honours —
    and on a resilient ``jobs``-process pool otherwise.
    ``backend="file:<campaign-dir>"`` (or ``REPRO_BACKEND=file:<dir>``)
    coordinates any number of ``repro worker`` processes across hosts
    sharing a filesystem (:class:`~repro.backends.FileQueueBackend`).

Fault tolerance
    Failed chunks are retried with capped exponential backoff
    (``max_retries``).  On a pool, every attempt also gets a wall-clock
    timeout (``point_timeout``) and a crashed worker rebuilds the pool;
    the in-process ``jobs=1`` run applies no timeout.  Retries are
    deterministic: a retried chunk re-runs the same configurations, so
    a faulty campaign produces bit-identical points to a fault-free
    one.  A chunk that exhausts its budget gives every member a
    :class:`~repro.resilience.PointFailure` record on
    ``SweepResult.failures`` instead of losing the panel.  The
    fault-injection harness (:mod:`repro.faults`, ``REPRO_FAULTS``)
    chaos-tests exactly these paths.

Resumable campaigns
    The result store is the one durable record of a finished point:
    the process that computes a point writes it there once.  An
    interrupted campaign simply re-run with the store on finds every
    point finished before the interruption and computes only the rest.
    Each run also writes a JSONL event log of its points (``done`` with
    their ``source``, ``failed``) and retries
    (:class:`~repro.resilience.CheckpointJournal`) to
    ``<cache dir>/journal/<campaign-hash>.jsonl``, replacing the
    previous run's log; results never read it back.

Batched, warm-started model sweeps
    Successive grid points differ only in the injection rate, so the
    fixed point at one rate is an excellent initial state for the next.
    With the default vector model kernel a panel's whole rate grid is
    *one* batched fixed-point solve with per-point convergence masking;
    under ``REPRO_MODEL_KERNEL=scalar`` the points chain sequentially
    via the ``initial`` pass-through.  Both paths converge (to solver
    tolerance) on the same fixed points.

On-disk result cache
    Simulated points persist in the shared content-addressed
    :class:`repro.store.ResultStore`, keyed by the SHA-256 hash of the
    full :class:`~repro.simulator.config.SimulationConfig`.  Corrupt,
    truncated or stale-schema entries are quarantined and recomputed,
    stale ``*.tmp`` files are swept on engine startup, and writers are
    concurrency-safe, so pool workers and file-queue workers on other
    hosts write into the same store the engine reads.  It lives in
    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro/sweeps``;
    ``use_cache=False`` (CLI ``--no-cache``) bypasses it — and the
    journal — entirely.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.backends import SweepBackend, resolve_backend
from repro.core.model import HotSpotLatencyModel
from repro.core.results import SweepPoint, SweepResult
from repro.experiments.figures import PanelSpec
from repro.resilience import (
    JOURNAL_VERSION,
    CheckpointJournal,
    ExecutorStats,
    PointFailure,
    RetryPolicy,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.sim import Simulation, run_batch
from repro.store import ResultStore, config_key, default_store_dir

__all__ = [
    "PanelResult",
    "SweepEngine",
    "point_seed",
    "sim_batch_size",
    "sim_jobs",
    "sim_measure_cycles",
]

def _env_int(name: str, default: int, minimum: int) -> int:
    """Integer environment variable ``name``, or ``default`` when unset.

    Raises a :class:`ValueError` naming the variable when it is set to
    a non-integer or to a value below ``minimum``.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def sim_measure_cycles(default: int = 120_000) -> int:
    """Measurement cycles per simulation point (``REPRO_SIM_CYCLES``).

    At least 1000 cycles, below which the batch-means statistics mean
    nothing.
    """
    return _env_int("REPRO_SIM_CYCLES", default, 1_000)


def sim_jobs(default: int = 1) -> int:
    """Simulation worker processes (``REPRO_JOBS``).

    The one validated parse shared by the examples and benchmarks.
    """
    return _env_int("REPRO_JOBS", default, 1)


def sim_batch_size(default: int = 1) -> int:
    """Simulation points batched per job (``REPRO_SIM_BATCH``).

    A batch of B same-shape grid points is advanced by one
    :class:`~repro.simulator.batch.BatchedSoAEngine` instead of B
    sequential runs — bit-identical results, one kernel call per tick.
    ``1`` (the default) runs every point on its own.
    """
    return _env_int("REPRO_SIM_BATCH", default, 1)


def point_seed(base_seed: int, panel: str, index: int) -> int:
    """Deterministic RNG seed for grid point ``index`` of ``panel``.

    Derived by hashing ``(base_seed, panel, index)`` with SHA-256 — not
    Python's randomised ``hash()`` — so the same sweep produces the
    same seeds in every process and on every run.  Distinct points get
    decorrelated Poisson streams instead of replaying one seed per rate.
    """
    digest = hashlib.sha256(f"{base_seed}:{panel}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class PanelResult:
    """Paired model/simulation curves for one panel."""

    spec: PanelSpec
    model: SweepResult
    simulation: Optional[SweepResult]

    def paired_points(self) -> List[tuple]:
        """(rate, model latency, sim latency) rows, sim ``nan`` if absent."""
        sim_by_rate = {}
        if self.simulation is not None:
            sim_by_rate = {p.rate: p for p in self.simulation.points}
        rows = []
        for p in self.model.points:
            s = sim_by_rate.get(p.rate)
            rows.append(
                (p.rate, p.latency, s.latency if s is not None else math.nan)
            )
        return rows


def _simulate_point(cfg: SimulationConfig, attempt: int = 0) -> SweepPoint:
    """One solo simulation run -> one sweep point.

    The reference that chunk results are compared against: campaigns
    run :func:`_simulate_chunk`, which must agree with this bit for
    bit.  ``attempt`` feeds the deterministic fault-injection harness
    only (its draws are keyed on the point seed *and* the attempt, so a
    retry draws afresh); the result depends solely on ``cfg``.
    """
    faults.on_point_attempt(cfg.seed, attempt)
    res = Simulation(cfg).run()
    latency = math.inf if res.saturated else res.mean_latency
    return SweepPoint(rate=cfg.rate, latency=latency, saturated=res.saturated)


def _simulate_chunk(
    cfgs: Sequence[SimulationConfig],
    store_root: Optional[str],
    attempt: int = 0,
) -> List[SweepPoint]:
    """The campaign unit of work: one chunk of configs -> its sweep points.

    Same-shape configurations advance together on one
    :class:`~repro.simulator.batch.BatchedSoAEngine`
    (:func:`repro.simulator.sim.run_batch`); a one-config chunk runs
    solo.  Every point is bit-identical to :func:`_simulate_point` on
    the same config, so every ``batch`` size shares one cache.  Fault
    injection is keyed on the first config's seed — a chunk retries as
    a unit.

    Each point is written to the :class:`~repro.store.ResultStore` at
    ``store_root`` (unless ``None``) by the process that computed it —
    in process, in a pool worker or in a ``repro worker`` — and nowhere
    else, so the store holds exactly one record per finished point.
    """
    faults.on_point_attempt(cfgs[0].seed, attempt)
    store = ResultStore(store_root) if store_root is not None else None
    points = []
    for cfg, res in zip(cfgs, run_batch(cfgs)):
        latency = math.inf if res.saturated else res.mean_latency
        point = SweepPoint(
            rate=res.rate, latency=latency, saturated=res.saturated
        )
        if store is not None:
            store.put(cfg, point)
        points.append(point)
    return points


#: Campaign-internal point key: ``(panel name, grid index)``.
_PointKey = Tuple[str, int]


class SweepEngine:
    """Runs model/simulation load sweeps: parallel, resilient, cached.

    Parameters
    ----------
    jobs:
        Simulation worker processes for the default local backend.
        ``1`` (default) runs chunks in process, in order; ``>1`` fans
        the chunks of every panel of a call out to a resilient process
        pool.  Results are bit-identical either way.
    batch:
        Simulation points per chunk (default: ``$REPRO_SIM_BATCH``,
        else 1).  With ``batch > 1`` each chunk advances same-shape
        grid points together on one
        :class:`~repro.simulator.batch.BatchedSoAEngine` — bit-identical
        results at a fraction of the per-cycle Python overhead.  Chunks
        retry (and fail) as a unit.
    use_cache:
        Consult/populate the on-disk result store (see module
        docstring).  Re-running an interrupted campaign with the store
        on computes only the points it is missing.  ``False`` also
        turns off the journal, so the run leaves nothing on disk.
    cache_dir:
        Store root; defaults to :func:`repro.store.default_store_dir`.
        Also hosts the campaign event logs (``journal/``
        subdirectory).
    warm_start:
        Chain each model point's converged fixed-point state into the
        next rate's solve (identical results to solver tolerance, far
        fewer iterations).
    max_retries:
        Extra attempts per chunk after the first (default 2).  Retried
        chunks re-run the same per-point seeds, so results stay
        bit-identical to a fault-free run; a chunk that exhausts its
        budget gives each member a
        :class:`~repro.resilience.PointFailure` record on
        ``SweepResult.failures``.
    point_timeout:
        Wall-clock seconds per chunk attempt on a process pool.  A
        timed-out worker is presumed hung, terminated, and its chunk
        retried on a rebuilt pool.  Not applied when ``jobs=1``: the
        in-process run cannot interrupt itself.  ``None`` (default)
        disables the deadline.
    backoff_base:
        Base of the capped exponential retry backoff (seconds).
    jitter:
        Decorrelate retry backoff delays (see
        :class:`~repro.resilience.RetryPolicy`).  Off by default so
        chaos replay stays deterministic.
    backend:
        Execution substrate of the campaign loop: ``None`` (consult
        ``$REPRO_BACKEND``, default local), a selector string
        (``"local"``, ``"file:<campaign-dir>"``) or a
        :class:`~repro.backends.SweepBackend` instance.  A distributed
        backend's parallelism is however many workers join; its
        workers write into the result store named by each unit.

    ``stats`` accumulates :class:`~repro.resilience.ExecutorStats`
    (retries, timeouts, pool rebuilds, terminal failures) across this
    engine's campaigns.

    Examples
    --------
    >>> from repro.experiments import SweepEngine, get_panel
    >>> engine = SweepEngine(jobs=4)
    >>> result = engine.run_panel(get_panel("fig1_h20"), simulate=False)
    >>> result.model.saturation_rate() is not None
    True
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        batch: Optional[int] = None,
        use_cache: bool = True,
        cache_dir: "Path | str | None" = None,
        warm_start: bool = True,
        max_retries: int = 2,
        point_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        jitter: bool = False,
        backend: "str | SweepBackend | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.batch = sim_batch_size() if batch is None else int(batch)
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.warm_start = bool(warm_start)
        self.policy = RetryPolicy(
            max_retries=max_retries,
            point_timeout=point_timeout,
            backoff_base=backoff_base,
            jitter=jitter,
        )
        self.stats = ExecutorStats()
        self.backend = resolve_backend(backend, jobs=self.jobs)
        self.cache_root = (
            Path(cache_dir) if cache_dir is not None else default_store_dir()
        )
        self.cache = ResultStore(self.cache_root) if use_cache else None
        if self.cache is not None:
            self.cache.clean_stale_tmp()

    # ------------------------------------------------------------------
    # Model side
    # ------------------------------------------------------------------
    def model_sweep(
        self,
        spec: PanelSpec,
        *,
        trip_averaging: bool = True,
        label: Optional[str] = None,
    ) -> SweepResult:
        """Analytical-model curve for a panel (warm-started by default)."""
        model = HotSpotLatencyModel(
            k=spec.k,
            message_length=spec.message_length,
            hotspot_fraction=spec.hotspot_fraction,
            num_vcs=spec.num_vcs,
            trip_averaging=trip_averaging,
        )
        return model.sweep(
            spec.rates,
            label=label or f"model:{spec.name}",
            warm_start=self.warm_start,
        )

    # ------------------------------------------------------------------
    # Simulation side
    # ------------------------------------------------------------------
    def _panel_configs(
        self,
        spec: PanelSpec,
        seed: int,
        measure_cycles: Optional[int],
        warmup_cycles: Optional[int],
    ) -> List[SimulationConfig]:
        measure = (
            measure_cycles if measure_cycles is not None else sim_measure_cycles()
        )
        warmup = (
            warmup_cycles if warmup_cycles is not None else max(measure // 8, 2_000)
        )
        return [
            SimulationConfig(
                k=spec.k,
                n=2,
                num_vcs=spec.num_vcs,
                message_length=spec.message_length,
                rate=float(rate),
                hotspot_fraction=spec.hotspot_fraction,
                warmup_cycles=warmup,
                measure_cycles=measure,
                seed=point_seed(seed, spec.name, i),
            )
            for i, rate in enumerate(spec.rates)
        ]

    # -- campaign event log --------------------------------------------
    def journal_dir(self) -> Path:
        """Where campaign event logs live (next to the store)."""
        return self.cache_root / "journal"

    def _campaign_id(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        seed: int,
    ) -> str:
        blob = json.dumps(
            {
                "journal_version": JOURNAL_VERSION,
                "seed": seed,
                "panels": {
                    spec.name: [config_key(c) for c in cfgs_by[spec.name]]
                    for spec in specs
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _open_journal(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        seed: int,
    ) -> Optional[CheckpointJournal]:
        """Start the campaign's event log, or ``None`` with the store off.

        The log lives beside the store, so ``use_cache=False`` stays
        free of side effects.
        """
        if self.cache is None:
            return None
        cid = self._campaign_id(specs, cfgs_by, seed)
        journal = CheckpointJournal(self.journal_dir() / f"{cid}.jsonl")
        journal.start(
            {
                "event": "campaign",
                "campaign": cid,
                "version": JOURNAL_VERSION,
                "seed": seed,
                "panels": {s.name: len(cfgs_by[s.name]) for s in specs},
            }
        )
        return journal

    # -- the campaign loop ---------------------------------------------
    def _run_campaign(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        journal: Optional[CheckpointJournal],
    ) -> Tuple[Dict[_PointKey, SweepPoint], Dict[_PointKey, PointFailure]]:
        """Look up the store, then run the rest as chunks on the backend."""
        points: Dict[_PointKey, SweepPoint] = {}
        first_sat: Dict[str, int] = {}

        def record(entry: dict) -> None:
            if journal is not None:
                journal.record(entry)

        def record_done(
            panel: str, i: int, point: SweepPoint, attempts: int, source: str
        ) -> None:
            record(
                {
                    "event": "point",
                    "status": "done",
                    "panel": panel,
                    "index": i,
                    "config": config_key(cfgs_by[panel][i])[:16],
                    "rate": point.rate,
                    "latency": point.latency,
                    "saturated": point.saturated,
                    "attempts": attempts,
                    "source": source,
                }
            )

        def note(key: _PointKey, point: SweepPoint) -> None:
            points[key] = point
            panel, i = key
            if point.saturated and i < first_sat.get(panel, i + 1):
                first_sat[panel] = i

        if self.cache is not None:
            for spec in specs:
                for i, cfg in enumerate(cfgs_by[spec.name]):
                    hit = self.cache.get(cfg)
                    if hit is not None:
                        record_done(spec.name, i, hit, 0, "cache")
                        note((spec.name, i), hit)

        # Pending points up to each panel's first known saturated point,
        # cut in grid order into chunks keyed by their first member.
        members: Dict[_PointKey, List[int]] = {}
        for spec in specs:
            last = first_sat.get(spec.name, len(cfgs_by[spec.name]) - 1)
            pending = [
                i for i in range(last + 1) if (spec.name, i) not in points
            ]
            for j in range(0, len(pending), self.batch):
                chunk = pending[j : j + self.batch]
                members[(spec.name, chunk[0])] = chunk
        if not members:
            return points, {}

        def on_result(ckey: _PointKey, pts: List[SweepPoint], attempts: int):
            panel = ckey[0]
            before = first_sat.get(panel)
            for i, point in zip(members[ckey], pts):
                record_done(panel, i, point, attempts, "simulated")
                note((panel, i), point)
            sat = first_sat.get(panel)
            if sat is None or sat == before:
                return None
            # Saturation found (or moved earlier): the series truncates
            # there, so chunks wholly past it are never needed.
            return [
                other
                for other, idxs in members.items()
                if other[0] == panel and idxs[0] > sat
            ]

        def on_retry(ckey: _PointKey, kind: str, attempt: int) -> None:
            record(
                {
                    "event": "retry",
                    "panel": ckey[0],
                    "index": ckey[1],
                    "kind": kind,
                    "attempt": attempt,
                }
            )

        store_root = str(self.cache.root) if self.cache is not None else None
        _, chunk_failures = self.backend.run(
            _simulate_chunk,
            {
                ckey: ([cfgs_by[ckey[0]][i] for i in idxs], store_root)
                for ckey, idxs in members.items()
            },
            policy=self.policy,
            stats=self.stats,
            on_result=on_result,
            on_retry=on_retry,
        )
        failures: Dict[_PointKey, PointFailure] = {}
        for (panel, first), tf in chunk_failures.items():
            for i in members[(panel, first)]:
                cfg = cfgs_by[panel][i]
                failure = PointFailure(
                    panel=panel,
                    index=i,
                    rate=cfg.rate,
                    kind=tf.kind,
                    attempts=tf.attempts,
                    message=tf.message,
                )
                failures[(panel, i)] = failure
                record(
                    {
                        "event": "point",
                        "status": "failed",
                        "panel": panel,
                        "index": i,
                        "config": config_key(cfg)[:16],
                        "kind": tf.kind,
                        "attempts": tf.attempts,
                        "message": tf.message,
                    }
                )
        return points, failures

    def _simulate_panels(
        self,
        specs: Sequence[PanelSpec],
        seed: int,
        measure_cycles: Optional[int],
        warmup_cycles: Optional[int],
    ) -> Dict[str, SweepResult]:
        """Simulate every panel's grid; assemble truncated sweep series."""
        cfgs_by = {
            spec.name: self._panel_configs(
                spec, seed, measure_cycles, warmup_cycles
            )
            for spec in specs
        }
        journal = self._open_journal(specs, cfgs_by, seed)
        try:
            points, failures = self._run_campaign(specs, cfgs_by, journal)
        finally:
            if journal is not None:
                journal.close()

        # Reassemble each panel in grid order: failures before the stop
        # are recorded, the series truncates at its first saturated
        # point, and anything later (computed or dropped) is left out —
        # so every jobs/batch/backend combination agrees bit for bit.
        results: Dict[str, SweepResult] = {}
        for spec in specs:
            sweep = SweepResult(label=f"sim:{spec.name}")
            for i in range(len(cfgs_by[spec.name])):
                key = (spec.name, i)
                if key in failures:
                    sweep.failures.append(failures[key])
                    continue
                point = points.get(key)
                if point is None:
                    break  # dropped past the panel's saturated point
                sweep.points.append(point)
                if point.saturated:
                    break
            results[spec.name] = sweep
        return results

    def simulation_sweep(
        self,
        spec: PanelSpec,
        *,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
    ) -> SweepResult:
        """Simulator curve for one panel, truncated at first saturation."""
        return self._simulate_panels(
            [spec], seed, measure_cycles, warmup_cycles
        )[spec.name]

    # ------------------------------------------------------------------
    # Panels and figures
    # ------------------------------------------------------------------
    def run_panel(
        self,
        spec: PanelSpec,
        *,
        simulate: bool = True,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
        trip_averaging: bool = True,
    ) -> PanelResult:
        """Model (and optionally simulator) curves for one panel."""
        return self.run_panels(
            [spec],
            simulate=simulate,
            seed=seed,
            measure_cycles=measure_cycles,
            warmup_cycles=warmup_cycles,
            trip_averaging=trip_averaging,
        )[spec.name]

    def run_panels(
        self,
        specs: Sequence[PanelSpec],
        *,
        simulate: bool = True,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
        trip_averaging: bool = True,
    ) -> Dict[str, PanelResult]:
        """Run several panels (e.g. a whole figure) as one campaign.

        Every uncached simulation chunk of every panel goes to the
        backend in one call, so with ``jobs>1`` a six-panel figure keeps
        all workers busy instead of draining panel by panel.  Results
        are keyed by panel name — which must therefore be unique — and
        identical to per-panel runs.  Points already in the result
        store are not recomputed, so re-running an interrupted campaign
        computes only what it is missing.
        """
        names = [spec.name for spec in specs]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate panel name(s) in one campaign: {', '.join(duplicates)}"
            )
        sims: Dict[str, SweepResult] = {}
        if simulate:
            sims = self._simulate_panels(
                specs, seed, measure_cycles, warmup_cycles
            )
        results: Dict[str, PanelResult] = {}
        for spec in specs:
            results[spec.name] = PanelResult(
                spec=spec,
                model=self.model_sweep(spec, trip_averaging=trip_averaging),
                simulation=sims.get(spec.name),
            )
        return results
