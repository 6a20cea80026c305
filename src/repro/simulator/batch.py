"""The run loop of deterministic SoA simulations: B networks per kernel call.

A parameter sweep is many *same-shape* simulations — identical
``(k, n, bidirectional, model_ejection, num_vcs)`` and therefore
identical array shapes — differing only in rate, seed, message length,
buffer depth or run control.

:class:`BatchedSoAEngine` runs B freshly constructed
:class:`~repro.simulator.network.TorusWorkload`\\ s whose engines keep
their whole wormhole lifecycle in the C kernel
(:attr:`~repro.simulator.soa.SoACycleEngine.kernel_lifecycle`: the
default for deterministic routing).  Each row keeps its own tables; one
``repro_soa_run`` call advances every live row from its clock to its
own stop — the next cycle at which an arrival is due, the warm-up edge
or the end of the run — or to the first cycle at which its backlog
limit or completion target trips, jumping idle stretches on the way.
Between calls, per row, Python:

* takes the warm-up snapshot on its cycle;
* feeds the arrivals due (destination draws and gaps in the workload's
  RNG order) and stages them into the row's tables;
* drains the call's completions, in kernel order, into
  ``engine.on_delivery`` — so Welford and batch-means statistics see
  exactly the solo delivery order.

A solo :meth:`TorusWorkload.run` is the one-row case, so solo and
batched rows share this loop and are bit-identical by construction;
``tests/test_batch_equivalence.py`` and
``tests/test_engine_equivalence.py`` check both against the reference
engine and the numpy lifecycle.  Rows whose lifecycle stays in Python —
adaptive routing, or the numpy kernel — run solo, one after another.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.simulator.config import SimulationConfig
from repro.simulator.kernel import CTL, STATUS_EXIT, UNLIMITED, load_c_kernel_batch
from repro.simulator.network import TorusWorkload
from repro.simulator.soa import SoACycleEngine, resolve_soa_kernel

__all__ = ["BatchedSoAEngine", "batch_shape_key"]

_CUR = CTL["cur"]
_STOP = CTL["stop"]
_IDLE_TO = CTL["idle_to"]


def batch_shape_key(config: SimulationConfig) -> Tuple[int, int, bool, bool, int]:
    """Array-shape signature of a configuration.

    Configurations agreeing on this key allocate identically shaped
    engine arrays (same channel count and VCs per channel) and can
    share one batch; everything else — rate, seed, message length,
    buffer depth, routing, hot-spot and run control — may differ per
    row.
    """
    return (
        config.k,
        config.n,
        config.bidirectional,
        config.model_ejection,
        config.num_vcs,
    )


class _Row:
    """Per-configuration loop state, hoisted once at construction."""

    __slots__ = (
        "workload",
        "engine",
        "ctl",
        "heap",
        "due",
        "total",
        "warmup_end",
        "done",
    )

    def __init__(self, workload: TorusWorkload) -> None:
        cfg = workload.config
        self.workload = workload
        self.engine = workload.engine
        self.heap = workload._arrivals
        self.due = self.heap[0][0] if self.heap else math.inf
        self.total = cfg.total_cycles
        self.warmup_end = workload.warmup_end
        self.done = False
        ctl = self.ctl = self.engine._ctl
        ctl[CTL["warmup"]] = self.warmup_end
        ctl[CTL["backlog_limit"]] = int(
            cfg.saturation_backlog_factor * cfg.num_nodes
        )
        target = cfg.target_completions
        ctl[CTL["target_left"]] = UNLIMITED if target is None else target


class BatchedSoAEngine:
    """Run B same-shape :class:`TorusWorkload`\\ s, one kernel call per tick.

    Parameters
    ----------
    workloads:
        Freshly constructed workloads (not yet run) whose engines are
        all :class:`~repro.simulator.soa.SoACycleEngine` instances of
        one shape (see :func:`batch_shape_key`).  After :meth:`run`
        each workload carries its final statistics exactly as if it had
        run solo.
    kernel:
        ``"auto"`` / ``"c"`` / ``"numpy"``, normalised exactly like
        ``$REPRO_SOA_KERNEL`` (see
        :func:`~repro.simulator.soa.resolve_soa_kernel`).  Engines are
        switched to it; with ``"numpy"`` every row runs solo.
    """

    def __init__(
        self, workloads: Sequence[TorusWorkload], kernel: str = "auto"
    ) -> None:
        if not workloads:
            raise ValueError("need at least one workload to batch")
        engines: List[SoACycleEngine] = []
        for w in workloads:
            e = w.engine
            if not isinstance(e, SoACycleEngine):
                raise TypeError(
                    "BatchedSoAEngine batches structure-of-arrays engines "
                    f"only, got {type(e).__name__} (engine="
                    f"{w.engine_kind!r}); run reference-engine "
                    "configurations solo"
                )
            if e.cycle != 0 or e.messages or e.counters.cycles_run:
                raise ValueError(
                    "workloads must be freshly constructed (engine already "
                    f"at cycle {e.cycle})"
                )
            engines.append(e)
        first = engines[0]
        for w, e in zip(workloads, engines):
            if e.num_channels != first.num_channels or e.num_vcs != first.num_vcs:
                raise ValueError(
                    "all workloads in a batch must share one array shape "
                    f"(batch_shape_key): expected {first.num_channels} "
                    f"channels x {first.num_vcs} VCs, got {e.num_channels} "
                    f"x {e.num_vcs} for seed {w.config.seed}"
                )
        self.num_rows = len(workloads)
        self.workloads = list(workloads)
        self.kernel_name = resolve_soa_kernel(kernel)
        for e in engines:
            if e.kernel_name != self.kernel_name:
                e._init_lifecycle(self.kernel_name)
        self._run_fn = load_c_kernel_batch() if self.kernel_name == "c" else None
        self._ran = False

    # ------------------------------------------------------------------
    @staticmethod
    def _retire(row: _Row) -> None:
        """Finish a row: the warm-up snapshot, if its edge never came."""
        row.done = True
        w = row.workload
        if w._flits_at_warmup is None:
            w._flits_at_warmup = row.engine.channel_flit_counts.copy()
            w._cycles_at_warmup = row.engine.counters.cycles_run

    def _call_block(self, rows: List[_Row]):
        """The kernel's argument: row count, then each row's context."""
        self._call = np.array(
            [len(rows)] + [r.engine._ctx.ctypes.data for r in rows],
            dtype=np.uint64,
        )
        return self._call.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Advance every row to completion (one-shot).

        Each tick replays the solo loop's Python phases per row — the
        warm-up snapshot and the arrival feed, both due on cycles known
        in advance — and then one kernel call runs every live row up to
        its stop.  A row retires when it reaches its end, or on the
        cycle its backlog limit or completion target trips.
        """
        if self._ran:
            raise RuntimeError("BatchedSoAEngine.run() is one-shot")
        self._ran = True
        live: List[_Row] = []
        for w in self.workloads:
            if not w.engine.kernel_lifecycle:
                # Adaptive routing or the numpy kernel: Python lifecycle.
                w.run()
                continue
            row = _Row(w)
            if row.heap:
                live.append(row)
            else:
                # No arrivals at all (rate 0): nothing ever happens.
                self._retire(row)
        if not live:
            return
        fn = self._run_fn
        ptr = self._call_block(live)
        while True:
            for row in live:
                e = row.engine
                w = row.workload
                cyc = e.cycle
                if cyc == row.warmup_end and w._flits_at_warmup is None:
                    w._flits_at_warmup = e.channel_flit_counts.copy()
                    w._cycles_at_warmup = e.counters.cycles_run
                if row.due < cyc + 1:
                    w._feed_arrivals()
                    e._admit_arrivals()
                    row.due = row.heap[0][0]
                # An empty network jumps to the next arrival (clamped to
                # the end of the run); the kernel also stops there, or
                # at the warm-up edge while the snapshot is pending.
                idle_to = int(row.due) if row.due < row.total else row.total
                stop = idle_to
                if w._flits_at_warmup is None and cyc < row.warmup_end < stop:
                    stop = row.warmup_end
                ctl = row.ctl
                ctl[_CUR] = cyc
                ctl[_STOP] = stop
                ctl[_IDLE_TO] = idle_to
            fn(ptr)
            retired = False
            for row in live:
                status = row.engine._finish_call()
                if status == STATUS_EXIT or row.engine.cycle >= row.total:
                    self._retire(row)
                    retired = True
            if retired:
                live = [row for row in live if not row.done]
                if not live:
                    return
                ptr = self._call_block(live)
