"""Outside-in tracing: timed wrappers around the repo's public calls.

The benchmark never edits ``src/``.  A traced run instead replaces a
fixed set of functions *where the program looks them up* (a module
global such as ``repro.core.model.mg1_waiting_time``, or a method on
its class such as ``SoACycleEngine.step``) with a wrapper that times
the call, and restores every original afterwards.

Every wrapped call is a span with a name, a start, an end and the span
that caused it (the innermost open span on the same thread).  High
frequency spans (one per simulated cycle) are folded into per-name
aggregates as they close; spans listed as *kept* (per point, per
campaign, per store access ...) are also stored in memory and written
out when the benchmark ends.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "Patch", "install", "PATCHES", "self_times"]


class Tracer:
    """In-memory span recorder with per-name aggregates.

    ``agg[name] = [calls, total_s, child_s]``; ``pairs[(parent, child)]``
    is the time ``child`` spans spent directly under ``parent`` spans;
    ``counts`` holds counters the wrappers add from call results.
    Only the thread that created the tracer records: calls on other
    threads (the file-queue heartbeat thread) pass straight through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.agg: Dict[str, List[float]] = {}
        self.pairs: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.stack: List[list] = []
        self._main = threading.get_ident()
        self._next_id = 1

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _keep(self, frame: list, parent: Optional[list], start: float, end: float) -> None:
        if not frame[3]:
            frame[3] = self._new_id()
        pid = 0
        if parent is not None:
            if not parent[3]:
                parent[3] = self._new_id()
            pid = parent[3]
        self.spans.append((frame[3], pid, frame[0], start, end))

    def open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the recording thread."""
        return any(f[0] == name for f in self.stack)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` may count.

        A span's frame is ``[name, start, child_s, id]``; on exit its
        duration is added to its name's aggregate and to its parent's
        child time.  The body is written out inline: it runs once per
        simulated cycle in the traced run.
        """
        main = self._main
        get_ident = threading.get_ident
        clock = self.clock
        stack = self.stack
        pairs = self.pairs
        keep_span = self._keep
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, 0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                    pairs[(parent[0], name)] += dur
                if keep:
                    keep_span(frame, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self) -> dict:
        """JSON-ready snapshot of everything recorded."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items() if v[0]},
            "pairs": [[p, c, t] for (p, c), t in self.pairs.items()],
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Self time of every span in a recorded tree.

    ``spans`` are ``(id, parent_id, name, start, end)`` rows (parent 0
    for roots).  A span's self time is its duration minus the part of
    its interval covered by its children (overlapping children count
    once; a child's time outside the parent is ignored).  This is the
    reference definition the online aggregates of :class:`Tracer` follow
    for the non-overlapping children of single-threaded code.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {}
    for sid, pid, _name, start, end in spans:
        bounds[sid] = (start, end)
        if pid:
            children[pid].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# What the traced run wraps
# ---------------------------------------------------------------------------
class Patch:
    """One replaced attribute: ``owner.attr`` (owner a module or class)."""

    def __init__(self, owner: object, attr: str, replacement: object) -> None:
        self.owner = owner
        self.attr = attr
        self.had_own = attr in vars(owner)
        self.original = vars(owner)[attr] if self.had_own else getattr(owner, attr)
        self.replacement = replacement

    def apply(self) -> None:
        setattr(self.owner, self.attr, self.replacement)

    def undo(self) -> None:
        if self.had_own:
            setattr(self.owner, self.attr, self.original)
        else:
            delattr(self.owner, self.attr)


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _count_hits(tr: Tracer):
    def after(_args, result):
        tr.counts["store.hits"] += result is not None

    return after


def _count_claims(tr: Tracer):
    def after(_args, result):
        tr.counts["backends.worker.claim_wins"] += bool(result)

    return after


def _count_solve(tr: Tracer):
    from repro.core.fixed_point import FixedPointStatus

    failed = FixedPointStatus.FAILED

    def after(_args, res):
        c = tr.counts
        c["core.fixed_point.rows"] += len(res.iterations)
        c["core.fixed_point.iterations"] += int(res.iterations.sum())
        c["core.fixed_point.reseeded_rows"] += int(res.reseeded.sum())
        c["core.fixed_point.failed_rows"] += sum(s is failed for s in res.status)

    return after


def _count_probes(tr: Tracer):
    def after(_args, results):
        if tr.open("core.model.saturation"):
            tr.counts["core.model.saturation_probes"] += len(results)

    return after


#: ``(module, attribute path, span name, kept?, result counter)``.
#: The attribute is replaced where the program looks it up at call time.
PATCHES: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("repro.experiments.sweep", "SweepEngine.run_panels", "experiments.sweep.run_panels", True, None),
    ("repro.experiments.sweep", "_simulate_point", "experiments.sweep.simulate_point", True, None),
    ("repro.experiments.sweep", "_simulate_chunk", "experiments.sweep.simulate_chunk", True, None),
    ("repro.experiments.sweep", "run_batch", "simulator.run_batch", True, None),
    ("repro.simulator.sim", "TorusWorkload", "topology.build", True, None),
    ("repro.simulator.sim", "Simulation.run", "simulator.run", True, None),
    ("repro.simulator.soa", "SoACycleEngine.step", "simulator.soa.step", False, None),
    ("repro.simulator.batch", "BatchedSoAEngine.run", "simulator.batch.run", True, None),
    ("repro.simulator.engine", "CycleEngine.schedule_message", "traffic.schedule", False, None),
    ("repro.simulator.stats", "LatencyStats.record", "simulator.stats.record", False, None),
    ("repro.simulator.stats", "BatchMeans.record", "simulator.stats.record", False, None),
    ("repro.core.model", "HotSpotLatencyModel.__init__", "core.model.build", True, None),
    ("repro.core.model", "HotSpotLatencyModel.evaluate_batch", "core.model.evaluate_batch", False, _count_probes),
    ("repro.core.model", "HotSpotLatencyModel._update_batch", "core.model.update", False, None),
    ("repro.core.model", "batched_saturation_search", "core.model.saturation", True, None),
    ("repro.core.fixed_point", "FixedPointSolver.solve_batch", "core.fixed_point.solve_batch", False, _count_solve),
    ("repro.core.model", "mg1_waiting_time", "queueing.mg1_waiting_time", False, None),
    ("repro.core.model", "blocking_delay", "queueing.blocking_delay", False, None),
    ("repro.core.model", "blocking_delay_raw", "queueing.blocking_delay_raw", False, None),
    ("repro.core.model", "multiplexing_degree", "queueing.multiplexing_degree", False, None),
    ("repro.store", "ResultStore.get", "store.get", True, _count_hits),
    ("repro.store", "ResultStore.put", "store.put", True, None),
    ("repro.resilience", "CheckpointJournal.record", "resilience.journal", True, None),
    ("repro.backends.worker", "try_claim", "backends.worker.claim", True, _count_claims),
    ("repro.backends.filequeue", "FileQueueBackend.run", "backends.coordinator.run", True, None),
)

#: Span names of the C kernel calls (solo and batched share one name).
KERNEL = "simulator.kernel"
#: Span name of result publication by a file-queue worker.
PUBLISH = "backends.worker.publish"


def _kernel_loader(tr: Tracer, load: Callable) -> Callable:
    """``load_c_kernel``-alike returning a timed wrapper of the ctypes kernel."""
    cache: Dict[int, Callable] = {}

    def loader(*args, **kwargs):
        fn = load(*args, **kwargs)
        if fn is None:
            return None
        timed = cache.get(id(fn))
        if timed is None:
            timed = cache[id(fn)] = tr.wrap(KERNEL, fn)
        return timed

    loader.__wrapped__ = load  # type: ignore[attr-defined]
    return loader


def _publish_writer(tr: Tracer, write: Callable, first_beat: Dict[str, float]):
    """Worker-side ``atomic_write_json``: times result publication.

    Heartbeat writes pass through untimed; the first one's file mtime is
    kept as the worker's ready time.
    """
    timed = tr.wrap(PUBLISH, write, keep=True)

    def writer(path, payload, *args, **kwargs):
        parent = getattr(path, "parent", None)
        if parent is not None and parent.name == "results":
            return timed(path, payload, *args, **kwargs)
        out = write(path, payload, *args, **kwargs)
        if parent is not None and parent.name == "heartbeats" and not first_beat:
            try:
                first_beat["mtime"] = path.stat().st_mtime
            except OSError:
                pass
        return out

    writer.__wrapped__ = write  # type: ignore[attr-defined]
    return writer


def _arrival_classes() -> List[type]:
    from repro.traffic import burst

    return [
        cls
        for cls in vars(burst).values()
        if isinstance(cls, type)
        and issubclass(cls, burst.ArrivalModel)
        and "sample_gaps" in vars(cls)
        and not getattr(vars(cls)["sample_gaps"], "__isabstractmethod__", False)
    ]


class Installed:
    """The wrappers of one traced run; :meth:`uninstall` restores all."""

    def __init__(self, patches: List[Patch], first_beat: Dict[str, float]) -> None:
        self.patches = patches
        self.first_beat = first_beat

    def uninstall(self) -> None:
        for p in reversed(self.patches):
            p.undo()
        self.patches = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()


def install(tr: Tracer) -> Installed:
    """Install every wrapper of :data:`PATCHES` (plus kernel/arrival/publish)."""
    patches: List[Patch] = []
    for module, path, name, keep, counter in PATCHES:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        after = counter(tr) if counter is not None else None
        patches.append(Patch(owner, attr, tr.wrap(name, original, keep=keep, after=after)))
    for module, attr in (
        ("repro.simulator.soa", "load_c_kernel"),
        ("repro.simulator.batch", "load_c_kernel_batch"),
    ):
        owner, attr = _resolve(module, attr)
        patches.append(Patch(owner, attr, _kernel_loader(tr, getattr(owner, attr))))
    for cls in _arrival_classes():
        patches.append(Patch(cls, "sample_gaps", tr.wrap("traffic.gap", vars(cls)["sample_gaps"])))
    first_beat: Dict[str, float] = {}
    owner, attr = _resolve("repro.backends.worker", "atomic_write_json")
    patches.append(Patch(owner, attr, _publish_writer(tr, getattr(owner, attr), first_beat)))
    for p in patches:
        p.apply()
    return Installed(patches, first_beat)
