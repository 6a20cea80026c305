"""Workload wiring: topology + traffic pattern + cycle engine.

:class:`TorusWorkload` owns the arrival generation (one pending arrival
per source, so memory stays O(N) regardless of run length; Poisson by
default, bursty models via ``arrival_model``), message construction
(destination draw, route lookup or adaptive next-hop choice,
hot/regular classification) and the delivery statistics.

Arrival gaps are pre-drawn in numpy blocks per source (each source owns
a spawned child RNG) rather than one ``next_gap`` call per message;
destination draws stay on the workload RNG in admission order, so a run
is fully determined by ``config.seed`` for any engine and job count.

The cycle engine is selected by ``config.engine`` /
``$REPRO_ENGINE``: the structure-of-arrays engine
(:class:`~repro.simulator.soa.SoACycleEngine`, default) or the
reference engine (:class:`~repro.simulator.engine.CycleEngine`); the
two are bit-identical in output.  :meth:`TorusWorkload.run` hands an
SoA engine that keeps its whole lifecycle in the C kernel
(deterministic routing) to
:class:`~repro.simulator.batch.BatchedSoAEngine` as a one-row batch,
which calls back into :meth:`TorusWorkload._feed_arrivals` between
kernel calls; every other engine is stepped cycle by cycle here.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.config import SimulationConfig, resolve_engine_kind
from repro.traffic.burst import ArrivalModel, ExponentialArrivals
from repro.simulator.engine import CycleEngine
from repro.simulator.flit import Message
from repro.simulator.soa import SoACycleEngine
from repro.simulator.router import RouteTable
from repro.simulator.stats import BatchMeans, LatencyStats
from repro.topology.kary_ncube import KAryNCube
from repro.traffic.patterns import DestinationPattern, HotSpotPattern, UniformPattern

__all__ = ["TorusWorkload"]


class _GapStream:
    """Block-buffered inter-arrival gaps for one source.

    Pre-draws gaps from the source's arrival model in numpy blocks (one
    vectorised RNG call per block for renewal models) instead of one
    scalar draw per admitted message.
    """

    __slots__ = ("model", "rng", "_buf", "_pos")

    _BLOCK = 256

    def __init__(self, model: ArrivalModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self._buf: List[float] = []
        self._pos = 0

    def next_gap(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self.model.sample_gaps(self.rng, self._BLOCK).tolist()
            self._pos = 0
        gap = self._buf[self._pos]
        self._pos += 1
        return gap


class TorusWorkload:
    """Drives a :class:`~repro.simulator.engine.CycleEngine` with the
    paper's workload on a unidirectional k-ary n-cube.

    Parameters
    ----------
    config:
        Run parameters.
    pattern:
        Optional destination pattern override; by default the pattern is
        built from ``config`` (:class:`HotSpotPattern` when
        ``hotspot_fraction > 0`` else :class:`UniformPattern`).
    arrival_model:
        Optional per-source arrival process (defaults to the paper's
        Poisson assumption,
        :class:`~repro.traffic.burst.ExponentialArrivals` at
        ``config.rate``).  Bursty alternatives live in
        :mod:`repro.traffic.burst`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        pattern: Optional[DestinationPattern] = None,
        arrival_model: Optional[ArrivalModel] = None,
    ) -> None:
        self.config = config
        self.network = KAryNCube(
            k=config.k, n=config.n, bidirectional=config.bidirectional
        )
        self.routes = RouteTable(self.network)
        if pattern is None:
            if config.hotspot_fraction > 0.0:
                pattern = HotSpotPattern(
                    self.network,
                    config.hotspot_fraction,
                    config.hotspot_node,
                )
            else:
                pattern = UniformPattern(self.network)
        self.pattern = pattern
        self.rng = np.random.default_rng(config.seed)
        # With explicit ejection modelling, every node owns one more
        # channel (id = num_network_channels + node rank) into its PE.
        self._num_network_channels = self.routes.num_channels
        total_channels = self._num_network_channels + (
            self.network.num_nodes if config.model_ejection else 0
        )
        # Statistics.
        self.warmup_end = config.warmup_cycles
        self.all_stats = LatencyStats()
        self.regular_stats = LatencyStats()
        self.hot_stats = LatencyStats()
        self.batches = BatchMeans(batch_size=200)
        self.measured_generated = 0
        self._flits_at_warmup: Optional[np.ndarray] = None
        self._cycles_at_warmup = 0
        adaptive = config.routing == "adaptive"
        self.engine_kind = resolve_engine_kind(config.engine)
        engine_cls = (
            CycleEngine if self.engine_kind == "reference" else SoACycleEngine
        )
        self.engine = engine_cls(
            num_channels=total_channels,
            num_vcs=config.num_vcs,
            buffer_depth=config.buffer_depth,
            on_delivery=self._delivery_recorder(),
            next_hop_chooser=self._choose_next_hop if adaptive else None,
            adaptive=adaptive,
        )
        self._msg_seq = 0
        # Lazy arrival generation: one pending arrival per source, with
        # gaps pre-drawn in blocks from a per-source child RNG.
        self._arrivals: List[Tuple[float, int]] = []
        self._arrival_models: List[_GapStream] = []
        effective_rate = (
            arrival_model.mean_rate if arrival_model is not None else config.rate
        )
        if arrival_model is None and config.rate > 0.0:
            arrival_model = ExponentialArrivals(config.rate)
        self.effective_rate = effective_rate
        if arrival_model is not None and effective_rate > 0.0:
            gap_rngs = self.rng.spawn(self.network.num_nodes)
            for src in range(self.network.num_nodes):
                stream = _GapStream(arrival_model.fresh(), gap_rngs[src])
                self._arrival_models.append(stream)
                self._arrivals.append((stream.next_gap(), src))
            heapq.heapify(self._arrivals)

    # ------------------------------------------------------------------
    def _hot_rank(self) -> Optional[int]:
        if isinstance(self.pattern, HotSpotPattern):
            return self.pattern.hotspot_rank
        return None

    def ejection_channel_id(self, node_rank: int) -> int:
        if not self.config.model_ejection:
            raise ValueError("ejection channels not modelled in this run")
        return self._num_network_channels + node_rank

    def _make_message(self, arrival_time: float, src: int) -> Message:
        dest = self.pattern.draw(src, self.rng)
        hot_rank = self._hot_rank()
        is_hot = hot_rank is not None and dest == hot_rank and src != hot_rank
        if self.config.routing == "adaptive":
            msg = Message(
                msg_id=self._msg_seq,
                src=src,
                dest=dest,
                length=self.config.message_length,
                generated_at=int(arrival_time),
                route_channels=[0],  # placeholder; chosen below
                route_classes=[0],
                is_hot=is_hot,
                dynamic=True,
            )
            ch, cls, _ = self._choose_next_hop(msg, 0)
            msg.route_channels[0] = ch
            msg.route_classes[0] = cls
        else:
            channels, classes = self.routes.route(src, dest)
            if self.config.model_ejection:
                channels = channels + [self._num_network_channels + dest]
                classes = classes + [0]
            msg = Message(
                msg_id=self._msg_seq,
                src=src,
                dest=dest,
                length=self.config.message_length,
                generated_at=int(arrival_time),
                route_channels=channels,
                route_classes=classes,
                is_hot=is_hot,
            )
        self._msg_seq += 1
        return msg

    # ------------------------------------------------------------------
    # Minimal adaptive routing (Duato-style escape; see config.routing)
    # ------------------------------------------------------------------
    def _position_after(self, msg: Message, hop: int) -> int:
        """Rank of the router holding the header before crossing ``hop``."""
        if hop == 0:
            return msg.src
        prev = msg.route_channels[hop - 1]
        if prev >= self._num_network_channels:
            raise RuntimeError("header advanced past an ejection channel")
        rank, dim, direction = self.routes.channel_owner(prev)
        node = self.network.unrank(rank)
        return self.network.rank(self.network.neighbor(node, dim, direction))

    def _choose_next_hop(self, msg: Message, hop: int):
        """Minimal adaptive next-hop choice with escape fallback.

        Picks the productive dimension whose channel has the most free
        *adaptive* VCs right now (an impatient request — re-evaluated
        every cycle it goes ungranted).  When no adaptive VC is free on
        any productive channel, the message falls back on the escape
        sub-network: the lowest productive dimension with the correct
        dateline class — exactly the deterministic e-cube channel, which
        keeps the escape network deadlock-free (Duato).
        """
        net = self.network
        if hop > 0 and msg.route_channels[hop - 1] >= self._num_network_channels:
            return None  # the header just crossed the ejection channel
        cur_rank = self._position_after(msg, hop)
        if cur_rank == msg.dest:
            if self.config.model_ejection and (
                not msg.route_channels
                or msg.route_channels[hop - 1] < self._num_network_channels
            ):
                # One final hop into the PE through the ejection channel.
                return (self._num_network_channels + msg.dest, 0, False)
            return None
        cur = net.unrank(cur_rank)
        dst = net.unrank(msg.dest)
        productive = [d for d in range(net.n) if cur[d] != dst[d]]
        # Adaptive choice: most free adaptive-class VCs (class index 2).
        best_ch = -1
        best_free = 0
        best_dim = -1
        for d in productive:
            ch = self.routes.channel_id(cur_rank, d)
            free = self.engine.pools[ch].free_count(2)
            if free > best_free:
                best_ch, best_free, best_dim = ch, free, d
        if best_ch >= 0:
            if cur[best_dim] == net.k - 1:
                msg.wrapped_dims |= 1 << best_dim
            return (best_ch, 2, True)
        # Escape: deterministic e-cube channel with dateline class.
        d = productive[0]
        ch = self.routes.channel_id(cur_rank, d)
        wrapped = bool((msg.wrapped_dims >> d) & 1)
        at_wrap = cur[d] == net.k - 1
        if at_wrap:
            msg.wrapped_dims |= 1 << d
        return (ch, 1 if (wrapped or at_wrap) else 0, False)

    def _feed_arrivals(self) -> None:
        """Materialise every arrival due before the next engine cycle."""
        limit = self.engine.cycle + 1
        heap = self._arrivals
        while heap and heap[0][0] < limit:
            t, src = heapq.heappop(heap)
            msg = self._make_message(t, src)
            if msg.generated_at >= self.warmup_end:
                self.measured_generated += 1
            self.engine.schedule_message(t, msg)
            heapq.heappush(
                heap, (t + self._arrival_models[src].next_gap(), src)
            )

    def _delivery_recorder(self) -> Callable[[Message, int], None]:
        """The engine's delivery callback: post-warm-up latency statistics.

        It holds this workload's statistics objects, not the workload,
        so workload and engine form no reference cycle and a finished
        run's tables are freed as soon as the workload is dropped.
        """
        warmup_end = self.warmup_end
        all_stats = self.all_stats
        batches = self.batches
        hot_stats = self.hot_stats
        regular_stats = self.regular_stats

        def on_delivery(msg: Message, completion_cycle: int) -> None:
            if completion_cycle < warmup_end:
                return
            latency = completion_cycle - msg.generated_at + 1
            all_stats.record(latency, hops=msg.num_hops)
            batches.record(latency)
            if msg.is_hot:
                hot_stats.record(latency, hops=msg.num_hops)
            else:
                regular_stats.record(latency, hops=msg.num_hops)

        return on_delivery

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run warmup + measurement (or until saturation abort).

        An engine whose whole lifecycle runs in the C kernel (the SoA
        engine with deterministic routing) runs as a one-row
        :class:`~repro.simulator.batch.BatchedSoAEngine`, the loop
        batched runs share.  Every other engine — the reference engine,
        adaptive routing, the numpy kernel — is stepped cycle by cycle
        here.
        """
        if getattr(self.engine, "kernel_lifecycle", False):
            from repro.simulator.batch import BatchedSoAEngine

            BatchedSoAEngine([self]).run()
            return
        cfg = self.config
        if not self._arrivals:
            self._flits_at_warmup = self.engine.channel_flit_counts.copy()
            return
        engine = self.engine
        backlog_limit = int(cfg.saturation_backlog_factor * cfg.num_nodes)
        total = cfg.total_cycles
        target = cfg.target_completions
        warmup_end = self.warmup_end
        # Hot loop: every attribute used per cycle is a local.
        feed = self._feed_arrivals
        step = engine.step
        counters = engine.counters
        all_stats = self.all_stats
        heap = self._arrivals
        while engine.cycle < total:
            if engine.cycle == warmup_end and self._flits_at_warmup is None:
                self._flits_at_warmup = engine.channel_flit_counts.copy()
                self._cycles_at_warmup = counters.cycles_run
            feed()
            step()
            if counters.generated - counters.completed > backlog_limit:
                break
            if target is not None and all_stats.count >= target:
                break
            if heap and engine.idle():
                # Fully idle network: jump the clock to the next pending
                # (workload-side) arrival instead of stepping through
                # empty cycles one by one, clamping at the warmup
                # boundary so the snapshot above is still taken on the
                # right cycle.  Skipped cycles count as run — see
                # CycleEngine.fast_forward_to.
                nxt = min(int(heap[0][0]), total)
                if engine.cycle < warmup_end < nxt:
                    nxt = warmup_end
                engine.fast_forward_to(nxt)
        if self._flits_at_warmup is None:
            self._flits_at_warmup = engine.channel_flit_counts.copy()
            self._cycles_at_warmup = engine.counters.cycles_run

    # ------------------------------------------------------------------
    def backlog_saturated(self) -> bool:
        cfg = self.config
        return self.engine.counters.backlog > int(
            cfg.saturation_backlog_factor * cfg.num_nodes
        )

    def drain_ratio(self) -> float:
        """Measured completions per measured generation (1 at steady state)."""
        if self.measured_generated == 0:
            return 1.0
        return self.all_stats.count / self.measured_generated

    def measured_channel_utilization(self) -> np.ndarray:
        """Per-channel flit utilisation over the measurement window."""
        assert self._flits_at_warmup is not None
        cycles = self.engine.counters.cycles_run - self._cycles_at_warmup
        if cycles <= 0:
            return np.zeros_like(self.engine.channel_flit_counts, dtype=float)
        delta = self.engine.channel_flit_counts - self._flits_at_warmup
        return delta / cycles

    def hot_sink_channel_utilization(self) -> float:
        """Utilisation of the most loaded channel entering the hot node.

        The last-dimension channel one hop upstream of the hot node
        carries (nearly) the entire hot-spot flow — the analytical
        model's saturation driver (``lam^h_y,1``).
        """
        hot_rank = self._hot_rank()
        if hot_rank is None:
            return 0.0
        net = self.network
        util = self.measured_channel_utilization()
        hot = net.unrank(hot_rank)
        dim = net.n - 1
        upstream = list(hot)
        upstream[dim] = (upstream[dim] - 1) % net.k
        best = util[self.routes.channel_id(net.rank(tuple(upstream)), dim)]
        if net.bidirectional:
            downstream = list(hot)
            downstream[dim] = (downstream[dim] + 1) % net.k
            ch = self.routes.channel_id(net.rank(tuple(downstream)), dim, -1)
            best = max(best, util[ch])
        return float(best)
