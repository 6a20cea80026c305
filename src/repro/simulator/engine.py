"""The cycle engine: wormhole switching, VC allocation, link arbitration.

One engine cycle has four phases:

1. **Arrivals** — Poisson arrivals due this cycle are appended to their
   source's (infinite) injection queue; the queue head requests a VC of
   its first channel.
2. **VC allocation** — each channel grants free VCs to pending header
   requests, FCFS within each dateline class.
3. **Link arbitration** — every channel with busy VCs picks at most one
   *ready* VC round-robin (a VC is ready when a flit of its message
   waits upstream and the downstream VC buffer has a free slot at the
   start of the cycle) and schedules one flit transfer.  One flit per
   physical channel per cycle — the paper's "network cycle time is the
   transmission time of a single flit across a physical channel".
4. **Apply** — scheduled flits move; header arrivals enqueue the next
   hop's VC request, tail departures release upstream VCs, delivered
   messages are retired into the statistics.

Credits are returned with one-cycle latency (phase 3 readiness uses
start-of-cycle occupancies), so full-rate streaming needs
``buffer_depth >= 2``; see :class:`~repro.simulator.config.SimulationConfig`.

The engine is deliberately free of topology knowledge: it consumes
pre-computed routes (:class:`~repro.simulator.router.RouteTable`) or,
in adaptive mode, a *next-hop chooser* callback that extends routes hop
by hop against live virtual-channel availability (impatient adaptive
requests re-evaluate every cycle; escape requests queue FCFS on the
deadlock-free dateline sub-network).  That separation is what makes it
reusable for every traffic pattern and routing mode in the examples.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.buffers import VirtualChannelPool, adaptive_partition
from repro.simulator.flit import Message

# A chooser maps (message, next hop index) to (channel_id, vc_class,
# impatient) or None when the message's header already sits at its
# destination's router.  Impatient requests are re-evaluated every cycle
# instead of committing to a VC queue.
NextHopChooser = Callable[[Message, int], Optional[Tuple[int, int, bool]]]

__all__ = ["CycleEngine", "EngineCounters"]

# A network with in-flight messages must make progress; a long stretch of
# idle cycles with messages present indicates an engine bug (the dateline
# scheme rules out true deadlock).
_DEADLOCK_WATCHDOG_CYCLES = 20_000


class EngineCounters:
    """Aggregate engine activity counters."""

    __slots__ = ("generated", "completed", "flit_moves", "cycles_run")

    def __init__(self) -> None:
        self.generated = 0
        self.completed = 0
        self.flit_moves = 0
        self.cycles_run = 0

    @property
    def backlog(self) -> int:
        """Messages generated but not yet delivered."""
        return self.generated - self.completed


class CycleEngine:
    """Flit-level wormhole engine over pre-routed messages.

    Parameters
    ----------
    num_channels:
        Number of physical channels (dense ids ``0..num_channels-1``).
    num_vcs:
        Virtual channels per physical channel.
    buffer_depth:
        Flit capacity of each VC buffer.
    on_delivery:
        Callback ``(message, completion_cycle)`` invoked when a tail
        flit reaches its destination.
    """

    def __init__(
        self,
        num_channels: int,
        num_vcs: int,
        buffer_depth: int,
        on_delivery: Optional[Callable[[Message, int], None]] = None,
        next_hop_chooser: Optional["NextHopChooser"] = None,
        adaptive: bool = False,
    ) -> None:
        if num_channels < 1:
            raise ValueError(f"need >= 1 channel, got {num_channels}")
        if buffer_depth < 1:
            raise ValueError(f"buffer depth must be >= 1, got {buffer_depth}")
        if adaptive and next_hop_chooser is None:
            raise ValueError("adaptive mode requires a next-hop chooser")
        self.num_channels = num_channels
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.on_delivery = on_delivery
        self.next_hop_chooser = next_hop_chooser
        self.adaptive = adaptive
        self.messages: Dict[int, Message] = {}
        self.cycle = 0
        self.counters = EngineCounters()
        self.channel_flit_counts = np.zeros(num_channels, dtype=np.int64)
        # Arrival stream: heap of (time, tiebreak, message-factory args).
        self._arrival_heap: List[Tuple[float, int, Message]] = []
        self._arrival_seq = 0
        self._last_progress_cycle = 0
        self._watchdog_cycles = _DEADLOCK_WATCHDOG_CYCLES
        self._init_lifecycle()

    def _init_lifecycle(self) -> None:
        """Allocation state: VC pools, source FIFOs, request bookkeeping."""
        partition = adaptive_partition(self.num_vcs) if self.adaptive else None
        self.pools: List[VirtualChannelPool] = [
            VirtualChannelPool(self.num_vcs, partition)
            for _ in range(self.num_channels)
        ]
        # Injection: per-source FIFO queues keyed by source rank.
        self._source_queues: Dict[int, Deque[Message]] = {}
        self._head_requested: Dict[int, bool] = {}
        self._active_channels: set[int] = set()
        self._pending_channels: set[int] = set()
        self._needs_reroute: List[Tuple[int, int]] = []
        # Allocation can only produce a grant after a new request or a
        # VC release; between those events the phase is a fixed point
        # (stuck FCFS queues stay stuck) and is skipped wholesale.
        self._alloc_dirty = False
        # Channels whose pool state changed (request or release) since
        # their last allocation visit.  In deterministic mode the pass
        # visits only these: an unchanged channel re-runs to the same
        # fixed point (its grant loop already stopped on empty frees or
        # empty queues), so skipping it is exact — see _allocate_vcs.
        self._alloc_candidates: set[int] = set()

    # ------------------------------------------------------------------
    # Arrival / injection interface
    # ------------------------------------------------------------------
    def schedule_message(self, arrival_time: float, message: Message) -> None:
        """Queue a message to arrive at ``floor(arrival_time)``."""
        if arrival_time < self.cycle:
            raise ValueError(
                f"arrival time {arrival_time} is in the engine's past "
                f"(cycle {self.cycle})"
            )
        heapq.heappush(
            self._arrival_heap, (arrival_time, self._arrival_seq, message)
        )
        self._arrival_seq += 1

    def next_arrival_cycle(self) -> Optional[int]:
        if not self._arrival_heap:
            return None
        return int(self._arrival_heap[0][0])

    def _admit_arrivals(self) -> None:
        limit = self.cycle + 1
        heap = self._arrival_heap
        while heap and heap[0][0] < limit:
            _, _, msg = heapq.heappop(heap)
            self.counters.generated += 1
            self.messages[msg.msg_id] = msg
            queue = self._source_queues.setdefault(msg.src, deque())
            queue.append(msg)
            if not self._head_requested.get(msg.src, False):
                self._request_head(msg.src)

    def _request_head(self, src: int) -> None:
        queue = self._source_queues.get(src)
        if not queue:
            return
        head = queue[0]
        ch = head.route_channels[0]
        # Adaptive first hops were chosen against live VC availability;
        # they re-evaluate (impatient) rather than committing to a queue.
        impatient = head.dynamic and head.route_classes[0] >= 2
        self.pools[ch].request(head.msg_id, 0, head.route_classes[0], impatient)
        self._pending_channels.add(ch)
        self._alloc_candidates.add(ch)
        self._alloc_dirty = True
        self._head_requested[src] = True

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _allocate_vcs(self) -> None:
        done = []
        # Injection grants can enqueue the next head's request (possibly
        # on a new channel), so iterate over a snapshot; requests added
        # to channels outside it are served next cycle.  The snapshot is
        # *sorted* so within-cycle FCFS enqueue order is a function of
        # the configuration alone — that is what lets the SoA engine
        # reproduce this engine's arbitration decisions bit for bit.
        #
        # In deterministic mode the snapshot is the *changed-channel*
        # set rather than every pending channel: a channel whose pool
        # was untouched since its last visit re-runs to the same fixed
        # point (the grant loop already stopped on an empty free list or
        # empty queue, and without impatient requests a visit has no
        # other side effect), so skipping it cannot alter any grant.
        # Mid-pass requests keep the snapshot semantics exactly: a
        # channel past the current position joins this pass (as it
        # would in the full sorted snapshot), an earlier one waits for
        # the next cycle (as it did when its slot had already been
        # visited).  Adaptive mode still visits every pending channel,
        # because cancelling unserved impatient requests is a per-pass
        # side effect on *unchanged* channels too.
        messages = self.messages
        self._alloc_dirty = False  # re-set by requests/releases below
        candidates = self._alloc_candidates
        if self.adaptive:
            order = sorted(self._pending_channels)
            pending_at_start = None
        else:
            order = sorted(candidates)
            pending_at_start = self._pending_channels.copy()
        candidates.clear()
        queued = set(order)
        pos = 0
        while pos < len(order):
            ch = order[pos]
            pos += 1
            pool = self.pools[ch]
            pending = pool.pending
            free_by_class = pool.free_by_class
            for cls in range(pool.num_classes):
                if not pending[cls]:
                    continue
                if free_by_class[cls]:
                    grant = pool.grant_one(cls)
                    while grant is not None:
                        msg_id, hop, vc = grant
                        self._on_grant(ch, messages[msg_id], hop, vc)
                        grant = pool.grant_one(cls)
                # Cancel unserved impatient requests; their messages
                # re-evaluate against fresh VC availability next cycle.
                if pool.impatient_count[cls]:
                    self._needs_reroute.extend(pool.drain_impatient(cls))
            if not pool.has_pending():
                done.append(ch)
            if candidates and pending_at_start is not None:
                # Grants above may have enqueued fresh requests.  Match
                # the full-snapshot pass exactly: a dirtied channel that
                # was pending at pass start and whose sorted slot is
                # still ahead joins this pass; every other one (already
                # visited, or not in the start snapshot) waits for the
                # next cycle, keeping its candidate mark.
                added = [
                    c2
                    for c2 in candidates
                    if c2 > ch and c2 not in queued and c2 in pending_at_start
                ]
                if added:
                    order.extend(added)
                    queued.update(added)
                    order[pos:] = sorted(order[pos:])
                    candidates.difference_update(added)
        pools = self.pools
        for ch in done:
            # Re-check before discarding: a grant later in this pass may
            # have injected a fresh head request onto a channel that was
            # drained earlier in the pass; dropping it then would orphan
            # the request (and deadlock the source) forever.
            if not pools[ch].has_pending():
                self._pending_channels.discard(ch)

    def _on_grant(self, ch: int, msg: Message, hop: int, vc: int) -> None:
        """Bookkeeping for one VC grant (overridden by the SoA engine)."""
        msg.vcs[hop] = vc
        msg.alloc_hops = hop + 1
        self._active_channels.add(ch)
        if hop == 0:
            self._on_injection_start(msg)

    def _on_injection_start(self, msg: Message) -> None:
        src = msg.src
        queue = self._source_queues[src]
        if not queue or queue[0].msg_id != msg.msg_id:
            raise RuntimeError("injection grant to a non-head message")
        queue.popleft()
        msg.injected_at = self.cycle
        self._head_requested[src] = False
        if queue:
            self._request_head(src)
        else:
            del self._source_queues[src]

    def _reroute_cancelled(self) -> None:
        """Re-issue next-hop requests for messages whose impatient
        (adaptive) request was cancelled last cycle."""
        pending, self._needs_reroute = self._needs_reroute, []
        for msg_id, hop in pending:
            msg = self.messages.get(msg_id)
            if msg is None:
                raise RuntimeError("cancelled request for a retired message")
            choice = self.next_hop_chooser(msg, hop)
            if choice is None:
                raise RuntimeError("reroute reached destination unexpectedly")
            ch, cls, impatient = choice
            msg.route_channels[hop] = ch
            msg.route_classes[hop] = cls
            self.pools[ch].request(msg.msg_id, hop, cls, impatient)
            self._pending_channels.add(ch)
            self._alloc_candidates.add(ch)
        self._alloc_dirty = True

    def _scan_moves(self) -> List[Tuple[Message, int]]:
        # Channels are scanned in sorted id order (see _allocate_vcs for
        # why determinism matters); lookups are hoisted out of the inner
        # loop and the per-cycle snapshot list is the only allocation.
        moves: List[Tuple[Message, int]] = []
        depth = self.buffer_depth
        messages = self.messages
        pools = self.pools
        append = moves.append
        for ch in sorted(self._active_channels):
            pool = pools[ch]
            if pool.busy_count == 0:
                continue
            holders = pool.holders
            holder_hops = pool.holder_hops
            nv = pool.num_vcs
            start = pool.rr
            for i in range(nv):
                v = start + i
                if v >= nv:
                    v -= nv
                mid = holders[v]
                if mid < 0:
                    continue
                msg = messages[mid]
                hop = holder_hops[v]
                crossed = msg.crossed
                sent = crossed[hop]
                if hop == 0:
                    if msg.length <= sent:
                        continue
                elif crossed[hop - 1] <= sent:
                    continue
                if hop != msg.final_hop:
                    nxt = hop + 1
                    drained = crossed[nxt] if nxt < len(crossed) else 0
                    if sent - drained >= depth:
                        continue
                append((msg, hop))
                pool.rr = v + 1 if v + 1 < nv else 0
                break
        return moves

    def _apply_moves(self, moves: List[Tuple[Message, int]]) -> None:
        for msg, hop in moves:
            msg.crossed[hop] += 1
            ch = msg.route_channels[hop]
            self.channel_flit_counts[ch] += 1
            self.counters.flit_moves += 1
            c = msg.crossed[hop]
            if c == 1:
                if msg.dynamic:
                    # Header reached the next router: discover the next
                    # hop (or the destination) through the chooser.
                    choice = self.next_hop_chooser(msg, hop + 1)
                    if choice is None:
                        msg.final_hop = hop
                    else:
                        nxt_ch, cls, impatient = choice
                        msg.extend_route(nxt_ch, cls)
                        self.pools[nxt_ch].request(
                            msg.msg_id, hop + 1, cls, impatient
                        )
                        self._pending_channels.add(nxt_ch)
                        self._alloc_candidates.add(nxt_ch)
                        self._alloc_dirty = True
                elif hop + 1 < msg.num_hops:
                    # Header reached the next router: request the next VC.
                    nxt_ch = msg.route_channels[hop + 1]
                    self.pools[nxt_ch].request(
                        msg.msg_id, hop + 1, msg.route_classes[hop + 1]
                    )
                    self._pending_channels.add(nxt_ch)
                    self._alloc_candidates.add(nxt_ch)
                    self._alloc_dirty = True
            if c == msg.length:
                # Tail crossed this channel: it has left the upstream
                # buffer, so the previous hop's VC drains free.
                if hop >= 1:
                    self._release_hop(msg, hop - 1)
                if hop == msg.final_hop:
                    self._release_hop(msg, hop)
                    self._complete(msg)

    def _release_hop(self, msg: Message, hop: int) -> None:
        vc = msg.vcs[hop]
        if vc < 0:
            raise RuntimeError(
                f"message {msg.msg_id} releasing unallocated hop {hop}"
            )
        ch = msg.route_channels[hop]
        pool = self.pools[ch]
        pool.release(vc)
        msg.vcs[hop] = -1
        self._alloc_dirty = True
        self._alloc_candidates.add(ch)
        if pool.busy_count == 0:
            self._active_channels.discard(ch)

    def _complete(self, msg: Message) -> None:
        self.counters.completed += 1
        del self.messages[msg.msg_id]
        if self.on_delivery is not None:
            self.on_delivery(msg, self.cycle)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Run one cycle; returns the number of flits moved."""
        self._admit_arrivals()
        if self._needs_reroute:
            self._reroute_cancelled()
        if self._alloc_dirty and self._pending_channels:
            self._allocate_vcs()
        moves = self._scan_moves() if self._active_channels else []
        if moves:
            self._apply_moves(moves)
            self._last_progress_cycle = self.cycle
        elif self.messages:
            if self.cycle - self._last_progress_cycle > self._watchdog_cycles:
                raise RuntimeError(
                    f"no flit progress for {self._watchdog_cycles} cycles "
                    f"with {len(self.messages)} messages in flight — engine bug"
                )
        else:
            self._last_progress_cycle = self.cycle
        self.cycle += 1
        self.counters.cycles_run += 1
        return len(moves)

    def idle(self) -> bool:
        """True when nothing is in flight, queued or pending."""
        return not self.messages and not self._arrival_heap

    def fast_forward_to(self, cycle: int) -> None:
        """Jump an idle engine's clock forward to ``cycle``.

        The skipped cycles *are* simulated — with nothing in flight or
        queued, provably nothing can happen in them — so they count
        towards :attr:`EngineCounters.cycles_run` exactly as if each
        had been stepped; results and utilisation denominators are
        unchanged by fast-forwarding.
        """
        # Messages waiting in source queues are in ``messages`` too.
        if self.messages:
            raise RuntimeError("cannot fast-forward with messages in flight")
        if cycle <= self.cycle:
            return
        self.counters.cycles_run += cycle - self.cycle
        self.cycle = cycle
        self._last_progress_cycle = cycle

    def fast_forward_if_idle(self) -> None:
        """Jump the clock to the next scheduled arrival when empty."""
        if self.messages:
            return
        nxt = self.next_arrival_cycle()
        if nxt is not None:
            self.fast_forward_to(nxt)
