"""Data-oriented (structure-of-arrays) cycle engine.

:class:`SoACycleEngine` runs the same four-phase wormhole simulation as
the reference :class:`~repro.simulator.engine.CycleEngine`, but on flat
preallocated ``numpy`` int32 arrays instead of per-message ``Message``
objects and per-pool Python lists.  Link-arbitration state is indexed
by *slot* (``channel * num_vcs + vc``), one slot per virtual channel:

``avail``
    Flits ready to cross this channel for the holding worm
    (``crossed[hop-1] - crossed[hop]``, or ``length - crossed[0]`` at
    the injection hop).  ``0`` for free slots, so a free slot is never
    ready.
``head_room``
    Free space in the downstream VC buffer
    (``buffer_depth - (crossed[hop] - crossed[hop+1])``), plus a large
    constant once the hop is known to be final (instantaneous ejection:
    the depth check never applies).
``moved``
    Flits that crossed this channel for the holder (``crossed[hop]``).
``nxt_evt``
    The ``moved`` value at which the holder next needs boundary
    handling: ``1`` until the header arrival is processed, then the
    message length for the tail departure.
``nxt_idx`` / ``prv_idx``
    Flat slot index of the downstream / upstream segment of the same
    worm (or the sentinel slot ``N``), forming a doubly linked list per
    in-flight message.  Each flit move feeds one flit of availability
    downstream and returns one credit upstream through these links, so
    per-message ``crossed`` vectors are never touched per cycle.

Where the rest of the lifecycle runs depends on the kernel and the
routing (:attr:`SoACycleEngine.kernel_lifecycle`):

* **Deterministic routing with the C kernel** (the default): the whole
  lifecycle — source FIFOs, FCFS VC allocation, the sweep, header and
  tail handling, completion — runs in ``repro_soa_run`` of
  :mod:`repro.simulator.kernel` over per-engine tables (request queues
  and free-VC stacks per channel class, a message table holding each
  admitted message's route).  Python only admits arrivals into those
  tables and delivers completions; there are no
  :class:`~repro.simulator.buffers.VirtualChannelPool` objects, and the
  ``Message`` objects are touched at admission and delivery only.
  :class:`~repro.simulator.batch.BatchedSoAEngine` drives such engines
  a span of cycles per call (a solo ``TorusWorkload.run`` is its
  one-row case); :meth:`SoACycleEngine.step` runs one cycle.
* **Adaptive routing, or the numpy kernel** (``REPRO_SOA_KERNEL=numpy``
  or no C compiler): arrival admission, VC allocation and rerouting are
  the reference engine's, on the same pools, and each cycle's sweep is
  ``repro_soa_cycle`` (C) or :meth:`SoACycleEngine._cycle_numpy`, whose
  boundary events Python handles.  Adaptive routing stays here because
  its next-hop chooser reads live pool state.

Both engines visit allocation channels and sweep channels in sorted id
order, which is what makes their outputs (delivered latencies,
counters, per-channel flit counts) bit-identical — a property the
equivalence test suites assert over randomised configurations, with the
reference engine and the numpy lifecycle as two independent oracles of
the C lifecycle.
"""

from __future__ import annotations

import ctypes
import heapq
import os
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.simulator.config import FLIT_LIMIT
from repro.simulator.engine import CycleEngine
from repro.simulator.flit import Message
from repro.simulator.kernel import (
    CTL,
    CTL_FIELDS,
    ROW_LAYOUT,
    STATUS_BUG,
    STATUS_STALL,
    UNLIMITED,
    load_c_kernel,
    load_c_kernel_batch,
)

__all__ = ["SoACycleEngine", "resolve_soa_kernel"]

# Added to head_room once a hop is known to be final: the downstream
# depth check must never block ejection.  SimulationConfig keeps every
# message length and buffer depth below it, and it is far smaller than
# int32 overflow headroom.
_FINAL_BONUS = FLIT_LIMIT

_EMPTY_EVENTS = np.empty(0, dtype=np.int32)

# Control-block indices of the lifecycle kernel.
_CUR = CTL["cur"]
_STOP = CTL["stop"]
_IDLE_TO = CTL["idle_to"]
_LAST_PROGRESS = CTL["last_progress"]
_MOVES = CTL["moves"]
_N_DONE = CTL["n_done"]
_N_STAGE = CTL["n_stage"]
_STATUS = CTL["status"]

# Initial message-table rows and route width; both double on demand.
_INITIAL_MESSAGES = 64
_INITIAL_HOPS = 8


def _resized(arr: np.ndarray, shape: Tuple[int, ...], fill: int) -> np.ndarray:
    """``arr`` copied into the leading corner of a new ``shape`` array."""
    out = np.full(shape, fill, dtype=arr.dtype)
    out[tuple(slice(0, n) for n in arr.shape)] = arr
    return out


def resolve_soa_kernel(kernel: str = "auto") -> str:
    """Which SoA kernel to use: ``"c"`` or ``"numpy"``.

    The ``kernel`` argument and ``$REPRO_SOA_KERNEL`` are normalised
    identically (case- and whitespace-insensitive, empty means
    ``auto``); a non-``auto`` argument wins, ``auto`` defers to the
    environment variable.  Raises a :class:`ValueError` naming the
    offending source on bad input, or a :class:`RuntimeError` when
    ``c`` is forced but unavailable.
    """
    raw = str(kernel).strip().lower() or "auto"
    if raw not in ("auto", "c", "numpy"):
        raise ValueError(
            f"kernel must be 'auto', 'c' or 'numpy', got {kernel!r}"
        )
    if raw == "auto":
        raw = (
            os.environ.get("REPRO_SOA_KERNEL", "auto").strip().lower()
            or "auto"
        )
        if raw not in ("auto", "c", "numpy"):
            raise ValueError(
                f"REPRO_SOA_KERNEL must be 'auto', 'c' or 'numpy', got {raw!r}"
            )
    if raw == "numpy":
        return "numpy"
    if load_c_kernel() is not None:
        return "c"
    if raw == "c":
        raise RuntimeError(
            "the C kernel was forced (REPRO_SOA_KERNEL=c or kernel='c') "
            "but could not be compiled (no C compiler on PATH?)"
        )
    return "numpy"


class SoACycleEngine(CycleEngine):
    """Structure-of-arrays engine, bit-identical to the reference.

    Accepts the same constructor arguments as
    :class:`~repro.simulator.engine.CycleEngine` and exposes its run
    surface (``counters``, ``messages``, ``channel_flit_counts``,
    ``cycle``, ``step`` ...).  :attr:`kernel_name` reports which kernel
    drives it and :attr:`kernel_lifecycle` whether the whole lifecycle
    runs in C; only engines without it carry ``pools``.
    """

    def _init_lifecycle(self, kernel: str = "auto") -> None:
        """Slot arrays plus the lifecycle state of the selected kernel.

        Also re-selects the kernel of a fresh engine
        (:class:`~repro.simulator.batch.BatchedSoAEngine` does, for its
        ``kernel`` argument).
        """
        self.kernel_name = resolve_soa_kernel(kernel)
        self.kernel_lifecycle = self.kernel_name == "c" and not self.adaptive
        num_channels = self.num_channels
        n_slots = num_channels * self.num_vcs
        self._n_slots = n_slots
        # Slot state; one sentinel entry at index n_slots absorbs the
        # neighbour updates of worm segments with no neighbour.
        self._avail = np.zeros(n_slots + 1, dtype=np.int32)
        self._head_room = np.zeros(n_slots + 1, dtype=np.int32)
        self._moved = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_evt = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._prv_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._rr = np.zeros(num_channels, dtype=np.int32)
        self._busy_cnt = np.zeros(num_channels, dtype=np.int32)
        self._win_scratch = np.empty(num_channels, dtype=np.int32)
        self._evt_scratch = np.empty(num_channels, dtype=np.int32)
        if self.kernel_lifecycle:
            self._init_kernel_tables()
            return
        super()._init_lifecycle()
        self._slot_msg: List[Optional[Message]] = [None] * n_slots
        self._slot_hop: List[int] = [-1] * n_slots
        # Persistent views/scratch so the per-cycle path allocates nothing.
        self._avail_v = self._avail[:n_slots]
        self._head_v = self._head_room[:n_slots]
        self._best = np.empty(num_channels, dtype=np.int32)
        self._vcsel = np.empty(num_channels, dtype=np.int32)
        self._nev_out = np.zeros(1, dtype=np.int32)
        self._c_fn = load_c_kernel() if self.kernel_name == "c" else None
        if self._c_fn is not None:
            # One context block holding scalars + raw array addresses;
            # the backing arrays are instance attributes, so the
            # addresses stay valid for the engine's lifetime.
            self._ctx = np.array(
                [
                    num_channels,
                    self.num_vcs,
                    self._busy_cnt.ctypes.data,
                    self._rr.ctypes.data,
                    self._avail.ctypes.data,
                    self._head_room.ctypes.data,
                    self._moved.ctypes.data,
                    self._nxt_evt.ctypes.data,
                    self._nxt_idx.ctypes.data,
                    self._prv_idx.ctypes.data,
                    self.channel_flit_counts.ctypes.data,
                    self._win_scratch.ctypes.data,
                    self._evt_scratch.ctypes.data,
                    self._nev_out.ctypes.data,
                ],
                dtype=np.uint64,
            )
            self._ctx_ptr = self._ctx.ctypes.data_as(
                ctypes.POINTER(ctypes.c_uint64)
            )

    # ------------------------------------------------------------------
    # Lifecycle in the C kernel (deterministic routing)
    # ------------------------------------------------------------------
    def _init_kernel_tables(self) -> None:
        """Allocate the tables ``repro_soa_run`` works on (ROW_LAYOUT)."""
        C = self.num_channels
        V = self.num_vcs
        n_slots = self._n_slots
        # Dateline classes as in vc_class_partition: class 0 owns the
        # first ceil(V/2) VCs.  Each class's free stack starts reversed,
        # so the lowest VC is granted first.
        split = (V + 1) // 2
        free_vc = np.empty((C, V), dtype=np.int32)
        free_vc[:, :split] = np.arange(split - 1, -1, -1, dtype=np.int32)
        free_vc[:, split:] = np.arange(V - 1, split - 1, -1, dtype=np.int32)
        free_n = np.empty((C, 2), dtype=np.int32)
        free_n[:, 0] = split
        free_n[:, 1] = V - split
        ctl = np.zeros(len(CTL_FIELDS), dtype=np.int64)
        ctl[CTL["backlog_limit"]] = UNLIMITED
        ctl[CTL["target_left"]] = UNLIMITED
        M = _INITIAL_MESSAGES
        t: Dict[str, Union[int, np.ndarray]] = {
            "num_channels": C,
            "num_vcs": V,
            "max_hops": _INITIAL_HOPS,
            "buffer_depth": self.buffer_depth,
            "class0_vcs": split,
            "watchdog": self._watchdog_cycles,
            "ctl": ctl,
            "avail": self._avail,
            "head_room": self._head_room,
            "moved": self._moved,
            "nxt_evt": self._nxt_evt,
            "nxt_idx": self._nxt_idx,
            "prv_idx": self._prv_idx,
            "slot_msg": np.full(n_slots + 1, -1, dtype=np.int32),
            "slot_hop": np.full(n_slots + 1, -1, dtype=np.int32),
            "rr": self._rr,
            "busy_cnt": self._busy_cnt,
            "chan_flits": self.channel_flit_counts,
            "busy_bits": np.zeros((C + 63) // 64, dtype=np.uint64),
            "pend_cnt": np.zeros(C, dtype=np.int32),
            "became": np.zeros(C, dtype=np.int64),
            "cand": np.zeros(C, dtype=np.int32),
            "in_cand": np.zeros(C, dtype=np.int32),
            "order": np.zeros(C, dtype=np.int32),
            "in_order": np.zeros(C, dtype=np.int32),
            "free_vc": free_vc,
            "free_n": free_n,
            "req_head": np.full((C, 2), -1, dtype=np.int32),
            "req_tail": np.full((C, 2), -1, dtype=np.int32),
            # Source ranks index these; grown on demand at admission.
            "src_head": np.full(C, -1, dtype=np.int32),
            "src_tail": np.full(C, -1, dtype=np.int32),
            "msg_len": np.zeros(M, dtype=np.int32),
            "msg_hops": np.zeros(M, dtype=np.int32),
            "msg_src": np.zeros(M, dtype=np.int32),
            "msg_alloc": np.zeros(M, dtype=np.int32),
            "msg_last": np.zeros(M, dtype=np.int32),
            "req_next": np.zeros(M, dtype=np.int32),
            "src_next": np.zeros(M, dtype=np.int32),
            "route_ch": np.zeros((M, _INITIAL_HOPS), dtype=np.int32),
            "route_cls": np.zeros((M, _INITIAL_HOPS), dtype=np.int32),
            "done_msg": np.zeros(M, dtype=np.int32),
            "done_cyc": np.zeros(M, dtype=np.int64),
            "win": self._win_scratch,
            "events": self._evt_scratch,
            "stage": np.zeros(4 * M, dtype=np.int32),
        }
        self._tables = t
        self._ctl = ctl
        # Message-table rows: the Message each holds, and the free rows.
        self._msg_obj: List[Optional[Message]] = [None] * M
        self._free_rows: List[int] = list(range(M - 1, -1, -1))
        self._ctx = np.zeros(len(ROW_LAYOUT), dtype=np.uint64)
        self._pack_ctx()
        # A one-row call block for step().
        self._step_call = np.array([1, self._ctx.ctypes.data], dtype=np.uint64)
        self._step_ptr = self._step_call.ctypes.data_as(
            ctypes.POINTER(ctypes.c_uint64)
        )
        self._run_fn = load_c_kernel_batch()

    def _pack_ctx(self) -> None:
        """Write scalars and table addresses into the row context, in place.

        The block's own address never changes, so call blocks holding
        it stay valid across table growth.
        """
        t = self._tables
        self._ctx[:] = [
            v if isinstance(v, int) else v.ctypes.data
            for v in (t[name] for name in ROW_LAYOUT)
        ]

    def _grow_tables(self, rows: int, hops: int, sources: int) -> None:
        """Enlarge the message table, route width or source FIFOs."""
        t = self._tables
        old_rows = len(self._msg_obj)
        if rows > old_rows:
            for name in (
                "msg_len", "msg_hops", "msg_src", "msg_alloc", "msg_last",
                "req_next", "src_next", "done_msg", "done_cyc",
            ):
                t[name] = _resized(t[name], (rows,), 0)
            self._msg_obj.extend([None] * (rows - old_rows))
            self._free_rows[:0] = range(rows - 1, old_rows - 1, -1)
        width = max(hops, t["max_hops"])
        for name in ("route_ch", "route_cls"):
            t[name] = _resized(t[name], (rows, width), 0)
        t["max_hops"] = width
        if sources > len(t["src_head"]):
            for name in ("src_head", "src_tail"):
                t[name] = _resized(t[name], (sources,), -1)
        self._pack_ctx()

    def _admit_arrivals(self) -> None:
        """Stage the arrivals due this cycle for the next kernel call.

        Each message takes a free message-table row and is written to
        the stage as ``(row, src, length, hops, channels..., classes...)``;
        the kernel admits staged messages in order into their source
        FIFOs.  Routes are bounds-checked here, before C indexes by them.
        """
        if not self.kernel_lifecycle:
            super()._admit_arrivals()
            return
        heap = self._arrival_heap
        limit = self.cycle + 1
        if not heap or heap[0][0] >= limit:
            return
        words: List[int] = []
        free = self._free_rows
        objs = self._msg_obj
        messages = self.messages
        t = self._tables
        num_channels = self.num_channels
        admitted = 0
        while heap and heap[0][0] < limit:
            msg = heapq.heappop(heap)[2]
            channels = msg.route_channels
            classes = msg.route_classes
            if not (
                0 <= min(channels)
                and max(channels) < num_channels
                and 0 <= min(classes)
                and max(classes) <= 1
                and 1 <= msg.length < FLIT_LIMIT
                and msg.src >= 0
            ):
                raise ValueError(
                    f"message {msg.msg_id} does not fit this engine: route "
                    f"{channels}, classes {classes}, length {msg.length}"
                )
            messages[msg.msg_id] = msg
            hops = len(channels)
            if (
                not free
                or hops > t["max_hops"]
                or msg.src >= len(t["src_head"])
            ):
                rows = len(objs)
                self._grow_tables(
                    2 * rows if not free else rows, hops, 2 * msg.src + 1
                )
            row = free.pop()
            objs[row] = msg
            words += (row, msg.src, msg.length, hops)
            words += channels
            words += classes
            admitted += 1
        self.counters.generated += admitted
        ctl = self._ctl
        start = int(ctl[_N_STAGE])
        end = start + len(words)
        if end > len(t["stage"]):
            t["stage"] = _resized(t["stage"], (2 * end,), 0)
            self._pack_ctx()
        t["stage"][start:end] = words
        ctl[_N_STAGE] = end

    def _finish_call(self) -> int:
        """Fold one ``repro_soa_run`` call into the engine's Python state.

        Advances the clock and counters, delivers the call's completions
        in kernel order through ``on_delivery`` (looked up now, so a
        replaced callback is honoured), and returns the row's status;
        a fired watchdog or a kernel inconsistency raises.
        """
        ctl = self._ctl.tolist()
        new = ctl[_CUR]
        counters = self.counters
        counters.cycles_run += new - self.cycle
        counters.flit_moves += ctl[_MOVES]
        self.cycle = new
        self._last_progress_cycle = ctl[_LAST_PROGRESS]
        n_done = ctl[_N_DONE]
        if n_done:
            t = self._tables
            objs = self._msg_obj
            free = self._free_rows
            messages = self.messages
            deliver = self.on_delivery
            for row, cyc in zip(
                t["done_msg"][:n_done].tolist(), t["done_cyc"][:n_done].tolist()
            ):
                msg = objs[row]
                objs[row] = None
                free.append(row)
                counters.completed += 1
                del messages[msg.msg_id]
                if deliver is not None:
                    deliver(msg, cyc)
        status = ctl[_STATUS]
        if status == STATUS_STALL:
            raise RuntimeError(
                f"no flit progress for {self._watchdog_cycles} cycles "
                f"with {len(self.messages)} messages in flight — engine bug"
            )
        if status == STATUS_BUG:
            raise RuntimeError(
                "lifecycle kernel found a double VC release or an injection "
                "grant to a non-head message — engine bug"
            )
        return status

    # ------------------------------------------------------------------
    # Boundary bookkeeping (grants, releases, header/tail events)
    # ------------------------------------------------------------------
    def _on_grant(self, ch: int, msg: Message, hop: int, vc: int) -> None:
        msg.vcs[hop] = vc
        msg.alloc_hops = hop + 1
        slot = ch * self.num_vcs + vc
        self._slot_msg[slot] = msg
        self._slot_hop[slot] = hop
        self._moved[slot] = 0
        self._nxt_evt[slot] = 1
        self._nxt_idx[slot] = self._n_slots
        if hop == 0:
            self._avail[slot] = msg.length
            self._prv_idx[slot] = self._n_slots
        else:
            prev_slot = (
                msg.route_channels[hop - 1] * self.num_vcs + msg.vcs[hop - 1]
            )
            # Everything the upstream segment has moved is waiting in
            # this channel's input buffer; future upstream moves feed
            # this slot through the nxt link.
            self._avail[slot] = self._moved[prev_slot]
            self._prv_idx[slot] = prev_slot
            self._nxt_idx[prev_slot] = slot
        room = self.buffer_depth
        if hop == msg.final_hop:
            room += _FINAL_BONUS
        self._head_room[slot] = room
        self._busy_cnt[ch] += 1
        if hop == 0:
            self._on_injection_start(msg)

    def _release_hop(self, msg: Message, hop: int) -> None:
        vc = msg.vcs[hop]
        if vc < 0:
            raise RuntimeError(
                f"message {msg.msg_id} releasing unallocated hop {hop}"
            )
        ch = msg.route_channels[hop]
        self.pools[ch].release(vc)
        msg.vcs[hop] = -1
        self._alloc_dirty = True
        self._alloc_candidates.add(ch)
        slot = ch * self.num_vcs + vc
        self._slot_msg[slot] = None
        self._slot_hop[slot] = -1
        self._avail[slot] = 0  # a free slot must never look ready
        self._head_room[slot] = 0
        self._moved[slot] = 0
        self._nxt_evt[slot] = 0
        self._busy_cnt[ch] -= 1

    def _process_boundary(self, slot: int) -> None:
        msg = self._slot_msg[slot]
        hop = self._slot_hop[slot]
        moved = int(self._moved[slot])
        if moved == 1:
            # Header reached the next router (mirrors the reference
            # engine's _apply_moves header branch).
            if msg.dynamic:
                choice = self.next_hop_chooser(msg, hop + 1)
                if choice is None:
                    msg.final_hop = hop
                    self._head_room[slot] += _FINAL_BONUS
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
                nxt_ch = msg.route_channels[hop + 1]
                self.pools[nxt_ch].request(
                    msg.msg_id, hop + 1, msg.route_classes[hop + 1]
                )
                self._pending_channels.add(nxt_ch)
                self._alloc_candidates.add(nxt_ch)
                self._alloc_dirty = True
            self._nxt_evt[slot] = msg.length
        if moved == msg.length:
            # Tail crossed this channel: the upstream VC drains free,
            # and on the final hop the message completes.
            if hop >= 1:
                self._release_hop(msg, hop - 1)
                self._prv_idx[slot] = self._n_slots
            if hop == msg.final_hop:
                self._release_hop(msg, hop)
                self._complete(msg)

    # ------------------------------------------------------------------
    # The per-cycle kernels
    # ------------------------------------------------------------------
    def _cycle_numpy(self) -> Tuple[int, np.ndarray]:
        """Pure-numpy scan + apply (same integer semantics as the C kernel)."""
        num_vcs = self.num_vcs
        avail = self._avail
        head = self._head_room
        ready = (self._avail_v > 0) & (self._head_v > 0)
        rdy = ready.reshape(self.num_channels, num_vcs)
        rr = self._rr
        if num_vcs == 2:
            # Two VCs need no priority search: the cursor only matters
            # when both are ready.
            r0 = rdy[:, 0]
            r1 = rdy[:, 1]
            wch = np.flatnonzero(r0 | r1)
            if wch.size == 0:
                return 0, _EMPTY_EVENTS
            wvc = np.where(r0 & r1, rr, r1)[wch]
        else:
            best = self._best
            best[:] = num_vcs
            vcsel = self._vcsel
            vcsel[:] = 0
            for v in range(num_vcs):
                rel = (v - rr) % num_vcs
                pri = np.where(rdy[:, v], rel, num_vcs)
                upd = pri < best
                vcsel[upd] = v
                best[upd] = pri[upd]
            wch = np.flatnonzero(best < num_vcs)
            if wch.size == 0:
                return 0, _EMPTY_EVENTS
            wvc = vcsel[wch]
        wf = wch * num_vcs + wvc
        rr[wch] = (wvc + 1) % num_vcs
        mv = self._moved[wf] + 1
        self._moved[wf] = mv
        avail[wf] = avail[wf] - 1
        head[wf] = head[wf] - 1
        # Winner slots are unique, and so are their live neighbours; the
        # sentinel absorbs repeated no-neighbour updates harmlessly.
        nxt = self._nxt_idx[wf]
        avail[nxt] = avail[nxt] + 1
        prv = self._prv_idx[wf]
        head[prv] = head[prv] + 1
        self.channel_flit_counts[wch] += 1
        return int(wf.size), wf[mv == self._nxt_evt[wf]]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Run one cycle; returns the number of flits moved."""
        self._admit_arrivals()
        if self.kernel_lifecycle:
            ctl = self._ctl
            ctl[_CUR] = self.cycle
            ctl[_STOP] = ctl[_IDLE_TO] = self.cycle + 1
            ctl[_LAST_PROGRESS] = self._last_progress_cycle
            before = self.counters.flit_moves
            self._run_fn(self._step_ptr)
            self._finish_call()
            return self.counters.flit_moves - before
        if self._needs_reroute:
            self._reroute_cancelled()
        if self._alloc_dirty and self._pending_channels:
            self._allocate_vcs()
        fn = self._c_fn
        if not self.messages:
            moves = 0
        elif fn is not None:
            moves = int(fn(self._ctx_ptr))
            nev = int(self._nev_out[0])
            if nev:
                events = self._evt_scratch
                for i in range(nev):
                    self._process_boundary(int(events[i]))
        else:
            moves, events = self._cycle_numpy()
            if events.size:
                for slot in events.tolist():
                    self._process_boundary(slot)
        if moves:
            self.counters.flit_moves += moves
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
        return moves
