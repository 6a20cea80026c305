"""C kernels for the structure-of-arrays engine.

The SoA engine (:mod:`repro.simulator.soa`) keeps link-arbitration
state in flat preallocated ``numpy`` int32 arrays indexed by *slot*
(``channel * num_vcs + vc``).  One engine cycle of flit movement is a
fixed two-pass sweep over those arrays:

* **pass 1 (scan)** — for every channel with held VCs, pick the first
  *ready* VC in round-robin order from the channel's cursor, using
  start-of-cycle state only (``avail > 0 and head_room > 0``);
* **pass 2 (apply)** — move one flit on every winner: bump its
  ``moved`` counter, consume one upstream flit and one downstream
  credit, and propagate the flit to the neighbouring worm segments
  through the ``nxt_idx`` / ``prv_idx`` links; slots whose ``moved``
  counter hits ``nxt_evt`` (header arrival or tail departure) are
  *boundary events*.

Two entry points share that sweep:

* ``repro_soa_cycle`` runs **one cycle of one network** and hands its
  boundary events back to Python.  Engines whose lifecycle stays in
  Python use it: adaptive routing, whose next-hop chooser reads live
  pool state.
* ``repro_soa_run`` runs the **whole wormhole lifecycle** of B
  deterministic-routing networks ("rows"): admission into per-source
  FIFOs, FCFS VC allocation over per-(channel, class) request queues
  and free-VC stacks, the sweep, header arrivals, tail departures and
  completions, which it writes to an ordered ``(message, cycle)``
  buffer.  Each row runs to its own stop — the next cycle at which
  Python must feed arrivals or take the warm-up snapshot — or to the
  first cycle at which its backlog limit or completion target trips,
  and idle stretches are jumped.  One call per arrival-due cycle
  replaces one Python step per cycle; the per-row tables are laid out
  by :data:`ROW_LAYOUT` and :data:`CTL_FIELDS`.
  :class:`~repro.simulator.batch.BatchedSoAEngine` drives it, and a
  solo run is its one-row case.

Both are compiled from one C source on first use with the system C
compiler into ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/
kernels``) and loaded through :mod:`ctypes`.  A cached shared object
that fails to load (a worker killed mid-write, a truncated artifact
from an interrupted run) is *quarantined* — renamed to ``*.corrupt``,
mirroring the sweep cache's ``corrupt/`` convention — and compilation
is retried once before degrading.  Without a compiler, or with
``REPRO_SOA_KERNEL=numpy``, the engine keeps the Python lifecycle and
sweeps with a pure-``numpy`` kernel of identical integer semantics.

All implementations produce bit-identical simulations (all state is
integer).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

from repro.simulator.config import FLIT_LIMIT

__all__ = [
    "load_c_kernel",
    "load_c_kernel_batch",
    "c_kernel_available",
    "kernel_cache_dir",
]

#: The lifecycle kernel's int64 control block of one row, in order:
#: run control written by Python before a call (``cur`` cycle, ``stop``
#: cycle, ``idle_to`` — where an empty network jumps, ``warmup`` edge,
#: ``backlog_limit``, ``target_left`` measured completions), state the
#: kernel carries between calls (``live`` messages, ``last_progress``
#: cycle, allocation ``dirty`` flag, ``n_cand`` queued candidate
#: channels, allocation ``pass`` number) and per-call outputs
#: (``moves``, ``n_done`` completions, ``n_stage`` staged words to
#: admit, ``status``).
CTL_FIELDS = (
    "cur",
    "stop",
    "idle_to",
    "warmup",
    "backlog_limit",
    "target_left",
    "live",
    "last_progress",
    "dirty",
    "n_cand",
    "pass",
    "moves",
    "n_done",
    "n_stage",
    "status",
)

#: Index of each control-block field.
CTL = {name: i for i, name in enumerate(CTL_FIELDS)}

#: "No limit" for a row's ``backlog_limit`` and ``target_left``.
UNLIMITED = 1 << 62

#: ``status`` values of a lifecycle row after a call, in the order of
#: the C enum of the same names: still running, exited on its backlog
#: limit or completion target, no-progress watchdog fired, or an
#: internal inconsistency (double release, injection of a non-head
#: message).
STATUS_RUN, STATUS_EXIT, STATUS_STALL, STATUS_BUG = range(4)

#: One lifecycle row's context block: six scalars, then the addresses
#: of its tables, one uint64 each — the member order of the C struct
#: ``Tables``.
ROW_LAYOUT = (
    "num_channels",
    "num_vcs",
    "max_hops",
    "buffer_depth",
    "class0_vcs",
    "watchdog",
    "ctl",
    "avail",
    "head_room",
    "moved",
    "nxt_evt",
    "nxt_idx",
    "prv_idx",
    "slot_msg",
    "slot_hop",
    "rr",
    "busy_cnt",
    "chan_flits",
    "busy_bits",
    "pend_cnt",
    "became",
    "cand",
    "in_cand",
    "order",
    "in_order",
    "free_vc",
    "free_n",
    "req_head",
    "req_tail",
    "src_head",
    "src_tail",
    "msg_len",
    "msg_hops",
    "msg_src",
    "msg_alloc",
    "msg_last",
    "req_next",
    "src_next",
    "route_ch",
    "route_cls",
    "done_msg",
    "done_cyc",
    "win",
    "events",
    "stage",
)

_CTL_ENUM = "enum { %s };\n" % ", ".join(
    f"CTL_{name.upper()}" for name in CTL_FIELDS
)

C_SOURCE = (
    "#include <stdint.h>\n"
    + _CTL_ENUM
    + f"#define FINAL_BONUS {FLIT_LIMIT}\n"
) + r"""

/* One cycle of the SoA flit engine.  Arrays avail/head_room/moved/
   nxt_evt/nxt_idx/prv_idx have num_channels*num_vcs+1 entries: the last
   entry is a write-off slot so segment links never need a branch (a
   missing neighbour is linked to the sentinel).  Pass 1 reads start-of-
   cycle state only; pass 2 applies all updates, so arbitration is
   identical to the reference engine's scan-then-apply phases.

   All arguments arrive through one context block (two scalars followed
   by the raw addresses of the arrays, see _CTX_LAYOUT in kernel.py):
   marshalling a single pointer keeps the per-cycle ctypes overhead
   flat. */
int64_t repro_soa_cycle(const uint64_t *ctx)
{
    int32_t num_channels = (int32_t) ctx[0];
    int32_t num_vcs      = (int32_t) ctx[1];
    const int32_t *busy_cnt   = (const int32_t *) ctx[2];  /* (C,)   */
    int32_t *rr               = (int32_t *) ctx[3];        /* (C,)   */
    int32_t *avail            = (int32_t *) ctx[4];        /* (N+1,) */
    int32_t *head_room        = (int32_t *) ctx[5];        /* (N+1,) */
    int32_t *moved            = (int32_t *) ctx[6];        /* (N+1,) */
    const int32_t *nxt_evt    = (const int32_t *) ctx[7];  /* (N+1,) */
    const int32_t *nxt_idx    = (const int32_t *) ctx[8];  /* (N+1,) */
    const int32_t *prv_idx    = (const int32_t *) ctx[9];  /* (N+1,) */
    int64_t *chan_flits       = (int64_t *) ctx[10];       /* (C,)   */
    int32_t *win_slots        = (int32_t *) ctx[11];       /* (C,)   */
    int32_t *events_out       = (int32_t *) ctx[12];       /* (C,)   */
    int32_t *n_events_out     = (int32_t *) ctx[13];       /* (1,)   */

    int32_t nwin = 0;
    for (int32_t c = 0; c < num_channels; ++c) {
        if (busy_cnt[c] == 0) continue;
        int32_t base = c * num_vcs;
        int32_t start = rr[c];
        for (int32_t i = 0; i < num_vcs; ++i) {
            int32_t v = start + i;
            if (v >= num_vcs) v -= num_vcs;
            int32_t s = base + v;
            if (avail[s] > 0 && head_room[s] > 0) {
                win_slots[nwin++] = s;
                rr[c] = (v + 1 == num_vcs) ? 0 : v + 1;
                break;
            }
        }
    }
    int32_t nev = 0;
    for (int32_t w = 0; w < nwin; ++w) {
        int32_t s = win_slots[w];
        int32_t m = ++moved[s];
        --avail[s];
        --head_room[s];
        ++avail[nxt_idx[s]];
        ++head_room[prv_idx[s]];
        ++chan_flits[s / num_vcs];
        if (m == nxt_evt[s]) events_out[nev++] = s;
    }
    *n_events_out = nev;
    return (int64_t) nwin;
}

/* ------------------------------------------------------------------
   The whole wormhole lifecycle of a deterministic-routing network.

   repro_soa_run advances B independent networks ("rows").  ctx[0] is
   B and ctx[1..B] are the addresses of the rows' Tables blocks: one
   uint64 per member, in the order of ROW_LAYOUT in kernel.py (every
   member is 8 bytes wide, so the block is the struct).  Each row owns
   the slot arrays of repro_soa_cycle plus everything the Python
   engine keeps in VirtualChannelPool objects, source deques and
   Message objects:

   * per (channel, class) a FIFO of requesting messages (an intrusive
     list through req_next) and a LIFO stack of free VCs, whose initial
     order is reversed so the lowest VC is granted first;
   * per source node a FIFO of admitted messages (through src_next);
   * per message (an index into the row's message table, chosen by
     Python) its length, hop count, source, next hop to allocate, last
     granted slot and route.

   One call runs each row from ctl[CUR] until ctl[STOP] (the next cycle
   at which Python must feed arrivals or take the warm-up snapshot),
   exactly as the solo loop of TorusWorkload.run would: admit the
   messages Python staged, then per cycle

     1. VC allocation (only after a request or a release),
     2. link arbitration: the scan-then-apply sweep of repro_soa_cycle,
     3. boundary events in ascending slot order: a header arrival
        requests the next hop, a tail departure releases the upstream
        VC and, on the final hop, completes the message into the
        done_msg/done_cyc output buffer.

   After each cycle the row stops early when its backlog exceeds
   ctl[BACKLOG_LIMIT] or its measured-completion budget ctl[TARGET_LEFT]
   runs out (STATUS_EXIT), jumps an empty network's clock the way
   CycleEngine.fast_forward_to does, and jumps a cycle without moves
   (a fixed point until Python acts) straight to its stop, unless the
   no-progress watchdog fires first (STATUS_STALL). */

enum { STATUS_RUN, STATUS_EXIT, STATUS_STALL, STATUS_BUG };

typedef struct {
    int64_t num_channels, num_vcs, max_hops, buffer_depth, class0_vcs,
            watchdog;
    int64_t *ctl;
    int32_t *avail, *head_room, *moved, *nxt_evt, *nxt_idx, *prv_idx,
            *slot_msg, *slot_hop;
    int32_t *rr, *busy_cnt;
    int64_t *chan_flits;
    uint64_t *busy_bits;
    int32_t *pend_cnt;
    int64_t *became;
    int32_t *cand, *in_cand, *order, *in_order;
    int32_t *free_vc, *free_n, *req_head, *req_tail;
    int32_t *src_head, *src_tail;
    int32_t *msg_len, *msg_hops, *msg_src, *msg_alloc, *msg_last,
            *req_next, *src_next, *route_ch, *route_cls;
    int32_t *done_msg;
    int64_t *done_cyc;
    int32_t *win, *events, *stage;
} Tables;

typedef struct {
    Tables t;
    int32_t C, V, S, H, split;
    int64_t live, target_left, warmup, n_done, pass;
    int32_t dirty, n_cand, n_order, pos, pass_ch, bug;
} Row;

static void mark_candidate(Row *r, int32_t c)
{
    if (!r->t.in_cand[c]) {
        r->t.in_cand[c] = 1;
        r->t.cand[r->n_cand++] = c;
    }
}

/* Queue message m for the VC of its next unallocated hop.  Mirrors
   CycleEngine._allocate_vcs' mid-pass rule: a request made during an
   allocation pass joins that pass only if its channel lies ahead of
   the channel being visited and already had requests when the pass
   started (became[c] < pass); otherwise it waits for the next pass. */
static void request(Row *r, int32_t m)
{
    Tables *t = &r->t;
    int32_t h = t->msg_alloc[m];
    int32_t c = t->route_ch[(int64_t) m * r->H + h];
    int32_t q = 2 * c + t->route_cls[(int64_t) m * r->H + h];
    t->req_next[m] = -1;
    if (t->req_tail[q] < 0) t->req_head[q] = m;
    else t->req_next[t->req_tail[q]] = m;
    t->req_tail[q] = m;
    int32_t was = t->pend_cnt[c]++;
    int at_start = was > 0 && t->became[c] < r->pass;
    if (!was) t->became[c] = r->pass;
    r->dirty = 1;
    if (r->pass_ch >= 0 && c > r->pass_ch && !t->in_order[c] && at_start) {
        int32_t j = r->n_order++;
        while (j > r->pos && t->order[j - 1] > c) {
            t->order[j] = t->order[j - 1];
            --j;
        }
        t->order[j] = c;
        t->in_order[c] = 1;
    } else {
        mark_candidate(r, c);
    }
}

static void grant(Row *r, int32_t c, int32_t cls, int32_t m)
{
    Tables *t = &r->t;
    int32_t base = c * r->V;
    int32_t v = t->free_vc[base + (cls ? r->split : 0) + --t->free_n[2 * c + cls]];
    int32_t s = base + v;
    int32_t hop = t->msg_alloc[m]++;
    t->slot_msg[s] = m;
    t->slot_hop[s] = hop;
    t->moved[s] = 0;
    t->nxt_evt[s] = 1;
    t->nxt_idx[s] = r->S;
    if (hop == 0) {
        t->avail[s] = t->msg_len[m];
        t->prv_idx[s] = r->S;
    } else {
        /* Everything the upstream segment moved waits in this
           channel's input buffer. */
        int32_t p = t->msg_last[m];
        t->avail[s] = t->moved[p];
        t->prv_idx[s] = p;
        t->nxt_idx[p] = s;
    }
    t->msg_last[m] = s;
    t->head_room[s] = (int32_t) t->buffer_depth
        + (hop == t->msg_hops[m] - 1 ? FINAL_BONUS : 0);
    if (t->busy_cnt[c]++ == 0)
        t->busy_bits[c >> 6] |= (uint64_t) 1 << (c & 63);
    if (hop == 0) {
        /* Injection: the source queue's head leaves; the next head
           requests its first hop. */
        int32_t src = t->msg_src[m];
        if (t->src_head[src] != m) {
            r->bug = 1;
            return;
        }
        int32_t nx = t->src_next[m];
        t->src_head[src] = nx;
        if (nx < 0) t->src_tail[src] = -1;
        else request(r, nx);
    }
}

static void release(Row *r, int32_t s)
{
    Tables *t = &r->t;
    if (t->slot_msg[s] < 0) {   /* double release */
        r->bug = 1;
        return;
    }
    int32_t c = s / r->V;
    int32_t v = s - c * r->V;
    int32_t cls = v >= r->split;
    t->free_vc[c * r->V + (cls ? r->split : 0) + t->free_n[2 * c + cls]++] = v;
    if (--t->busy_cnt[c] == 0)
        t->busy_bits[c >> 6] &= ~((uint64_t) 1 << (c & 63));
    r->dirty = 1;
    mark_candidate(r, c);
    t->slot_msg[s] = -1;
    t->slot_hop[s] = -1;
    t->avail[s] = 0;   /* a free slot must never look ready */
    t->head_room[s] = 0;
    t->moved[s] = 0;
    t->nxt_evt[s] = 0;
}

/* FCFS allocation over the channels whose pools changed, in ascending
   channel order; classes in ascending order. */
static void allocate(Row *r)
{
    Tables *t = &r->t;
    int32_t n = r->n_cand;
    for (int32_t i = 0; i < n; ++i) {
        int32_t c = t->cand[i];
        int32_t j = i;
        t->in_cand[c] = 0;
        while (j > 0 && t->order[j - 1] > c) {
            t->order[j] = t->order[j - 1];
            --j;
        }
        t->order[j] = c;
        t->in_order[c] = 1;
    }
    r->n_cand = 0;
    r->n_order = n;
    r->pass += 1;
    r->dirty = 0;
    r->pos = 0;
    while (r->pos < r->n_order) {
        int32_t c = t->order[r->pos++];
        r->pass_ch = c;
        for (int32_t cls = 0; cls < 2; ++cls) {
            int32_t q = 2 * c + cls;
            while (t->req_head[q] >= 0 && t->free_n[q] > 0) {
                int32_t m = t->req_head[q];
                t->req_head[q] = t->req_next[m];
                if (t->req_head[q] < 0) t->req_tail[q] = -1;
                t->pend_cnt[c] -= 1;
                grant(r, c, cls, m);
            }
        }
    }
    for (int32_t i = 0; i < r->n_order; ++i) t->in_order[t->order[i]] = 0;
    r->pass_ch = -1;
}

static void boundary(Row *r, int32_t s, int64_t cyc)
{
    Tables *t = &r->t;
    int32_t m = t->slot_msg[s];
    int32_t hop = t->slot_hop[s];
    int32_t mv = t->moved[s];
    int32_t len = t->msg_len[m];
    int32_t last = t->msg_hops[m] - 1;
    if (mv == 1) {   /* header reached the next router */
        if (hop < last) request(r, m);
        t->nxt_evt[s] = len;
    }
    if (mv == len) {   /* tail crossed: the upstream VC drains free */
        if (hop >= 1) {
            release(r, t->prv_idx[s]);
            t->prv_idx[s] = r->S;
        }
        if (hop == last) {
            release(r, s);
            r->live -= 1;
            if (cyc >= r->warmup) r->target_left -= 1;
            t->done_msg[r->n_done] = m;
            t->done_cyc[r->n_done] = cyc;
            r->n_done += 1;
        }
    }
}

/* Messages staged by Python, in admission order: (m, src, length,
   hops, channels..., classes...) each. */
static void admit(Row *r, int64_t n_stage)
{
    Tables *t = &r->t;
    const int32_t *st = t->stage;
    int64_t i = 0;
    while (i < n_stage) {
        int32_t m = st[i], src = st[i + 1], hops = st[i + 3];
        t->msg_len[m] = st[i + 2];
        t->msg_hops[m] = hops;
        t->msg_src[m] = src;
        t->msg_alloc[m] = 0;
        t->msg_last[m] = -1;
        i += 4;
        int32_t *rc = t->route_ch + (int64_t) m * r->H;
        int32_t *rk = t->route_cls + (int64_t) m * r->H;
        for (int32_t h = 0; h < hops; ++h) {
            rc[h] = st[i + h];
            rk[h] = st[i + hops + h];
        }
        i += 2 * (int64_t) hops;
        r->live += 1;
        t->src_next[m] = -1;
        if (t->src_tail[src] < 0) {
            t->src_head[src] = m;
            t->src_tail[src] = m;
            request(r, m);
        } else {
            t->src_next[t->src_tail[src]] = m;
            t->src_tail[src] = m;
        }
    }
}

static int64_t run_row(const Tables *tables)
{
    Row row;
    Row *r = &row;
    r->t = *tables;
    Tables *t = &r->t;
    int64_t *ctl = t->ctl;
    r->C = (int32_t) t->num_channels;
    r->V = (int32_t) t->num_vcs;
    r->S = r->C * r->V;
    r->H = (int32_t) t->max_hops;
    r->split = (int32_t) t->class0_vcs;
    r->live = ctl[CTL_LIVE];
    r->target_left = ctl[CTL_TARGET_LEFT];
    r->warmup = ctl[CTL_WARMUP];
    r->pass = ctl[CTL_PASS];
    r->dirty = (int32_t) ctl[CTL_DIRTY];
    r->n_cand = (int32_t) ctl[CTL_N_CAND];
    r->n_done = 0;
    r->pass_ch = -1;
    r->bug = 0;
    int64_t cyc = ctl[CTL_CUR];
    int64_t stop = ctl[CTL_STOP];
    int64_t idle_to = ctl[CTL_IDLE_TO];
    int64_t limit = ctl[CTL_BACKLOG_LIMIT];
    int64_t lp = ctl[CTL_LAST_PROGRESS];
    int64_t watchdog = t->watchdog;
    int64_t moves = 0;
    int64_t status = STATUS_RUN;
    int32_t V = r->V;
    int32_t nwords = (r->C + 63) >> 6;
    int32_t *avail = t->avail, *head = t->head_room, *moved = t->moved;
    const int32_t *nxt_evt = t->nxt_evt, *nxt_idx = t->nxt_idx,
                  *prv_idx = t->prv_idx;
    int32_t *rr = t->rr, *win = t->win, *events = t->events;
    int64_t *flits = t->chan_flits;

    admit(r, ctl[CTL_N_STAGE]);
    while (cyc < stop) {
        if (r->dirty) allocate(r);
        if (r->bug) break;
        int32_t nwin = 0;
        for (int32_t w = 0; w < nwords; ++w) {
            uint64_t bits = t->busy_bits[w];
            while (bits) {
                int32_t c = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                int32_t base = c * V;
                int32_t start = rr[c];
                for (int32_t j = 0; j < V; ++j) {
                    int32_t v = start + j;
                    if (v >= V) v -= V;
                    int32_t s = base + v;
                    if (avail[s] > 0 && head[s] > 0) {
                        win[nwin++] = s;
                        rr[c] = (v + 1 == V) ? 0 : v + 1;
                        break;
                    }
                }
            }
        }
        if (nwin) {
            int32_t nev = 0;
            for (int32_t i = 0; i < nwin; ++i) {
                int32_t s = win[i];
                int32_t mv = ++moved[s];
                --avail[s];
                --head[s];
                ++avail[nxt_idx[s]];
                ++head[prv_idx[s]];
                ++flits[s / V];
                if (mv == nxt_evt[s]) events[nev++] = s;
            }
            for (int32_t i = 0; i < nev; ++i) boundary(r, events[i], cyc);
            moves += nwin;
            lp = cyc;
        } else if (r->live > 0) {
            if (cyc - lp > watchdog) {
                status = STATUS_STALL;
                break;
            }
        } else {
            lp = cyc;
        }
        ++cyc;
        if (r->bug) break;
        if (r->live > limit || r->target_left <= 0) {
            status = STATUS_EXIT;
            break;
        }
        if (r->live == 0) {
            /* Empty network: jump to the next arrival, clamped at the
               warm-up edge (TorusWorkload.run's fast-forward). */
            int64_t nxt = idle_to;
            if (cyc < r->warmup && r->warmup < nxt) nxt = r->warmup;
            if (nxt > cyc) {
                cyc = nxt;
                lp = nxt;
            }
        } else if (nwin == 0 && !r->dirty) {
            /* No move and nothing to allocate: every cycle up to the
               stop is this one again, so only the watchdog can fire. */
            int64_t fire = lp + watchdog + 1;
            if (fire < stop) {
                cyc = fire;
                status = STATUS_STALL;
                break;
            }
            cyc = stop;
        }
    }
    if (r->bug) status = STATUS_BUG;
    ctl[CTL_CUR] = cyc;
    ctl[CTL_LAST_PROGRESS] = lp;
    ctl[CTL_LIVE] = r->live;
    ctl[CTL_TARGET_LEFT] = r->target_left;
    ctl[CTL_PASS] = r->pass;
    ctl[CTL_DIRTY] = r->dirty;
    ctl[CTL_N_CAND] = r->n_cand;
    ctl[CTL_MOVES] = moves;
    ctl[CTL_N_DONE] = r->n_done;
    ctl[CTL_N_STAGE] = 0;
    ctl[CTL_STATUS] = status;
    return moves;
}

int64_t repro_soa_run(const uint64_t *ctx)
{
    int64_t num_rows = (int64_t) ctx[0];
    int64_t total = 0;
    for (int64_t b = 0; b < num_rows; ++b)
        total += run_row((const Tables *) ctx[1 + b]);
    return total;
}
"""

#: Context-block layout consumed by the solo C kernel: two scalars
#: followed by the raw base addresses of the state arrays, as unsigned
#: 64-bit values.  Must match the ctx[...] casts in C_SOURCE.
_CTX_LAYOUT = (
    "num_channels",
    "num_vcs",
    "busy_cnt",
    "rr",
    "avail",
    "head_room",
    "moved",
    "nxt_evt",
    "nxt_idx",
    "prv_idx",
    "chan_flits",
    "win_slots",
    "events_out",
    "n_events_out",
)

_ARGTYPES = [ctypes.POINTER(ctypes.c_uint64)]

#: ``(cycle_fn, run_fn)`` once loaded, else ``None``.
_loaded: Optional[Tuple[object, object]] = None
_load_attempted = False


def kernel_cache_dir() -> Path:
    """Directory holding compiled kernels (``$REPRO_KERNEL_CACHE``)."""
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernels"


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique tmp file + atomic rename.

    Pool workers may race to materialise the same cache file; each
    writer lands its complete content in one ``os.replace``, so readers
    (and the compiler) never see a half-written file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compile(cache_dir: Path, so_path: Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set CC to override)")
    cache_dir.mkdir(parents=True, exist_ok=True)
    src = cache_dir / (so_path.stem + ".c")
    _write_atomic(src, C_SOURCE)
    # Unique tmp per process: pool workers may compile concurrently, and
    # the final rename is atomic so they cannot corrupt each other.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _quarantine_so(so_path: Path) -> None:
    """Move an unloadable shared object aside as ``*.corrupt``.

    Mirrors the sweep cache's quarantine convention: the damaged
    artifact stays on disk for inspection instead of permanently
    poisoning the cache slot.  Best-effort — a failed rename falls back
    to deletion so the retry compile gets a clean slot either way.
    """
    try:
        so_path.replace(so_path.with_suffix(".so.corrupt"))
    except OSError:
        try:
            so_path.unlink()
        except OSError:
            pass


def _load_functions(so_path: Path) -> Tuple[object, object]:
    """CDLL + typed handles for both kernel entry points."""
    lib = ctypes.CDLL(str(so_path))
    fns = []
    for name in ("repro_soa_cycle", "repro_soa_run"):
        fn = getattr(lib, name)
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int64
        fns.append(fn)
    return fns[0], fns[1]


def _load() -> Optional[Tuple[object, object]]:
    """Compile (if needed) and load both kernels, once per process.

    Any failure — no compiler, sandboxed filesystem, unloadable object —
    degrades to ``None`` and the engines fall back to their numpy
    kernels, with a once-per-process :class:`RuntimeWarning` naming the
    actual failure so a missing compiler shows up as a warning instead
    of silently masquerading as a ~4x performance regression.

    A cached ``.so`` that exists but will not load (truncated by a
    killed worker, stale from an interrupted run) is quarantined as
    ``*.corrupt`` and compilation retried once before degrading.
    """
    global _loaded, _load_attempted
    if _load_attempted:
        return _loaded
    _load_attempted = True
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    so_path = kernel_cache_dir() / f"repro_soa_{tag}.so"
    try:
        existed = so_path.exists()
        if not existed:
            _compile(kernel_cache_dir(), so_path)
        try:
            _loaded = _load_functions(so_path)
        except (OSError, AttributeError) as exc:
            if not existed:
                raise
            # The cached artifact is corrupt: quarantine it and rebuild
            # once rather than disabling the C kernel for the process.
            _quarantine_so(so_path)
            try:
                _compile(kernel_cache_dir(), so_path)
                _loaded = _load_functions(so_path)
            except Exception:
                raise RuntimeError(
                    f"cached kernel {so_path.name} was corrupt "
                    f"({type(exc).__name__}: {exc}) and recompilation "
                    "failed"
                ) from exc
    except subprocess.CalledProcessError as exc:
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        _warn_kernel_fallback(f"compilation failed: {stderr or exc}")
        _loaded = None
    except Exception as exc:
        _warn_kernel_fallback(f"{type(exc).__name__}: {exc}")
        _loaded = None
    return _loaded


def load_c_kernel() -> Optional[object]:
    """The compiled one-cycle sweep ``repro_soa_cycle``, or ``None``."""
    fns = _load()
    return None if fns is None else fns[0]


def load_c_kernel_batch() -> Optional[object]:
    """The compiled lifecycle entry point ``repro_soa_run``, or ``None``.

    It advances B deterministic-routing rows per call; a solo run is
    the one-row case.
    """
    fns = _load()
    return None if fns is None else fns[1]


def _warn_kernel_fallback(reason: str) -> None:
    """One warning per process when the C kernels degrade to numpy."""
    warnings.warn(
        f"repro: SoA C kernel unavailable ({reason}); falling back to the "
        "slower pure-numpy kernel.  Install a C compiler (or set CC) to "
        "restore full speed, or set REPRO_SOA_KERNEL=numpy to silence "
        "this warning.",
        RuntimeWarning,
        stacklevel=3,
    )


def c_kernel_available() -> bool:
    return load_c_kernel() is not None
