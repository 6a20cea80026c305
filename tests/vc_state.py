"""Virtual-channel and queue state of an engine, whichever lifecycle it runs.

A structure-of-arrays engine with deterministic routing and the C kernel
keeps its allocation state in the kernel's tables: the holder of every
VC slot, a free-VC stack per (channel, class), FIFO request queues and
per-source FIFOs.  Every other engine keeps it in ``VirtualChannelPool``
objects and source deques.  These helpers read whichever state the
engine really has, so the invariant tests check it directly.
"""

import numpy as np


def in_kernel(engine) -> bool:
    return getattr(engine, "kernel_lifecycle", False)


def held_vcs(engine) -> list:
    """Message id of the holder of every held VC."""
    if in_kernel(engine):
        rows = engine._tables["slot_msg"][:-1]
        return [engine._msg_obj[r].msg_id for r in rows[rows >= 0].tolist()]
    return [h for pool in engine.pools for h in pool.holders if h >= 0]


def free_vcs(engine) -> list:
    """Per channel, the VCs on its free stacks (every class)."""
    if in_kernel(engine):
        t = engine._tables
        split = t["class0_vcs"]
        return [
            stack[: n[0]].tolist() + stack[split : split + n[1]].tolist()
            for stack, n in zip(t["free_vc"], t["free_n"])
        ]
    return [[v for free in pool.free_by_class for v in free] for pool in engine.pools]


def busy_counts(engine) -> np.ndarray:
    if in_kernel(engine):
        return engine._tables["busy_cnt"].copy()
    return np.array([pool.busy_count for pool in engine.pools])


def pending_requests(engine) -> int:
    if in_kernel(engine):
        return int(engine._tables["pend_cnt"].sum())
    return sum(pool.pending_count for pool in engine.pools)


def source_queued(engine) -> int:
    """Messages waiting in source FIFOs (not yet granted a first VC)."""
    if in_kernel(engine):
        t = engine._tables
        count = 0
        for row in t["src_head"].tolist():
            while row >= 0:
                count += 1
                row = int(t["src_next"][row])
        return count
    return sum(len(q) for q in engine._source_queues.values())


def assert_drained(engine) -> None:
    """No VC held, every free stack full, no request or source queue."""
    assert held_vcs(engine) == []
    assert not busy_counts(engine).any()
    for free in free_vcs(engine):
        assert sorted(free) == list(range(engine.num_vcs))
    assert pending_requests(engine) == 0
    assert source_queued(engine) == 0
