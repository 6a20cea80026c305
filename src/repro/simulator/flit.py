"""Message state tracked by the flit-level engine.

The engine does not materialise individual flit objects: because flits of
a message move in order through a fixed route, the full flit-level state
is captured by *how many flits of the message have crossed each channel
of its route* (``crossed[i]``).  Buffer occupancies, header position and
tail position are all derived from that vector:

* flits in the VC buffer at the downstream end of route channel ``i``:
  ``crossed[i] - crossed[i+1]`` (the last hop's buffer drains instantly
  into the PE — assumption iv);
* the header has reached router ``i+1`` iff ``crossed[i] >= 1``;
* the tail has left channel ``i``'s buffer iff ``crossed[i+1] == length``.

This representation is exact for wormhole switching with in-order flits
and is what keeps a pure-Python flit-level simulation tractable.

Only the reference engine advances ``crossed`` per flit.  The default
structure-of-arrays engine (:mod:`repro.simulator.soa`) tracks flit
progress in its own flat per-VC arrays, so under it ``crossed`` stays
at its initial zeros.  When that engine's lifecycle runs in Python
(adaptive routing, the numpy kernel) it uses :class:`Message` as a thin
view at injection, header-arrival, tail-departure and delivery
boundaries and keeps ``vcs``, ``alloc_hops`` and ``injected_at``
current; when it runs in the C kernel (deterministic routing) the
kernel copies the route at admission and hands the message back at
delivery, and those three stay at their initial values.
"""

from __future__ import annotations

from typing import List

__all__ = ["Message"]


class Message:
    """In-flight message state.

    Attributes
    ----------
    route_channels:
        Engine channel ids, one per hop, in traversal order.
    route_classes:
        Dateline deadlock class (0/1) per hop.
    crossed:
        Flits that have fully crossed each route channel.
    vcs:
        Virtual-channel index held on each route channel (-1 before
        allocation / after release).
    alloc_hops:
        Number of leading hops whose VC has been allocated; the header
        may only cross channel ``i`` once ``alloc_hops > i``.
    """

    __slots__ = (
        "msg_id",
        "src",
        "dest",
        "length",
        "generated_at",
        "injected_at",
        "route_channels",
        "route_classes",
        "crossed",
        "vcs",
        "alloc_hops",
        "is_hot",
        "dynamic",
        "final_hop",
        "wrapped_dims",
    )

    def __init__(
        self,
        msg_id: int,
        src: int,
        dest: int,
        length: int,
        generated_at: int,
        route_channels: List[int],
        route_classes: List[int],
        is_hot: bool,
        dynamic: bool = False,
    ) -> None:
        if not route_channels:
            raise ValueError("a message must cross at least one channel")
        if len(route_channels) != len(route_classes):
            raise ValueError("route_channels and route_classes length mismatch")
        self.msg_id = msg_id
        self.src = src
        self.dest = dest
        self.length = length
        self.generated_at = generated_at
        self.injected_at = -1
        self.route_channels = route_channels
        self.route_classes = route_classes
        self.crossed = [0] * len(route_channels)
        self.vcs = [-1] * len(route_channels)
        self.alloc_hops = 0
        self.is_hot = is_hot
        # Dynamic (adaptive) messages grow their route hop by hop; the
        # final hop index is discovered when the header reaches the
        # destination's router.  Fixed-route messages know it up front.
        self.dynamic = dynamic
        self.final_hop = -1 if dynamic else len(route_channels) - 1
        self.wrapped_dims = 0  # bitmask: dimensions whose wrap was crossed

    @property
    def num_hops(self) -> int:
        return len(self.route_channels)

    def buffer_occupancy(self, hop: int) -> int:
        """Flits currently sitting in the buffer downstream of ``hop``."""
        if hop == self.final_hop:
            return 0  # instantaneous ejection (assumption iv)
        if hop + 1 >= len(self.crossed):
            return self.crossed[hop]  # next hop not yet chosen (dynamic)
        return self.crossed[hop] - self.crossed[hop + 1]

    def flits_available_upstream(self, hop: int) -> int:
        """Flits ready to cross channel ``hop`` this cycle."""
        if hop == 0:
            return self.length - self.crossed[0]
        return self.crossed[hop - 1] - self.crossed[hop]

    def is_delivered(self) -> bool:
        return (
            self.final_hop >= 0
            and self.crossed[self.final_hop] == self.length
        )

    def extend_route(self, channel: int, vc_class: int) -> None:
        """Append the next hop of a dynamic route."""
        if not self.dynamic:
            raise ValueError("cannot extend a fixed route")
        self.route_channels.append(channel)
        self.route_classes.append(vc_class)
        self.crossed.append(0)
        self.vcs.append(-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.msg_id}, {self.src}->{self.dest}, "
            f"len={self.length}, crossed={self.crossed})"
        )
