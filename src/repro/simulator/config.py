"""Simulation configuration and validation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "FLIT_LIMIT",
    "SimulationConfig",
    "normalize_engine_kind",
    "resolve_engine_kind",
]

#: Exclusive upper bound of ``message_length`` and ``buffer_depth``.
#: The SoA engine's int32 slot arrays add this constant to the head room
#: of a final hop (so the depth check never blocks ejection), which is
#: exact only while every flit count stays below it.
FLIT_LIMIT = 1 << 28


def normalize_engine_kind(engine: str) -> str:
    """Canonicalise an engine selector (strip/lowercase, '' -> 'auto').

    The *same* normalisation is applied to the ``engine=`` argument and
    to ``$REPRO_ENGINE``, so ``SimulationConfig(engine="SOA")`` and
    ``REPRO_ENGINE=SOA`` select identically.  Raises a
    :class:`ValueError` on anything other than ``auto``/``soa``/
    ``reference``.
    """
    raw = str(engine).strip().lower() or "auto"
    if raw not in ("auto", "soa", "reference"):
        raise ValueError(
            f"engine must be 'auto', 'soa' or 'reference', got {engine!r}"
        )
    return raw


def resolve_engine_kind(engine: str = "auto") -> str:
    """Resolve an engine selector to ``"soa"`` or ``"reference"``.

    The argument is normalised exactly like ``$REPRO_ENGINE`` (case-
    and whitespace-insensitive); ``"auto"`` defers to the environment
    variable and defaults to the structure-of-arrays engine.  Both
    engines produce bit-identical simulations, so the choice only
    affects speed.  Raises a :class:`ValueError` naming
    ``REPRO_ENGINE`` on bad environment input.
    """
    kind = normalize_engine_kind(engine)
    if kind in ("soa", "reference"):
        return kind
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if raw in ("", "auto", "soa"):
        return "soa"
    if raw == "reference":
        return "reference"
    raise ValueError(
        f"REPRO_ENGINE must be 'soa' or 'reference', got {raw!r}"
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Network / workload parameters mirror the analytical model; the run
    control parameters govern warmup, measurement length and saturation
    detection.

    Attributes
    ----------
    k, n:
        Radix and dimensionality of the k-ary n-cube.
    bidirectional:
        ``False`` (default): the paper's unidirectional network.
        ``True``: bidirectional links with minimal-direction
        dimension-order routing — the extension the paper mentions in
        §2 ("can be easily extended to deal with bi-directional case").
    routing:
        ``"deterministic"`` (the paper's dimension-order algorithm,
        default) or ``"adaptive"`` — minimal adaptive routing with
        Duato-style escape channels (one escape VC per dateline class +
        an adaptive pool; needs ``num_vcs >= 3``).  The adaptive mode is
        the comparator the paper's introduction discusses ([7], [17],
        [21], [22]); see ``examples/deterministic_vs_adaptive.py``.
    num_vcs:
        Virtual channels per physical channel (>= 2 for deadlock-free
        torus routing; the two dateline classes partition them).
    buffer_depth:
        Flit capacity of each virtual-channel input buffer.  With the
        engine's next-cycle credit semantics a depth of at least 2 is
        required for full-rate (1 flit/cycle) streaming; the default 4
        is a common router configuration.
    message_length:
        Fixed message length ``Lm`` in flits.
    rate:
        Per-node Poisson generation rate (messages/cycle).
    hotspot_fraction:
        Pfister–Norton ``h``; 0 gives uniform traffic.
    hotspot_node:
        Coordinates of the hot node (defaults to the origin).
    warmup_cycles:
        Cycles discarded before statistics collection.
    measure_cycles:
        Measurement window after warmup; the run ends earlier if
        ``target_completions`` is reached first.
    target_completions:
        Optional completion budget (post-warmup); ``None`` disables.
    seed:
        RNG seed (numpy PCG64).
    model_ejection:
        The paper's assumption (iv) transfers messages "to the local PE
        as soon as they arrive" — an infinite-bandwidth ejection port
        (the default, ``False``).  Setting ``True`` adds a real ejection
        channel per node (one flit/cycle, ``num_vcs`` virtual channels),
        which makes the hot node's ejection port an additional
        bottleneck; used by the assumption-(iv) ablation.
    saturation_backlog_factor:
        The run aborts and reports saturation when more than
        ``factor * num_nodes`` messages are backlogged (queued at
        sources or in flight) — an unstable queue grows without bound,
        so a deep backlog is a reliable instability signal.
    min_drain_ratio:
        After measurement, the run is flagged saturated when fewer than
        this fraction of the messages generated during the measurement
        window completed in it (completion deficit = growing queues).
    engine:
        Cycle-engine implementation: ``"soa"`` (structure-of-arrays hot
        path, the fast default), ``"reference"`` (the original
        object-per-message engine, kept as the correctness oracle) or
        ``"auto"`` (default) which follows ``$REPRO_ENGINE`` and falls
        back to ``"soa"``.  Both produce bit-identical results.
    """

    k: int
    n: int = 2
    bidirectional: bool = False
    routing: str = "deterministic"
    num_vcs: int = 2
    buffer_depth: int = 4
    message_length: int = 32
    rate: float = 1e-4
    hotspot_fraction: float = 0.0
    hotspot_node: Optional[Tuple[int, ...]] = None
    warmup_cycles: int = 10_000
    measure_cycles: int = 150_000
    target_completions: Optional[int] = None
    seed: int = 0
    model_ejection: bool = False
    saturation_backlog_factor: float = 8.0
    min_drain_ratio: float = 0.85
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"radix k must be >= 2, got {self.k}")
        if self.n < 1:
            raise ValueError(f"dimensions n must be >= 1, got {self.n}")
        if self.routing not in ("deterministic", "adaptive"):
            raise ValueError(
                f"routing must be 'deterministic' or 'adaptive', got "
                f"{self.routing!r}"
            )
        if self.num_vcs < 2:
            raise ValueError(f"num_vcs must be >= 2, got {self.num_vcs}")
        if self.routing == "adaptive":
            if self.num_vcs < 3:
                raise ValueError(
                    "adaptive routing needs num_vcs >= 3 "
                    "(2 escape + >= 1 adaptive)"
                )
            if self.bidirectional:
                raise ValueError(
                    "adaptive routing is implemented for the paper's "
                    "unidirectional networks only"
                )
        if not 1 <= self.buffer_depth < FLIT_LIMIT:
            raise ValueError(
                f"buffer_depth must be in [1, 2**28), got {self.buffer_depth}"
            )
        if not 1 <= self.message_length < FLIT_LIMIT:
            raise ValueError(
                f"message_length must be in [1, 2**28), got {self.message_length}"
            )
        if not 0 <= self.rate < math.inf:
            raise ValueError(
                f"rate must be non-negative and finite, got {self.rate}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError(
                f"hotspot_fraction must be in [0, 1], got {self.hotspot_fraction}"
            )
        if self.warmup_cycles < 0:
            raise ValueError(f"warmup_cycles must be >= 0, got {self.warmup_cycles}")
        if self.measure_cycles < 1:
            raise ValueError(f"measure_cycles must be >= 1, got {self.measure_cycles}")
        if self.target_completions is not None and self.target_completions < 1:
            raise ValueError(
                f"target_completions must be >= 1, got {self.target_completions}"
            )
        if self.saturation_backlog_factor <= 0:
            raise ValueError(
                "saturation_backlog_factor must be positive, got "
                f"{self.saturation_backlog_factor}"
            )
        if not 0.0 < self.min_drain_ratio <= 1.0:
            raise ValueError(
                f"min_drain_ratio must be in (0, 1], got {self.min_drain_ratio}"
            )
        # Store the canonical selector so equality, hashing and cache
        # keys do not distinguish "SOA" from "soa" (frozen dataclass:
        # write through object.__setattr__).
        object.__setattr__(self, "engine", normalize_engine_kind(self.engine))
        if self.hotspot_node is not None:
            if len(self.hotspot_node) != self.n:
                raise ValueError(
                    f"hotspot_node {self.hotspot_node} must have {self.n} coordinates"
                )
            for c in self.hotspot_node:
                if not 0 <= c < self.k:
                    raise ValueError(
                        f"hotspot_node coordinate {c} out of range [0, {self.k})"
                    )

    @property
    def num_nodes(self) -> int:
        return self.k**self.n

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles
