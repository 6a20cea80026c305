"""Flit-level wormhole simulator for k-ary n-cubes.

The validation substrate of the paper: a discrete-event simulator
"operating at the flit level" where "the network cycle time ... is
defined as the transmission time of a single flit across a physical
channel" (paper §4).  The simulator implements assumptions (i)-(vi) of
the analytical model:

* Poisson sources, Pfister–Norton hot-spot destinations;
* fixed message length ``Lm`` flits;
* infinite injection queues, instantaneous ejection;
* deterministic dimension-order routing (x first, then y);
* ``V >= 2`` virtual channels per physical channel with per-VC flit
  buffers; a VC holds the channel for the whole message (wormhole) but
  physical channel *bandwidth* is time-multiplexed flit-by-flit among
  ready VCs (fair round-robin, Dally [3]);
* a non-blocking crossbar: an input VC only ever waits for its
  *outgoing* channel, never for the switch.

Deadlock freedom uses the Dally–Seitz dateline scheme: virtual channels
are split into two classes per physical channel and a message moves to
class 1 when it crosses a ring's wrap-around channel
(:mod:`repro.topology.routing`).

Public front-end: :class:`~repro.simulator.sim.Simulation` with
:class:`~repro.simulator.config.SimulationConfig`.

Two interchangeable cycle engines exist (``config.engine`` /
``$REPRO_ENGINE``): the structure-of-arrays engine
(:class:`~repro.simulator.soa.SoACycleEngine`, the fast default) and
the reference engine (:class:`~repro.simulator.engine.CycleEngine`,
the correctness oracle); their outputs are bit-identical.  With
deterministic routing and a C compiler the SoA engine runs the whole
wormhole lifecycle in C, through
:class:`~repro.simulator.batch.BatchedSoAEngine`, which advances B
networks per kernel call (a solo run is one row); same-shape
configuration sets go through it together via
:func:`~repro.simulator.sim.run_batch`, each row bit-identical to its
solo run.
"""

from repro.simulator.batch import BatchedSoAEngine, batch_shape_key
from repro.simulator.config import SimulationConfig, resolve_engine_kind
from repro.simulator.engine import CycleEngine
from repro.simulator.sim import Simulation, SimulationResult, run_batch
from repro.simulator.soa import SoACycleEngine
from repro.simulator.stats import BatchMeans, LatencyStats

__all__ = [
    "SimulationConfig",
    "Simulation",
    "SimulationResult",
    "BatchMeans",
    "LatencyStats",
    "CycleEngine",
    "SoACycleEngine",
    "BatchedSoAEngine",
    "batch_shape_key",
    "run_batch",
    "resolve_engine_kind",
]
