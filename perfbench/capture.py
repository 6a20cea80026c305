"""Result capture, installed in traced and untraced runs alike.

Two low-frequency hooks record what the output checks and the
throughput metrics need and add no timing: every finished simulation
passes through ``repro.simulator.sim._workload_result`` (solo and
batched rows alike), which hands over the workload and its result; and
every batched model solve returns its per-row status from
``FixedPointSolver.solve_batch``.  One call each per simulated point or
per model solve.
"""

from __future__ import annotations

from typing import Dict, List

from .checks import canon_sim_result
from .tracer import Patch


class Capture:
    """Collects simulation results and model-row outcomes per job."""

    def __init__(self) -> None:
        self._patches: List[Patch] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything captured so far (between jobs)."""
        self.results: List[object] = []
        self.flit_moves = 0
        self.completed = 0
        self.cycles = 0
        self.model_rows = 0
        self.model_failed = 0

    def sim_counts(self) -> Dict[str, float]:
        return {
            "cycles_run": self.cycles,
            "flit_moves": self.flit_moves,
            "messages_completed": self.completed,
        }

    def sim_rows(self) -> List[list]:
        return [canon_sim_result(r) for r in self.results]

    def __enter__(self) -> "Capture":
        from repro.core.fixed_point import FixedPointSolver, FixedPointStatus
        from repro.simulator import sim

        workload_result = sim._workload_result
        solve_batch = FixedPointSolver.solve_batch
        failed = FixedPointStatus.FAILED

        def capture_result(w):
            res = workload_result(w)
            self.results.append(res)
            self.flit_moves += w.engine.counters.flit_moves
            self.completed += res.num_completed
            self.cycles += res.cycles_run
            return res

        def capture_solve(solver, *args, **kwargs):
            res = solve_batch(solver, *args, **kwargs)
            self.model_rows += len(res.iterations)
            self.model_failed += sum(s is failed for s in res.status)
            return res

        self._patches = [
            Patch(sim, "_workload_result", capture_result),
            Patch(FixedPointSolver, "solve_batch", capture_solve),
        ]
        for p in self._patches:
            p.apply()
        return self

    def __exit__(self, *_exc) -> None:
        for p in reversed(self._patches):
            p.undo()
        self._patches = []
