"""The in-process backend: units run here, or on a resilient local pool.

:class:`LocalPoolBackend` is the default execution substrate of the
sweep engine's campaign loop.  With ``jobs=1`` it runs the units itself,
in process and in order: a failed unit is retried straight away after
the policy's backoff, an exception that exhausts the budget becomes a
``TaskFailure(kind="exception")``, ``KeyboardInterrupt`` propagates,
and no timeout applies.  With ``jobs > 1`` it hands the units to
:class:`~repro.resilience.ResilientExecutor` — the process pool with
per-attempt timeouts, capped-backoff retries and pool rebuilds.  Both
honour the ``on_result`` drops the engine uses to stop at saturation.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.backends.base import SweepBackend
from repro.resilience import (
    ExecutorStats,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
)

__all__ = ["LocalPoolBackend"]


class LocalPoolBackend(SweepBackend):
    """Run work units in process (``jobs=1``) or on a local process pool.

    Parameters
    ----------
    jobs:
        Worker processes of the pool; ``1`` runs units in process.
    """

    name = "local"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def run(
        self,
        fn: Callable,
        tasks: Mapping[Hashable, tuple],
        *,
        policy: RetryPolicy,
        stats: ExecutorStats,
        on_result: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
    ) -> Tuple[Dict[Hashable, object], Dict[Hashable, TaskFailure]]:
        if self.jobs > 1:
            executor = ResilientExecutor(self.jobs, policy, stats=stats)
            return executor.run(fn, tasks, on_result=on_result, on_retry=on_retry)
        results: Dict[Hashable, object] = {}
        failures: Dict[Hashable, TaskFailure] = {}
        dropped: set = set()
        for key, args in tasks.items():
            if key in dropped:
                continue
            for attempt in range(policy.max_retries + 1):
                stats.submitted += 1
                try:
                    value = fn(*args, attempt)
                except Exception as exc:
                    if attempt == policy.max_retries:
                        failures[key] = TaskFailure(
                            key=key,
                            kind="exception",
                            attempts=attempt + 1,
                            message=f"{type(exc).__name__}: {exc}",
                        )
                        stats.failures += 1
                    else:
                        stats.retries += 1
                        if on_retry is not None:
                            on_retry(key, "exception", attempt)
                        time.sleep(policy.backoff(attempt))
                    continue
                results[key] = value
                stats.completed += 1
                if on_result is not None:
                    dropped.update(on_result(key, value, attempt + 1) or ())
                break
        return results, failures
