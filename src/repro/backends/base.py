"""The sweep-backend interface.

A :class:`SweepBackend` is the execution substrate of one sweep
campaign: the :class:`~repro.experiments.sweep.SweepEngine` hands it an
ordered mapping of *work units* (chunks of same-shape simulation
configurations, one point each when ``batch=1``) and two streaming
callbacks, and the backend runs every unit to completion or terminal
failure — however it likes: in process or on a local pool
(:class:`~repro.backends.local.LocalPoolBackend`), or cooperatively
with any number of worker processes on a shared filesystem
(:class:`~repro.backends.filequeue.FileQueueBackend`).

The contract is the one :meth:`repro.resilience.ResilientExecutor.run`
established — the local backend uses that executor for ``jobs > 1`` —
and every backend must be indistinguishable from it result-wise:

* retried units re-run identical configurations, so results are
  bit-identical to a fault-free run on any backend;
* ``on_result`` streams each completion (the engine journals it
  there) and may return keys to *drop* (cancel);
* terminal failures surface as :class:`~repro.resilience.TaskFailure`
  records, never exceptions — one bad unit cannot discard a campaign.

The split is modelled on firesim's runtools run-farm layer: one
interface, a local implementation, and an externally-provisioned
implementation whose hosts merely run a worker agent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.resilience import ExecutorStats, RetryPolicy, TaskFailure

__all__ = ["SweepBackend"]


class SweepBackend(ABC):
    """Executes one campaign's work units under a retry policy."""

    #: Short selector string (``"local"``, ``"file"``) for CLI/report use.
    name: str = "backend"

    @abstractmethod
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
        """Run every task to completion or terminal failure.

        Parameters mirror :meth:`repro.resilience.ResilientExecutor.run`:
        ``fn(*tasks[key], attempt)`` is the unit of work, ``on_result``
        streams completions (and may return keys to drop), ``on_retry``
        observes every charged non-terminal failure, ``policy`` budgets
        retries/timeouts and ``stats`` accumulates counters.  A unit's
        arguments are everything it needs — for a sweep chunk, its
        configs and the result-store root it writes its points to — so
        the unit persists its own results wherever it runs and the
        backend stores nothing.

        Returns ``(results, failures)`` keyed like ``tasks``; every
        non-dropped key appears in exactly one of the two mappings.
        """
