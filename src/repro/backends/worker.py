"""The file-queue worker agent: ``repro worker <campaign-dir>``.

A :class:`FileQueueWorker` is the host-side half of the
:class:`~repro.backends.filequeue.FileQueueBackend` protocol.  Any
number of workers — on one host or on many hosts sharing the campaign
directory — run the same loop:

1. **Claim**: scan ``queue/`` in sorted order, skip entries whose lease
   exists, and try to create ``leases/<unit>.lease`` with
   ``O_CREAT | O_EXCL``; exactly one contender wins.  After winning,
   re-read the queue file — it is authoritative for the attempt number
   and may have been retracted by the coordinator in between — and
   release the lease if the unit vanished.
2. **Compute and persist**: run the unit's configurations through the
   engine's own chunk function
   (:func:`~repro.experiments.sweep._simulate_chunk`), so a distributed
   point is bit-identical to a local one.  It writes each point to the
   shared :class:`~repro.store.ResultStore` whose root the unit body
   names (none when the campaign runs without a store) — the only write
   of that point anywhere.
3. **Reply**: publish ``results/<unit>.json`` with an atomic
   tmp+rename (:func:`publish_result`) — *before* releasing the lease,
   so there is no window where a unit is neither leased nor resolved.
   If the coordinator has already ended the campaign and swept the
   tmp file, the unit was resolved without this copy; the reply is
   dropped and the worker serves on.
4. **Release**: delete the lease only if this worker still owns it (the
   coordinator may have broken it; a ``lease-steal`` fault certainly
   has).

A heartbeat thread refreshes ``heartbeats/<id>.json`` and touches the
held lease every ``heartbeat_interval`` seconds; the coordinator reads
both files' mtimes for liveness, so a stalled worker (heartbeat thread
blocked) loses its lease and its work is requeued elsewhere.

``SIGTERM`` drains gracefully: the worker finishes the unit it is
computing, publishes the result, releases any lease it claimed but has
not started, removes its heartbeat file, and exits 0.  The coordinator's
``stop`` sentinel file drains the same way.

Fault injection (``REPRO_FAULTS``): the ``worker-kill``,
``heartbeat-stall`` and ``lease-steal`` kinds fire here, keyed on the
unit's first per-point seed and the attempt number — the same
deterministic SHA-256 draw scheme as the pool-worker ``crash``/``hang``
kinds, and like them gated so they only fire in a real ``repro worker``
process (:func:`repro.faults.mark_worker_process`), never inside a test
harness running the worker in-process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
from pathlib import Path
from typing import List, Optional, Tuple

from repro import faults
from repro.backends.filequeue import (
    PROTOCOL_VERSION,
    config_from_dict,
    ensure_layout,
    heartbeats_dir,
    lease_path_for,
    leases_dir,
    queue_dir,
    read_json,
    release_lease,
    results_dir,
    stop_path,
    try_claim,
)
from repro.store import atomic_write_json

__all__ = ["FileQueueWorker", "publish_result"]


def publish_result(root: Path, uid: str, payload: dict) -> None:
    """Publish a unit's reply as ``results/<uid>.json`` (atomic tmp+rename).

    A tmp file that vanishes before its rename was swept by the
    coordinator's end-of-campaign cleanup: the unit is already resolved,
    so the reply is dropped instead of raised.
    """
    try:
        atomic_write_json(results_dir(root) / f"{uid}.json", payload)
    except FileNotFoundError:
        pass


class _Heartbeat(threading.Thread):
    """Refresh the worker's heartbeat file and touch its held lease."""

    def __init__(self, worker: "FileQueueWorker", interval: float) -> None:
        super().__init__(name=f"heartbeat-{worker.worker_id}", daemon=True)
        self.worker = worker
        self.interval = interval
        self._wake = threading.Event()
        self._done = False
        self.suspended = False  # heartbeat-stall fault flips this
        self._seq = 0

    def beat(self) -> None:
        if self.suspended:
            return
        self._seq += 1
        atomic_write_json(
            self.worker.heartbeat_path,
            {
                "protocol": PROTOCOL_VERSION,
                "worker": self.worker.worker_id,
                "pid": os.getpid(),
                "seq": self._seq,
                "time": time.time(),
            },
        )
        lease = self.worker.held_lease
        if lease is not None:
            try:
                os.utime(lease)
            except OSError:
                pass  # lease was broken; the claim loop finds out later

    def run(self) -> None:
        while not self._done:
            try:
                self.beat()
            except OSError:
                pass
            self._wake.wait(self.interval)
            self._wake.clear()

    def stop(self) -> None:
        self._done = True
        self._wake.set()


class FileQueueWorker:
    """One worker process of a file-queue campaign.

    Parameters
    ----------
    campaign_dir:
        The shared campaign directory.
    worker_id:
        Stable identity used in lease/heartbeat files; generated when
        omitted.
    poll_interval:
        Sleep between queue scans when no work is claimable.
    heartbeat_interval:
        Heartbeat/lease refresh period.  Must comfortably undercut the
        coordinator's ``heartbeat_timeout`` and ``lease_timeout``.
    lease_duration:
        Advisory lease lifetime written into the lease payload
        (liveness is judged by lease mtime, which the heartbeat
        refreshes — see the filequeue module docstring).
    once:
        Exit after the queue is drained instead of idling for more work
        (the coordinator's ``stop`` sentinel also ends the loop).
    """

    def __init__(
        self,
        campaign_dir: "Path | str",
        *,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        heartbeat_interval: float = 5.0,
        lease_duration: float = 60.0,
        once: bool = False,
    ) -> None:
        if poll_interval <= 0 or heartbeat_interval <= 0 or lease_duration <= 0:
            raise ValueError("worker intervals must be positive")
        self.root = ensure_layout(campaign_dir)
        self.worker_id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.poll_interval = float(poll_interval)
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_duration = float(lease_duration)
        self.once = bool(once)
        self.heartbeat_path = heartbeats_dir(self.root) / f"{self.worker_id}.json"
        self.held_lease: Optional[Path] = None
        self.units_done = 0
        self._stop = False
        self._heartbeat: Optional[_Heartbeat] = None

    # -- lifecycle ------------------------------------------------------
    def request_stop(self, *_args: object) -> None:
        """SIGTERM handler: finish the current unit, then drain."""
        self._stop = True

    def _draining(self) -> bool:
        return self._stop or stop_path(self.root).exists()

    # -- claim ----------------------------------------------------------
    def _claim_next(self) -> Optional[Tuple[Path, dict, Path]]:
        """Claim one queue entry; ``(queue_file, body, lease)`` or ``None``.

        Never decodes other workers' leases (a corrupt lease cannot
        crash the claimer — the coordinator quarantines it); loses the
        ``O_EXCL`` race silently and moves to the next entry.
        """
        for queue_file in sorted(queue_dir(self.root).glob("*.json")):
            lease = lease_path_for(queue_file)
            if lease.exists():
                continue
            body = read_json(queue_file)
            if body is None or body.get("protocol") != PROTOCOL_VERSION:
                continue  # mid-publish, retracted, or foreign protocol
            now = time.time()
            claimed = try_claim(
                lease,
                {
                    "protocol": PROTOCOL_VERSION,
                    "worker": self.worker_id,
                    "unit": body.get("unit"),
                    "claimed_at": now,
                    # Advisory only: expiry is judged by lease *mtime*
                    # on the shared filesystem, so host clock skew
                    # cannot break a healthy worker's lease.
                    "deadline": now + self.lease_duration,
                },
            )
            if not claimed:
                continue
            # The queue file is authoritative (attempt number may have
            # been bumped, or the unit retracted, since we read it).
            fresh = read_json(queue_file)
            if fresh is None or fresh.get("protocol") != PROTOCOL_VERSION:
                release_lease(lease, self.worker_id)
                continue
            return queue_file, fresh, lease
        return None

    # -- compute --------------------------------------------------------
    def _run_unit(self, body: dict) -> dict:
        """Execute one unit body; returns the result-file payload."""
        # Lazy import: the engine module imports the backends package.
        from repro.experiments.sweep import _simulate_chunk

        uid = str(body.get("unit"))
        attempt = int(body.get("attempt", 0))
        try:
            cfgs = [config_from_dict(c) for c in body.get("configs", [])]
            if not cfgs:
                raise ValueError(f"malformed unit body for {uid!r}")
            fault_key = cfgs[0].seed
            faults.maybe_worker_kill(fault_key, attempt)
            self._maybe_steal_lease(fault_key, attempt)
            self._maybe_stall(fault_key, attempt)
            started = time.monotonic()
            points = _simulate_chunk(cfgs, body.get("store"), attempt)
            seconds = time.monotonic() - started
            return {
                "protocol": PROTOCOL_VERSION,
                "unit": uid,
                "attempt": attempt,
                "worker": self.worker_id,
                "status": "ok",
                "seconds": seconds,
                "points": [
                    {
                        "rate": p.rate,
                        "latency": p.latency,
                        "saturated": p.saturated,
                    }
                    for p in points
                ],
            }
        except Exception as exc:  # noqa: BLE001 - reported, never raised
            return {
                "protocol": PROTOCOL_VERSION,
                "unit": uid,
                "attempt": attempt,
                "worker": self.worker_id,
                "status": "error",
                "kind": "exception",
                "message": f"{type(exc).__name__}: {exc}",
            }

    # -- fault hooks ----------------------------------------------------
    def _maybe_stall(self, fault_key: object, attempt: int) -> None:
        """``heartbeat-stall``: freeze heartbeat + lease refresh, then sleep.

        The lease goes unrefreshed for ``secs``, so a stall longer than
        the coordinator's timeouts loses the work to requeue — exactly
        the "stalls without crashing" failure mode.
        """
        secs = faults.heartbeat_stall_secs(fault_key, attempt)
        if secs is None or self._heartbeat is None:
            return
        self._heartbeat.suspended = True
        try:
            time.sleep(secs)
        finally:
            self._heartbeat.suspended = False

    def _maybe_steal_lease(self, fault_key: object, attempt: int) -> None:
        """``lease-steal``: delete another worker's lease file.

        Simulates a hostile/byzantine peer breaking a claim.  The victim
        finishes its copy anyway; determinism makes both payloads
        identical and first-result-wins resolves the duplicate.
        """
        if not faults.lease_steal_triggers(fault_key, attempt):
            return
        for lease in sorted(leases_dir(self.root).glob("*.lease")):
            payload = read_json(lease)
            if payload is not None and payload.get("worker") == self.worker_id:
                continue  # never steal from ourselves
            try:
                lease.unlink()
            except OSError:
                continue
            return

    # -- main loop ------------------------------------------------------
    def run(self, max_units: Optional[int] = None) -> int:
        """Serve the campaign until drained/stopped; returns units done."""
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self.request_stop)
        self._heartbeat = _Heartbeat(self, self.heartbeat_interval)
        self._heartbeat.beat()
        self._heartbeat.start()
        try:
            while not self._draining():
                if max_units is not None and self.units_done >= max_units:
                    break
                claim = self._claim_next()
                if claim is None:
                    if self.once:
                        break
                    time.sleep(self.poll_interval)
                    continue
                queue_file, body, lease = claim
                if self._draining():
                    # Claimed but not started: release, don't compute.
                    release_lease(lease, self.worker_id)
                    break
                self.held_lease = lease
                try:
                    result = self._run_unit(body)
                    # Publish the result *before* releasing the lease:
                    # there is never a moment where the unit is neither
                    # leased nor resolved.
                    publish_result(self.root, body["unit"], result)
                finally:
                    self.held_lease = None
                release_lease(lease, self.worker_id)
                try:
                    queue_file.unlink()
                except OSError:
                    pass  # coordinator retracted it first
                self.units_done += 1
        finally:
            self._heartbeat.stop()
            self._heartbeat.join(timeout=2.0)
            try:
                self.heartbeat_path.unlink()  # deregister
            except OSError:
                pass
        return self.units_done
