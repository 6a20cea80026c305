"""Crash-safe distributed sweep campaigns over a shared filesystem.

The :class:`FileQueueBackend` coordinates one sweep campaign between a
coordinator (the :class:`~repro.experiments.sweep.SweepEngine` process)
and any number of worker processes — started with ``repro worker
<campaign-dir>`` on the same host or on other hosts that share the
campaign directory (NFS and friends).  There is no network transport:
every message is a file, every handoff an atomic filesystem operation.

Campaign directory layout
-------------------------
::

    <campaign-dir>/
      meta.json            campaign header (protocol version, campaign id)
      queue/<unit>.json    work units awaiting claim: configs plus the
                           result-store root the worker writes points to
      leases/<unit>.lease  claims: O_CREAT|O_EXCL created by one winner
      results/<unit>.json  reply messages: points or a worker error
                           (atomic tmp+rename), deleted once consumed
      heartbeats/<id>.json one per live worker, refreshed on a timer
      corrupt/             quarantined undecodable lease/result files
      logs/                stdout/stderr of coordinator-spawned workers
      stop                 drain sentinel: workers finish and exit

Protocol
--------
* **Claiming** is mutual exclusion by ``O_CREAT | O_EXCL``: exactly one
  worker's ``open`` of ``leases/<unit>.lease`` succeeds.  After winning,
  the claimer re-reads the queue file — the coordinator may have
  resolved or requeued the unit in between — and releases the lease if
  the unit vanished.  A claimer never *decodes* other leases, so a
  corrupt lease cannot crash it; the coordinator quarantines
  undecodable leases to ``corrupt/`` instead.
* **Liveness** is filesystem mtime, not wall clocks: workers refresh
  their heartbeat file and touch their held lease every
  ``heartbeat_interval``; the coordinator declares a worker dead when
  its heartbeat mtime goes stale and a lease orphaned when its mtime
  exceeds ``lease_timeout`` (plus a ``clock_skew`` allowance).  Because
  mtimes are assigned by the (shared) filesystem, skew between host
  clocks cannot expire a healthy worker's lease — the ``deadline``
  field inside the lease is advisory only.
* **Requeue** of orphaned work charges one attempt through the
  campaign's :class:`~repro.resilience.RetryPolicy` (capped exponential
  backoff, optional decorrelated jitter) and republishes the unit with
  the bumped attempt number, so fault-injection draws key afresh.  A
  unit that exhausts its budget becomes a structured
  :class:`~repro.resilience.TaskFailure` — never an exception.
* **Speculation**: a unit held past ``speculate_factor ×`` the median
  completed-unit duration gets a duplicate queue entry (own lease, same
  result path).  Results are pure functions of the configs, so
  whichever copy finishes first wins by atomic rename and the loser's
  identical payload is a no-op.
* **Determinism**: a unit computes the same points on every host, every
  attempt, every copy — campaigns with injected worker kills are
  bit-identical to clean single-process runs.
* **Persistence**: the worker that computes a unit writes its points to
  the result store the unit body names (none when the campaign runs
  without a store); the coordinator writes no points.  A ``results/``
  reply only carries the points back and is deleted once consumed.

One coordinator per campaign directory at a time; workers may outlive
campaigns and serve the next one (the ``stop`` sentinel is only written
when the coordinator owns its workers, i.e. ``spawn_workers > 0``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.backends.base import SweepBackend
from repro.core.results import SweepPoint
from repro.resilience import ExecutorStats, RetryPolicy, TaskFailure
from repro.simulator.config import SimulationConfig
from repro.store import atomic_write_json

__all__ = [
    "FileQueueBackend",
    "PROTOCOL_VERSION",
    "config_from_dict",
    "ensure_layout",
    "lease_path_for",
    "read_json",
    "release_lease",
    "sweep_stale",
    "try_claim",
]

#: Bump when the on-disk campaign protocol changes incompatibly.
PROTOCOL_VERSION = 3

#: Grace before an *undecodable* lease is quarantined: its writer may be
#: mid-write right now (the O_EXCL create and the payload write are two
#: steps).
UNDECODABLE_LEASE_GRACE = 2.0


# ----------------------------------------------------------------------
# Layout and shared low-level protocol helpers (coordinator + worker)
# ----------------------------------------------------------------------
def queue_dir(root: Path) -> Path:
    return Path(root) / "queue"


def leases_dir(root: Path) -> Path:
    return Path(root) / "leases"


def results_dir(root: Path) -> Path:
    return Path(root) / "results"


def heartbeats_dir(root: Path) -> Path:
    return Path(root) / "heartbeats"


def corrupt_dir(root: Path) -> Path:
    return Path(root) / "corrupt"


def logs_dir(root: Path) -> Path:
    return Path(root) / "logs"


def meta_path(root: Path) -> Path:
    return Path(root) / "meta.json"


def stop_path(root: Path) -> Path:
    return Path(root) / "stop"


def ensure_layout(root: "Path | str") -> Path:
    """Create the campaign directory skeleton (idempotent)."""
    root = Path(root)
    for d in (
        queue_dir(root),
        leases_dir(root),
        results_dir(root),
        heartbeats_dir(root),
        corrupt_dir(root),
        logs_dir(root),
    ):
        d.mkdir(parents=True, exist_ok=True)
    return root


def read_json(path: Path) -> Optional[dict]:
    """Decode a protocol file; ``None`` on any miss/corruption (never raises)."""
    try:
        raw = Path(path).read_text()
    except (OSError, UnicodeDecodeError):
        return None
    try:
        data = json.loads(raw)
    except ValueError:
        return None
    return data if isinstance(data, dict) else None


def quarantine(root: Path, path: Path, reason: str) -> None:
    """Move a corrupt protocol file to ``corrupt/`` (best-effort)."""
    try:
        dest = corrupt_dir(root)
        dest.mkdir(parents=True, exist_ok=True)
        path.replace(dest / f"{path.name}.{reason}")
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass


def lease_path_for(queue_file: Path) -> Path:
    """The lease guarding one queue entry (sibling ``leases/<stem>.lease``)."""
    queue_file = Path(queue_file)
    return leases_dir(queue_file.parent.parent) / f"{queue_file.stem}.lease"


def try_claim(lease_path: Path, payload: dict) -> bool:
    """Atomically claim a unit: ``O_CREAT | O_EXCL`` on the lease path.

    Exactly one concurrent claimer's ``open`` succeeds — the kernel (or
    the NFS server) arbitrates.  The payload (owner id, claim time,
    advisory deadline) is written just after; a claimer that dies inside
    that window leaves an undecodable lease, which expiry handling
    quarantines rather than decodes.
    """
    try:
        fd = os.open(str(lease_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.flush()
        try:
            os.fsync(fh.fileno())
        except OSError:
            pass
    return True


def release_lease(lease_path: Path, worker_id: Optional[str] = None) -> bool:
    """Remove a lease, but only if ``worker_id`` still owns it.

    A worker whose lease was broken (expiry requeue, a ``lease-steal``
    fault) must not unlink the *successor's* lease when it finishes its
    now-orphaned copy of the work.  ``worker_id=None`` skips the
    ownership check (coordinator use).  Returns whether a file was
    removed; never raises.
    """
    lease_path = Path(lease_path)
    if worker_id is not None:
        payload = read_json(lease_path)
        if payload is not None and payload.get("worker") != worker_id:
            return False
    try:
        lease_path.unlink()
        return True
    except OSError:
        return False


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from its JSON form."""
    data = dict(data)
    if data.get("hotspot_node") is not None:
        data["hotspot_node"] = tuple(data["hotspot_node"])
    return SimulationConfig(**data)


def sweep_stale(
    root: "Path | str",
    *,
    lease_timeout: float = 60.0,
    heartbeat_timeout: float = 15.0,
    tmp_max_age: float = 600.0,
    now: Optional[float] = None,
) -> Dict[str, int]:
    """Startup sweep: clear debris a crashed campaign left behind.

    Mirrors the result store's ``*.tmp`` orphan sweep for the campaign
    directory: removes lease files older than ``lease_timeout`` and
    heartbeat files older than ``heartbeat_timeout`` (their owners are
    long dead), quarantines *undecodable* lease files of any age past
    the claim-write grace (a claimer that died between the ``O_EXCL``
    create and the payload write), and removes stale ``*.tmp`` orphans
    of interrupted atomic writers anywhere under the campaign.  Young
    files are left alone — they may belong to a live campaign.  Returns
    per-category removal counts; never raises.
    """
    root = Path(root)
    now = time.time() if now is None else now
    counts = {"leases": 0, "heartbeats": 0, "tmp": 0, "quarantined": 0}

    def _age(path: Path) -> Optional[float]:
        try:
            return now - path.stat().st_mtime
        except OSError:
            return None

    for lease in list(leases_dir(root).glob("*.lease")):
        age = _age(lease)
        if age is None:
            continue
        if read_json(lease) is None and age > UNDECODABLE_LEASE_GRACE:
            quarantine(root, lease, "undecodable")
            counts["quarantined"] += 1
        elif age > lease_timeout:
            try:
                lease.unlink()
                counts["leases"] += 1
            except OSError:
                pass
    for hb in list(heartbeats_dir(root).glob("*.json")):
        age = _age(hb)
        if age is not None and age > heartbeat_timeout:
            try:
                hb.unlink()
                counts["heartbeats"] += 1
            except OSError:
                pass
    for tmp in list(root.rglob("*.tmp")):
        age = _age(tmp)
        if age is not None and age > tmp_max_age:
            try:
                tmp.unlink()
                counts["tmp"] += 1
            except OSError:
                pass
    return counts


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _Unit:
    """Coordinator-side state of one work unit."""

    uid: str
    key: Hashable
    cfgs: List[SimulationConfig]
    store: Optional[str]  # result-store root the worker writes to
    attempt: int = 0  # charged attempts so far
    requeue_at: Optional[float] = None  # backoff gate for republish
    first_claim: Optional[float] = None
    speculated: bool = False
    copies: List[str] = field(default_factory=list)  # published file stems


class FileQueueBackend(SweepBackend):
    """Coordinate a campaign with file-queue workers on a shared filesystem.

    Parameters
    ----------
    campaign_dir:
        The shared campaign directory (created if missing).  One
        coordinator per directory at a time.
    spawn_workers:
        Local ``repro worker`` subprocesses to launch for the campaign
        (the jobs=N convenience case).  They are supervised — a dead
        worker is relaunched while work remains — drained via the
        ``stop`` sentinel at campaign end, and their heartbeats cleaned
        up.  ``0`` (default) expects externally provisioned workers,
        firesim-style: other hosts run ``repro worker <campaign-dir>``
        themselves and outlive the campaign.
    lease_timeout:
        Seconds a lease may go unrefreshed before the unit is requeued
        (charged).  Workers touch held leases with their heartbeat, so
        only a stalled or dead worker lets one expire.
    heartbeat_timeout:
        Seconds a worker heartbeat may go unrefreshed before the worker
        is declared dead and all its leases requeued (charged).
    poll_interval:
        Coordinator scan period (seconds).
    clock_skew:
        Extra allowance on lease expiry.  Expiry is measured against
        filesystem mtimes — already skew-free on one shared filesystem —
        so this merely widens the margin for slow metadata propagation.
    speculate_factor / speculate_min_seconds:
        A unit leased for longer than ``max(speculate_min_seconds,
        speculate_factor × median completed duration)`` gets a
        speculative duplicate; first result wins.  ``speculate_factor=None``
        disables speculation.
    wait_for_workers:
        With ``spawn_workers == 0``: raise if no worker heartbeat
        appears within this many seconds (``None`` waits forever).
    worker_heartbeat_interval / worker_poll_interval:
        Tuning forwarded to spawned workers.
    max_worker_restarts:
        Supervision budget — more respawns than this raises (a
        crash-looping fleet should fail loudly, not spin forever).
    """

    name = "file"

    def __init__(
        self,
        campaign_dir: "Path | str",
        *,
        spawn_workers: int = 0,
        lease_timeout: float = 60.0,
        heartbeat_timeout: float = 15.0,
        poll_interval: float = 0.2,
        clock_skew: float = 5.0,
        speculate_factor: Optional[float] = 6.0,
        speculate_min_seconds: float = 30.0,
        wait_for_workers: Optional[float] = None,
        worker_heartbeat_interval: Optional[float] = None,
        worker_poll_interval: Optional[float] = None,
        max_worker_restarts: int = 32,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        if lease_timeout <= 0 or heartbeat_timeout <= 0 or poll_interval <= 0:
            raise ValueError("timeouts and poll_interval must be positive")
        self.root = Path(campaign_dir)
        self.spawn_workers = int(spawn_workers)
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.poll_interval = float(poll_interval)
        self.clock_skew = float(clock_skew)
        self.speculate_factor = speculate_factor
        self.speculate_min_seconds = float(speculate_min_seconds)
        self.wait_for_workers = wait_for_workers
        self.worker_heartbeat_interval = worker_heartbeat_interval
        self.worker_poll_interval = worker_poll_interval
        self.max_worker_restarts = int(max_worker_restarts)

    # -- unit (de)hydration --------------------------------------------
    def _unit_body(self, unit: _Unit) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "unit": unit.uid,
            "attempt": unit.attempt,
            "configs": [asdict(c) for c in unit.cfgs],
            "store": unit.store,
        }

    def _publish(
        self, unit: _Unit, stats: ExecutorStats, *, copy: str = ""
    ) -> None:
        stem = unit.uid + (f".{copy}" if copy else "")
        atomic_write_json(queue_dir(self.root) / f"{stem}.json", self._unit_body(unit))
        if stem not in unit.copies:
            unit.copies.append(stem)
        stats.submitted += 1

    def _retract(self, unit: _Unit) -> None:
        """Remove every published copy's queue file and lease (best-effort)."""
        for stem in unit.copies:
            for path in (
                queue_dir(self.root) / f"{stem}.json",
                leases_dir(self.root) / f"{stem}.lease",
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
        unit.copies.clear()

    # -- spawned-worker management -------------------------------------
    def _spawn_worker(self, index: int, serial: int) -> "subprocess.Popen":
        import repro

        worker_id = f"fq-{os.getpid()}-{index}-{serial}"
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join([src_root, existing])
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            str(self.root),
            "--id",
            worker_id,
            "--lease-duration",
            str(self.lease_timeout),
        ]
        if self.worker_heartbeat_interval is not None:
            cmd += ["--heartbeat", str(self.worker_heartbeat_interval)]
        if self.worker_poll_interval is not None:
            cmd += ["--poll", str(self.worker_poll_interval)]
        log = open(logs_dir(self.root) / f"{worker_id}.log", "ab")
        try:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()
        proc._repro_worker_id = worker_id  # type: ignore[attr-defined]
        return proc

    # -- main coordination loop ----------------------------------------
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
        # ``fn`` executes on the *worker* side (workers run the engine's
        # own chunk function on each unit's ``(configs, store root)``
        # arguments), so it is unused here.
        del fn
        ensure_layout(self.root)
        sweep_stale(
            self.root,
            lease_timeout=self.lease_timeout,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        # Clear coordination debris of any previous campaign in this
        # directory (results are keyed by a campaign-unique unit id, so
        # even a straggling old worker cannot feed this campaign).
        for d in (queue_dir(self.root), results_dir(self.root)):
            for f in list(d.glob("*.json")):
                try:
                    f.unlink()
                except OSError:
                    pass
        try:
            stop_path(self.root).unlink()
        except OSError:
            pass

        # Hydrate units with campaign-unique ids.
        keys = list(tasks)
        cfgs_by_key = {k: list(tasks[k][0]) for k in keys}
        salt_blob = json.dumps(
            [[asdict(c) for c in cfgs_by_key[k]] for k in keys],
            sort_keys=True,
            default=str,
        )
        campaign = hashlib.sha256(salt_blob.encode()).hexdigest()[:8]
        atomic_write_json(
            meta_path(self.root),
            {
                "protocol": PROTOCOL_VERSION,
                "campaign": campaign,
                "created": time.time(),
            },
        )
        units: Dict[str, _Unit] = {}
        by_key: Dict[Hashable, str] = {}
        for i, key in enumerate(keys):
            uid = f"{campaign}-{i:05d}"
            units[uid] = _Unit(
                uid=uid, key=key, cfgs=cfgs_by_key[key], store=tasks[key][1]
            )
            by_key[key] = uid

        results: Dict[Hashable, object] = {}
        failures: Dict[Hashable, TaskFailure] = {}
        finished: set = set()  # uids resolved (result, failure, or dropped)
        durations: List[float] = []
        procs: List[subprocess.Popen] = []
        restarts = 0
        started = time.monotonic()
        saw_worker = False

        def pending() -> List[_Unit]:
            return [u for u in units.values() if u.uid not in finished]

        def resolve(unit: _Unit) -> None:
            finished.add(unit.uid)
            self._retract(unit)
            try:
                (results_dir(self.root) / f"{unit.uid}.json").unlink()
            except OSError:
                pass

        def drop_keys(keys_to_drop) -> None:
            for key in keys_to_drop:
                uid = by_key.get(key)
                if uid is not None and uid not in finished:
                    resolve(units[uid])

        def requeue(unit: _Unit, kind: str, message: str, now: float) -> None:
            charged = unit.attempt + 1
            if kind == "lease-expired":
                stats.timeouts += 1
            if charged > policy.max_retries:
                failures[unit.key] = TaskFailure(
                    key=unit.key, kind=kind, attempts=charged, message=message
                )
                stats.failures += 1
                resolve(unit)
                return
            unit.attempt = charged
            stats.retries += 1
            if on_retry is not None:
                on_retry(unit.key, kind, charged - 1)
            self._retract(unit)
            unit.first_claim = None
            unit.speculated = False
            unit.requeue_at = now + policy.backoff(charged - 1)

        def discard_result(unit: _Unit) -> None:
            try:
                (results_dir(self.root) / f"{unit.uid}.json").unlink()
            except OSError:
                pass

        def consume_result(unit: _Unit, payload: dict) -> None:
            points = payload.get("points")
            if not isinstance(points, list) or len(points) != len(unit.cfgs):
                discard_result(unit)
                requeue(
                    unit,
                    "exception",
                    "malformed result payload",
                    time.monotonic(),
                )
                return
            try:
                pts = [
                    SweepPoint(
                        rate=float(p["rate"]),
                        latency=float(p["latency"]),
                        saturated=bool(p["saturated"]),
                    )
                    for p in points
                ]
            except (KeyError, TypeError, ValueError):
                discard_result(unit)
                requeue(
                    unit, "exception", "malformed result payload", time.monotonic()
                )
                return
            # A unit claimed and finished between two polls was never
            # seen leased; its worker-reported compute time stands in.
            if unit.first_claim is not None:
                durations.append(time.monotonic() - unit.first_claim)
            elif isinstance(payload.get("seconds"), (int, float)):
                durations.append(float(payload["seconds"]))
            results[unit.key] = pts
            stats.completed += 1
            resolve(unit)
            if on_result is not None:
                drops = on_result(unit.key, pts, unit.attempt + 1)
                if drops:
                    drop_keys(drops)

        # Initial publish + worker fleet.
        now = time.monotonic()
        for unit in units.values():
            self._publish(unit, stats)
        for i in range(self.spawn_workers):
            procs.append(self._spawn_worker(i, 0))

        try:
            while pending():
                now = time.monotonic()
                wall = time.time()

                # 1. Consume completed results (and worker-reported errors).
                for unit in pending():
                    rpath = results_dir(self.root) / f"{unit.uid}.json"
                    if not rpath.exists():
                        continue
                    payload = read_json(rpath)
                    if payload is None:
                        # Mid-rename torn read is impossible; this is a
                        # corrupt writer.  Quarantine; the unit stays
                        # pending and its lease/queue lifecycle recovers.
                        quarantine(self.root, rpath, "undecodable")
                        continue
                    if payload.get("status") == "ok":
                        consume_result(unit, payload)
                    else:
                        try:
                            rpath.unlink()
                        except OSError:
                            pass
                        release_lease(leases_dir(self.root) / f"{unit.uid}.lease")
                        requeue(
                            unit,
                            str(payload.get("kind") or "exception"),
                            str(payload.get("message") or "worker error"),
                            now,
                        )

                # 2. Dead-worker detection (stale heartbeat mtimes).
                dead_workers: set = set()
                live_workers: set = set()
                for hb in list(heartbeats_dir(self.root).glob("*.json")):
                    saw_worker = True
                    try:
                        age = wall - hb.stat().st_mtime
                    except OSError:
                        continue
                    if age > self.heartbeat_timeout:
                        dead_workers.add(hb.stem)
                        stats.pool_rebuilds += 1
                        try:
                            hb.unlink()
                        except OSError:
                            pass
                    else:
                        live_workers.add(hb.stem)

                # 3. Lease expiry / orphan requeue.
                for unit in pending():
                    if unit.uid in finished:
                        continue
                    expired: Optional[Tuple[str, str]] = None
                    claimed = False
                    for stem in list(unit.copies):
                        lease = leases_dir(self.root) / f"{stem}.lease"
                        try:
                            age = wall - lease.stat().st_mtime
                        except OSError:
                            continue
                        claimed = True
                        payload = read_json(lease)
                        if payload is None:
                            if age > UNDECODABLE_LEASE_GRACE:
                                quarantine(self.root, lease, "undecodable")
                                expired = (
                                    "lease-expired",
                                    "undecodable lease (claimer died mid-claim)",
                                )
                            continue
                        owner = str(payload.get("worker") or "")
                        if owner in dead_workers or (
                            owner
                            and owner not in live_workers
                            and age > self.heartbeat_timeout
                        ):
                            expired = (
                                "worker-dead",
                                f"worker {owner} heartbeat went stale",
                            )
                        elif age > self.lease_timeout + self.clock_skew:
                            expired = (
                                "lease-expired",
                                f"lease unrefreshed for {age:.1f}s",
                            )
                    if expired is not None:
                        requeue(unit, expired[0], expired[1], now)
                    elif claimed and unit.first_claim is None:
                        unit.first_claim = now

                # 4. Republish units whose backoff elapsed.
                for unit in pending():
                    if unit.requeue_at is not None and now >= unit.requeue_at:
                        unit.requeue_at = None
                        self._publish(unit, stats)

                # 5. Straggler speculation (first result wins).
                if self.speculate_factor is not None and durations:
                    threshold = max(
                        self.speculate_min_seconds,
                        self.speculate_factor * statistics.median(durations),
                    )
                    for unit in pending():
                        if (
                            not unit.speculated
                            and unit.first_claim is not None
                            and now - unit.first_claim > threshold
                        ):
                            unit.speculated = True
                            self._publish(unit, stats, copy="spec")

                # 6. Supervise spawned workers.
                if self.spawn_workers and pending():
                    for i, proc in enumerate(procs):
                        if proc.poll() is None:
                            continue
                        restarts += 1
                        if restarts > self.max_worker_restarts:
                            raise RuntimeError(
                                f"file-queue workers crash-looping: "
                                f"{restarts} restarts exceeded the budget "
                                f"of {self.max_worker_restarts}"
                            )
                        stats.pool_rebuilds += 1
                        procs[i] = self._spawn_worker(i, restarts)

                # 7. No-worker watchdog (externally-provisioned mode).
                if (
                    not self.spawn_workers
                    and self.wait_for_workers is not None
                    and not saw_worker
                    and now - started > self.wait_for_workers
                ):
                    raise RuntimeError(
                        f"no worker heartbeat appeared within "
                        f"{self.wait_for_workers:g}s — start workers with "
                        f"`repro worker {self.root}`"
                    )

                if pending():
                    time.sleep(self.poll_interval)
        finally:
            self._finalize(procs)
        return results, failures

    def _finalize(self, procs: List["subprocess.Popen"]) -> None:
        """Drain spawned workers and clear transient coordination state."""
        spawned_ids = [
            getattr(p, "_repro_worker_id", None) for p in procs
        ]
        if procs:
            try:
                stop_path(self.root).write_text("drain\n")
            except OSError:
                pass
            deadline = time.monotonic() + max(10.0, 2 * self.heartbeat_timeout)
            for proc in procs:
                remaining = deadline - time.monotonic()
                try:
                    proc.wait(timeout=max(0.1, remaining))
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
            try:
                stop_path(self.root).unlink()
            except OSError:
                pass
        # Transient coordination state is campaign-scoped: clear it so a
        # completed campaign leaks no lease/queue/result/tmp files.
        for pattern, d in (
            ("*.json", queue_dir(self.root)),
            ("*.lease", leases_dir(self.root)),
            ("*.json", results_dir(self.root)),
        ):
            for f in list(d.glob(pattern)):
                try:
                    f.unlink()
                except OSError:
                    pass
        for tmp in list(self.root.rglob("*.tmp")):
            try:
                tmp.unlink()
            except OSError:
                pass
        for wid in spawned_ids:
            if wid:
                try:
                    (heartbeats_dir(self.root) / f"{wid}.json").unlink()
                except OSError:
                    pass
