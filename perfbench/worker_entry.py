"""Traced file-queue worker for the ``campaign-fq2`` traced run.

Does what ``repro worker <campaign-dir>`` does (import the CLI, then
``FileQueueWorker(...).run()``) with the benchmark's wrappers installed,
and writes its spans, captured simulator counts, ready time and peak
memory to ``--out`` when the coordinator's ``stop`` sentinel drains it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("campaign_dir")
    parser.add_argument("--id", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--poll", type=float, required=True)
    parser.add_argument("--heartbeat", type=float, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the start-up cost ``repro worker`` pays)

    import_s = time.perf_counter() - t0
    from repro.backends.worker import FileQueueWorker

    from perfbench.capture import Capture
    from perfbench.tracer import Tracer, install

    tracer = Tracer()
    with Capture() as capture, install(tracer) as installed:
        worker = FileQueueWorker(
            args.campaign_dir,
            worker_id=args.id,
            poll_interval=args.poll,
            heartbeat_interval=args.heartbeat,
        )
        units = worker.run()
        first_beat = installed.first_beat.get("mtime")
    record = {
        "id": args.id,
        "units": units,
        "import_s": import_s,
        "ready_s": None if first_beat is None else first_beat - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_counts": capture.sim_counts(),
        "trace": tracer.dump(),
    }
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
