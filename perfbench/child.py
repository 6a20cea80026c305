"""The benchmark's measurement process (a fresh interpreter per use).

``--mode compile``  compile the C kernel into the (empty) private cache.
``--mode setup``    set the workload up, print ``READY``, exit.
``--mode run``      set up, print ``READY``, run the workload's job in a
                    closed loop for ``--seconds``, check every output and
                    write the measurements to ``--out``.

``run.py`` starts this process with private ``REPRO_KERNEL_CACHE`` and
``REPRO_CACHE_DIR`` directories and times it from spawn to ``READY``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def _ready() -> None:
    """Tell ``run.py`` set-up is done; later output goes to stderr.

    ``run.py`` stops reading this process's stdout after ``READY``, so
    nothing written later may block on a full pipe.
    """
    print("READY", flush=True)
    os.dup2(2, 1)


def _compile() -> dict:
    from repro.simulator.kernel import load_c_kernel

    t0 = time.perf_counter()
    fn = load_c_kernel()
    return {"kernel_compile_s": time.perf_counter() - t0, "kernel": "c" if fn else "numpy"}


def _setup(workload: str, seed: int, work: Path):
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401

    t1 = time.perf_counter()
    from repro.simulator.kernel import load_c_kernel
    from repro.simulator.soa import resolve_soa_kernel

    load_c_kernel()
    t2 = time.perf_counter()
    from perfbench.workloads import build_inputs

    inputs = build_inputs(workload, seed, work)
    t3 = time.perf_counter()
    info = {
        "import_s": t1 - t0,
        "kernel_load_s": t2 - t1,
        "inputs_s": t3 - t2,
        "in_process_s": t3 - T_START,
        "kernel": resolve_soa_kernel(),
    }
    return inputs, info


def _provisioner(work: Path, traces: list):
    """Start the traced worker entries for one campaign job."""
    from perfbench import workloads as W

    def provision(campaign_dir: Path):
        campaign_dir.mkdir(parents=True, exist_ok=True)
        spawned = time.time()
        procs = []
        for i in range(W.CAMPAIGN_WORKERS):
            out = work / f"worker-{len(traces)}-{i}.json"
            log = open(work / f"worker-{len(traces)}-{i}.log", "wb")
            try:
                procs.append(
                    (
                        subprocess.Popen(
                            [
                                sys.executable,
                                str(ROOT / "perfbench" / "worker_entry.py"),
                                str(campaign_dir),
                                "--id", f"pb-{i}",
                                "--spawned-at", repr(spawned),
                                "--out", str(out),
                                "--poll", str(W.CAMPAIGN_POLL),
                                "--heartbeat", str(W.CAMPAIGN_HEARTBEAT),
                            ],
                            stdout=log,
                            stderr=subprocess.STDOUT,
                        ),
                        out,
                    )
                )
            finally:
                log.close()

        def drain() -> None:
            stop = campaign_dir / "stop"
            stop.write_text("drain\n")
            for proc, _out in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            stop.unlink()
            traces.append([json.loads(out.read_text()) for _p, out in procs if out.exists()])

        return drain

    return provision


class ChildPeakRSS:
    """Peak resident memory of this process's children (the campaign's
    ``repro worker`` fleet), polled from ``/proc`` while they live."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _children(self) -> list:
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += (task / "children").read_text().split()
            except OSError:
                continue
        return pids

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in self._children():
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        self.peak_kb = max(self.peak_kb, int(line.split()[1]))

    def __enter__(self) -> "ChildPeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _job_runner(inputs, work: Path, capture, tracer=None, worker_traces=None):
    """One job per call; with ``tracer`` the wrappers are on for its duration."""
    from perfbench import workloads as W
    from perfbench.tracer import install

    counter = [0]

    def job(job_dir: Path):
        if inputs.workload == "model-dse":
            return W.run_dse_job(inputs)
        if inputs.workload == "campaign-fq2":
            provision = _provisioner(work, worker_traces) if tracer is not None else None
            return W.run_campaign_job(inputs, job_dir / "store", job_dir / "campaign", provision)
        return W.run_figure_job(inputs, job_dir)

    def run_one():
        counter[0] += 1
        job_dir = work / f"job-{'t' if tracer else 'u'}{counter[0]}"
        capture.reset()
        if tracer is None and inputs.workload == "campaign-fq2":
            with ChildPeakRSS() as watcher:
                res = job(job_dir)
            res.extra["worker_peak_rss_mb"] = watcher.peak_kb / 1024.0
        elif tracer is None:
            res = job(job_dir)
        else:
            with install(tracer):
                res = job(job_dir)
        if capture.results:
            # Every simulated point counts, also those a batched chunk
            # computed past a panel's first saturated rate, which the
            # sweep then drops from its series.
            res.points = len(capture.results)
        res.extra["sim_rows"] = capture.sim_rows()
        res.extra["first_result"] = capture.results[0] if capture.results else None
        res.extra["sim_counts"] = capture.sim_counts()
        res.extra["model_rows"] = capture.model_rows
        res.extra["model_failed"] = capture.model_failed
        shutil.rmtree(job_dir, ignore_errors=True)
        return res

    return run_one


def _window(runners, seconds: float) -> list:
    """Closed loop for ``seconds``, cycling through ``runners``.

    Another job starts only if it should end inside the window, and every
    runner runs at least once; returns the jobs of each runner.
    """
    done = [[] for _ in runners]
    start = time.perf_counter()
    i = 0
    while True:
        done[i % len(runners)].append(runners[i % len(runners)]())
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(j.wall_s for jobs in done for j in jobs)
        if i >= len(runners) and elapsed + typical > seconds:
            return done


def _output(job) -> dict:
    out = dict(job.output)
    out["sim_results"] = job.extra["sim_rows"]
    return out


def _checks(inputs, jobs, traced_jobs, seed_is_default: bool) -> dict:
    from perfbench import checks as C
    from perfbench import workloads as W

    first = _output(jobs[0])
    detail = {}
    detail["determinism"] = sum(C.count_exact(_output(j), first) for j in jobs[1:])
    detail["traced_vs_untraced"] = sum(C.count_exact(_output(j), first) for j in traced_jobs)
    if seed_is_default:
        expected = C.load_expected(inputs.workload)
        detail["pinned"] = 1 if expected is None else C.compare_pinned(first, expected)
    wl = inputs.workload
    if wl in ("fig1-solo", "fig2-batch8"):
        res = jobs[0].extra["first_result"]
        detail["reference_engine"] = 1 if res is None else C.reference_engine_mismatch(res)
    elif wl == "campaign-fq2":
        cfgs = W.campaign_configs(inputs.panels, inputs.sweep_seed)
        spec = inputs.panels[0]
        detail["reference_engine"] = C.reference_point_mismatch(
            cfgs[(spec.name, 1)], first["panels"][spec.name]["sim"][1]
        )
        detail["store_hits"] = sum(
            j.extra["store_hits"] != inputs.snapshot_points for j in jobs + traced_jobs
        )
    elif wl == "model-dse":
        detail["scalar_kernel"] = sum(
            C.scalar_kernel_mismatch(inputs.design[i], first["design"][i])
            for i in C.sample_design_points(inputs.design)
        )
    return detail


def _e2e(inputs, jobs, rss_mb: float, worker_rss_mb: float) -> dict:
    from perfbench import checks as C
    from perfbench.metrics import percentile, supported_percentile

    walls = [j.wall_s for j in jobs]
    wall = statistics.median(walls)
    total_wall = sum(walls)
    points = sum(j.points for j in jobs)
    m = {
        "wall_s": wall,
        "points_per_s": points / total_wall,
        "peak_rss_mb": rss_mb,
    }
    counts = [j.extra["sim_counts"] for j in jobs]
    if inputs.workload in ("fig1-solo", "fig2-batch8"):
        m["sim_cycles_per_s"] = sum(c["cycles_run"] for c in counts) / total_wall
        m["flit_moves_per_s"] = sum(c["flit_moves"] for c in counts) / total_wall
        err = C.model_sim_rel_err(jobs[0].output["panels"])
        m["model_sim_rel_err"] = err if err is not None else float("nan")
    if inputs.workload == "model-dse":
        times = [t for j in jobs for t in j.unit_times]
        m["saturation_searches_per_s"] = sum(j.saturation_searches for j in jobs) / total_wall
        m["config_p50_ms"] = percentile(times, 50) * 1e3
        top = supported_percentile(len(times))
        m["config_p90_ms"] = percentile(times, 90) * 1e3 if top and top >= 90 else float("nan")
        m["config_samples"] = len(times)
    if inputs.workload == "campaign-fq2":
        m["worker_peak_rss_mb"] = worker_rss_mb
    return m


def _units(inputs, jobs) -> tuple:
    """(attempted, failed) units: sim points + failures, model rows."""
    attempted = failed = 0
    for j in jobs:
        if inputs.workload != "model-dse":
            attempted += j.points + j.failures
            failed += j.failures
        attempted += j.extra["model_rows"]
        failed += j.extra["model_failed"]
    return attempted, failed


def _run(args, work: Path) -> dict:
    from perfbench import workloads as W
    from perfbench.capture import Capture

    inputs, setup = _setup(args.workload, args.seed, work)
    _ready()
    record = {"setup": setup}
    with Capture() as capture:
        untraced = _job_runner(inputs, work, capture)
        if not args.trace:
            (jobs,) = _window([untraced], args.seconds)
            traced = []
        else:
            jobs, traced, ledger_args = _trace(args, inputs, work, capture, untraced, record)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        worker_rss_mb = max(j.extra.get("worker_peak_rss_mb", 0.0) for j in jobs)
    record["checks"] = _checks(inputs, jobs, traced, args.seed == W.DEFAULT_SEED)
    record["e2e"] = _e2e(inputs, jobs, rss_mb, worker_rss_mb)
    record["jobs"] = len(jobs)
    record["walls"] = [j.wall_s for j in jobs]
    record["attempted"], record["failed"] = _units(inputs, jobs)
    record["output"] = _output(jobs[0])
    record["inputs"] = inputs.describe()
    if args.trace:
        from perfbench import ledger

        record["ledger_partial"] = ledger.compute(
            setup=setup, untraced_wall=record["e2e"]["wall_s"], **ledger_args
        )
    return record


def _trace(args, inputs, work: Path, capture, untraced, record: dict) -> tuple:
    """A ``--trace 1`` run: untraced and traced jobs alternate.

    Alternating keeps drift (first-job warm-up, neighbours on the host)
    out of the tracing overhead, the traced minus the untraced median.
    Returns the untraced jobs, the traced jobs and the arguments of
    :func:`ledger.compute`; the spans and shares go into ``record``.
    """
    from perfbench import ledger
    from perfbench import workloads as W
    from perfbench.tracer import Tracer

    worker_traces: list = []
    tracer = Tracer()
    traced_runner = _job_runner(inputs, work, capture, tracer, worker_traces)
    jobs, traced = _window([untraced, traced_runner], args.seconds)
    workers = [w for job in worker_traces for w in job]
    sim_counts: dict = {}
    for counts in [j.extra["sim_counts"] for j in traced] + [w["sim_counts"] for w in workers]:
        for k, v in counts.items():
            sim_counts[k] = sim_counts.get(k, 0) + v
    stats: dict = {}
    for j in traced:
        for k, v in j.stats.items():
            stats[k] = stats.get(k, 0) + v
    main_dump = tracer.dump()
    worker_dumps = [w["trace"] for w in workers]
    traced_wall = statistics.median(j.wall_s for j in traced)
    record["traced_walls"] = [j.wall_s for j in traced]
    ledger_args = dict(
        main=main_dump,
        workers=worker_dumps,
        jobs=len(traced),
        sim_counts=sim_counts,
        engine_stats=stats,
        traced_wall=traced_wall,
        worker_ready=[w["ready_s"] for w in workers if w["ready_s"] is not None],
        worker_rss_mb=[w["peak_rss_mb"] for w in workers],
        num_workers=W.CAMPAIGN_WORKERS if inputs.workload == "campaign-fq2" else 0,
    )
    record["shares"] = ledger.shares(main_dump, len(traced), traced_wall)
    if worker_dumps:
        record["worker_self_s"] = ledger.self_by_span(ledger.merge(worker_dumps), len(traced))
    record["worker_info"] = [
        {k: w[k] for k in ("id", "units", "import_s", "ready_s", "peak_rss_mb")} for w in workers
    ]
    record["spans"] = main_dump["spans"]
    return jobs, traced, ledger_args


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("compile", "setup", "run"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.mode == "compile":
        result = _compile()
    elif args.mode == "setup":
        _inputs, result = _setup(args.workload, args.seed, work)
        _ready()
    else:
        result = _run(args, work)
    Path(args.out).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
