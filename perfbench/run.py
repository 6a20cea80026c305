"""Repository benchmark: one workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-solo --seed 3 --seconds 15 --trace 0

Workloads: ``fig1-solo``, ``fig2-batch8``, ``model-dse``,
``campaign-fq2`` (see ``perfbench/BENCHMARK.md``); ``--workload all``
runs the four in turn.  Each run

1. makes private kernel-cache and result-store directories under
   ``.perfbench/`` and compiles the C kernel there once (timed as
   ``simulator.kernel.compile_s``, excluded from set-up);
2. times the set-up of the workload in three fresh interpreters (two
   probes and the measuring process) and reports the median as
   ``setup_s``;
3. runs the workload's job in a closed loop for ``--seconds`` (with
   ``--trace 1``: half untraced, half with the per-layer wrappers);
4. checks every output, prints every metric by name with its unit and
   a host fingerprint, writes the full record to ``.perfbench/runs/``
   (or ``--record``), and prints the result as one JSON line last.

It exits non-zero, printing no result, when the repository's sources
are missing or any step fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.metrics import E2E, PER_LAYER, applies, gated  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fresh-interpreter set-up probes besides the measuring process itself.
SETUP_PROBES = 2
#: Every run ends (or is abandoned) within this many seconds.
RUN_DEADLINE_S = 170.0
#: Fingerprint fields that must agree for two runs to be comparable.
COMPARABLE_KEYS = ("cpu_model", "nproc", "python", "numpy", "cc", "kernel")


class BenchError(RuntimeError):
    """A step of the benchmark failed; no result is printed."""


def _env(work: Path) -> dict:
    """Child environment: private caches, only this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_KERNEL_CACHE"] = str(work / "kernels")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline exceeded")
    return left


def _child(args: list, env: dict, deadline: float, *, ready: bool) -> tuple:
    """Run ``child.py``; returns (seconds from spawn to READY or exit, record).

    The child leads its own process group so that, should it overrun the
    deadline, it is killed together with any worker processes it started.
    """
    out = Path(env["TMPDIR"]) / f"child-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        until_ready = None
        if ready:
            for line in proc.stdout:
                if line.strip() == "READY":
                    until_ready = time.perf_counter() - t0
                    break
            else:
                raise BenchError(f"child {args[:2]} exited before it was ready")
        code = proc.wait(timeout=_remaining(deadline))
        if until_ready is None:
            until_ready = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"child {args[:2]} exited with code {code}")
        return until_ready, json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} overran the {RUN_DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()


def _cmd_version(cmd: list) -> str:
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = (res.stdout or res.stderr).strip().splitlines()
    return lines[0] if lines else "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(numpy_version: str, kernel: str) -> dict:
    """Host and build identity stamped on every report."""
    git_rev = None
    if (ROOT / ".git").exists():
        rev = _cmd_version(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        git_rev = rev if rev != "unavailable" else None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _cmd_version([os.environ.get("CC") or "cc", "--version"]),
        "kernel": kernel,
        "git_rev": git_rev,
        "src_digest": _src_digest(),
    }


def _fmt(value: float) -> str:
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return str(value)
    if abs(value) >= 1e5:
        return f"{value:,.0f}"
    return f"{value:.6g}"


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"repository sources not found under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs_dir = ROOT / ".perfbench"
    work = runs_dir / f"work-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        env = _env(work)
        common = ["--work", str(work)]
        _, comp = _child(["--mode", "compile", *common], env, deadline, ready=False)
        numpy_version = _cmd_version([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
        fp = fingerprint(numpy_version, comp["kernel"])
        wl = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = []
        for i in range(SETUP_PROBES):
            t, info = _child(
                ["--mode", "setup", *wl, *common[:1], str(work / f"probe-{i}")], env, deadline, ready=True
            )
            setups.append((t, info))
        t, record = _child(
            ["--mode", "run", *wl, "--seconds", str(args.seconds), "--trace", str(args.trace),
             *common[:1], str(work / "run")],
            env, deadline, ready=True,
        )
        setups.append((t, record["setup"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["fingerprint"] = fp
    record["comparable"] = fp["kernel"] == "c"
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["trace"] = args.trace
    record["seconds"] = args.seconds
    record["setup_samples_s"] = [t for t, _ in setups]
    record["e2e"]["setup_s"] = statistics.median(record["setup_samples_s"])
    record["mismatches"] = sum(record["checks"].values())
    record["e2e"]["mismatches"] = record["mismatches"]
    record["e2e"]["failed_frac"] = record["failed"] / max(record["attempted"], 1)
    if args.trace:
        setup_medians = {
            key: statistics.median(info[key] for _, info in setups)
            for key in ("import_s", "kernel_load_s")
        }
        ledger = record.pop("ledger_partial")
        ledger["cli.import_s"] = setup_medians["import_s"]
        ledger["simulator.kernel.load_s"] = setup_medians["kernel_load_s"]
        ledger["simulator.kernel.compile_s"] = comp["kernel_compile_s"]
        record["ledger"] = ledger
    return record


def report(record: dict) -> None:
    """Human-readable report: fingerprint, every metric with its unit."""
    wl = record["workload"]
    print(
        f"perfbench {wl} seed={record['seed']} trace={record['trace']} "
        f"jobs={record['jobs']} window={record['seconds']}s"
    )
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    if not record["comparable"]:
        print("WARNING: the numpy fallback kernel ran; this run is incomparable")
    print("end-to-end:")
    for name, (unit, better, _bound, _wls, _gated) in E2E.items():
        if applies(name, wl) and name in record["e2e"]:
            extra = ""
            if name == "setup_s":
                extra = f"  (median of {len(record['setup_samples_s'])} fresh interpreters)"
            elif name == "wall_s":
                extra = f"  (median of {record['jobs']} jobs)"
            elif name.startswith("config_p"):
                extra = f"  ({record['e2e']['config_samples']} samples)"
            print(f"  {name:28s} {_fmt(record['e2e'][name]):>16s} {unit:6s} {better} is better{extra}")
    print("checks: " + json.dumps(record["checks"], sort_keys=True))
    if record["trace"]:
        print("per-layer (traced run, per job):")
        for name, (unit, _better) in PER_LAYER.items():
            print(f"  {name:40s} {_fmt(record['ledger'][name]):>16s} {unit}")


def result_line(record: dict) -> str:
    if record["trace"]:
        metrics = {
            name: {"value": float(record["ledger"][name]), "unit": unit}
            for name, (unit, _b) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(record["e2e"][name]), "unit": E2E[name][0]} for name in gated()
        }
    return json.dumps(
        {
            "correct": record["mismatches"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all four in turn",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="where to write the full run record (JSON)")
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="pin this run's outputs as the expected outputs (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error("--write-expected needs the default seed")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record and len(names) > 1:
        parser.error("--record takes a single workload")
    lines = []
    for name in names:
        args.workload = name
        try:
            record = run(args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.write_expected:
            from perfbench.checks import expected_path

            path = expected_path(name)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(record["output"], indent=1, sort_keys=True) + "\n")
            print(f"pinned outputs written to {path.relative_to(ROOT)}")
        out = Path(args.record) if args.record else (
            ROOT / ".perfbench" / "runs"
            / f"{name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, sort_keys=True, default=str))
        report(record)
        lines.append((name, json.loads(result_line(record))))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _n, line in lines),
            "attempted": sum(line["attempted"] for _n, line in lines),
            "failed": sum(line["failed"] for _n, line in lines),
            "metrics": {f"{n}.{k}": v for n, line in lines for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
