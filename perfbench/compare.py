"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 perfbench/compare.py BASE... --vs CHANGE...

``BASE`` and ``CHANGE`` are run records (``*.json`` written by
``run.py``) or directories of them.  For each workload and each
end-to-end metric it prints both sides' median and quartiles, the
delta of the medians and a verdict:

``improved``     the change is better by more than the base's own
                 quartile spread and wins at least 9 in 10 run pairs;
``no worse``     the change's median is within the metric's bound;
``worse``        the change's median is worse by more than the bound;
``unresolved``   either side's quartile spread exceeds the bound (and
                 not every change run beats every base run);
``incomparable`` the host fingerprints differ or a run fell back to
                 the numpy kernel.

Metrics whose bound is 0 (``mismatches``, ``failed_frac``,
``model_sim_rel_err``) are exact for a given seed, so they are compared
seed by seed: ``same``, ``worse`` if any seed got worse, else
``improved``.

Traced runs (``--trace 1``) add a per-layer table of median deltas.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import E2E, PER_LAYER, quartiles, spread  # noqa: E402
from perfbench.run import COMPARABLE_KEYS  # noqa: E402


def load_runs(paths: List[str]) -> List[dict]:
    runs = []
    for p in map(Path, paths):
        files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
        for f in files:
            data = json.loads(f.read_text())
            if isinstance(data, dict) and "workload" in data and "e2e" in data:
                runs.append(data)
    return runs


def host_key(run: dict) -> tuple:
    fp = run.get("fingerprint", {})
    return tuple(fp.get(k) for k in COMPARABLE_KEYS)


def comparable(base: List[dict], change: List[dict]) -> bool:
    """One host fingerprint on both sides and the C kernel everywhere."""
    runs = base + change
    return all(r.get("comparable") for r in runs) and len({host_key(r) for r in runs}) == 1


def verdict(name: str, base: List[float], change: List[float], bound: float) -> tuple:
    """``(verdict, relative delta)`` for one metric (delta > 0 is better)."""
    sign = 1.0 if E2E[name][1] == "higher" else -1.0
    bm = quartiles(base)[1]
    cm = quartiles(change)[1]
    if bm == 0:
        delta = 0.0 if cm == 0 else math.copysign(math.inf, sign * cm)
    else:
        delta = sign * (cm - bm) / abs(bm)
    spread_b, spread_c = spread(base), spread(change)
    all_better = all(sign * c > sign * b for c in change for b in base)
    pairs = list(zip(sorted(base), sorted(change)))
    wins = sum(sign * c > sign * b for b, c in pairs)
    if all_better or (delta > spread_b and wins >= 0.9 * len(pairs) and delta > 0):
        if max(spread_b, spread_c) <= bound or all_better:
            return "improved", delta
    if max(spread_b, spread_c) > bound and not all_better:
        return "unresolved", delta
    if -delta > bound:
        return "worse", delta
    return "no worse", delta


def exact_verdict(name: str, base: Dict[int, float], change: Dict[int, float]) -> tuple:
    """Seed-by-seed verdict for a metric that repeats exactly per seed."""
    sign = 1.0 if E2E[name][1] == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    if not seeds:
        return "unresolved", 0.0
    diffs = [sign * (change[s] - base[s]) for s in seeds]
    delta = sum(diffs) / len(diffs)
    if any(d < 0 for d in diffs):
        return "worse", delta
    if any(d > 0 for d in diffs):
        return "improved", delta
    return "same", delta


def _fmt(v: float) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return f"{v:.6g}"


def compare(base: List[dict], change: List[dict], out=sys.stdout) -> Dict[str, dict]:
    """Print the comparison; returns ``{workload: {metric: verdict}}``."""
    ok_hosts = comparable(base, change)
    if not ok_hosts:
        print("fingerprints differ or a run used the numpy kernel: incomparable", file=out)
    verdicts: Dict[str, dict] = {}
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for wl in workloads:
        b_runs = [r for r in base if r["workload"] == wl and not r.get("trace")]
        c_runs = [r for r in change if r["workload"] == wl and not r.get("trace")]
        verdicts[wl] = {}
        if b_runs and c_runs:
            print(f"\n{wl}: {len(b_runs)} base runs, {len(c_runs)} change runs", file=out)
            print(f"  {'metric':26s} {'base q1/med/q3':>34s} {'change q1/med/q3':>34s} {'delta':>8s}  verdict", file=out)
            for name, (unit, _better, bound, _wls, _gated) in E2E.items():
                bv = [r["e2e"][name] for r in b_runs if name in r["e2e"]]
                cv = [r["e2e"][name] for r in c_runs if name in r["e2e"]]
                bv = [v for v in bv if isinstance(v, (int, float)) and math.isfinite(v)]
                cv = [v for v in cv if isinstance(v, (int, float)) and math.isfinite(v)]
                if not bv or not cv:
                    continue
                if bound == 0.0:
                    v, delta = exact_verdict(
                        name,
                        {r["seed"]: r["e2e"][name] for r in b_runs if name in r["e2e"]},
                        {r["seed"]: r["e2e"][name] for r in c_runs if name in r["e2e"]},
                    )
                elif not ok_hosts:
                    v, delta = "incomparable", 0.0
                else:
                    v, delta = verdict(name, bv, cv, bound)
                verdicts[wl][name] = v
                bq = "/".join(_fmt(x) for x in quartiles(bv))
                cq = "/".join(_fmt(x) for x in quartiles(cv))
                print(f"  {name:26s} {bq:>34s} {cq:>34s} {delta:+8.2%}  {v}  [{unit}]", file=out)
        b_tr = [r for r in base if r["workload"] == wl and r.get("trace")]
        c_tr = [r for r in change if r["workload"] == wl and r.get("trace")]
        if b_tr and c_tr:
            print(f"  per-layer (traced runs: {len(b_tr)} base, {len(c_tr)} change; medians):", file=out)
            for name, (unit, _better) in PER_LAYER.items():
                bm = statistics.median(r["ledger"][name] for r in b_tr)
                cm = statistics.median(r["ledger"][name] for r in c_tr)
                if bm == 0 and cm == 0:
                    continue
                rel = f"{(cm - bm) / abs(bm):+.1%}" if bm else "n/a"
                print(f"    {name:40s} {_fmt(bm):>14s} -> {_fmt(cm):>14s} {rel:>8s} [{unit}]", file=out)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="+", help="base run records or directories (then --vs)")
    parser.add_argument("--vs", nargs="+", required=True, help="change run records or directories")
    args = parser.parse_args(argv)
    base, change = load_runs(args.base), load_runs(args.vs)
    if not base or not change:
        print("no run records found", file=sys.stderr)
        return 2
    verdicts = compare(base, change)
    bad = [v for wl in verdicts.values() for v in wl.values() if v in ("worse", "incomparable")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
