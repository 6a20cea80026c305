"""Self-tests of the benchmark harness: percentiles, fingerprints, seeds."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import pytest  # noqa: E402

from perfbench import compare, metrics, workloads  # noqa: E402
from perfbench.run import result_line  # noqa: E402


# -- percentiles -------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_reported_percentile_has_ten_samples_beyond(n, expected):
    assert metrics.supported_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 9) >= 10


def test_percentile_interpolates_like_numpy():
    import numpy as np

    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    for p in (0, 10, 50, 90, 100):
        assert metrics.percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)))


def test_spread_is_quartile_distance_over_median():
    import statistics

    xs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert metrics.spread(xs) == pytest.approx((q3 - q1) / med)


# -- fingerprints ------------------------------------------------------------
def _run(value: float, seed: int, **fp) -> dict:
    fingerprint = {
        "cpu_model": "cpu", "nproc": 2, "python": "3.11", "numpy": "2.0",
        "cc": "cc 12", "kernel": "c", "git_rev": None, "loadavg": [0.1, 0.1, 0.1],
    }
    fingerprint.update(fp)
    return {
        "workload": "fig1-solo", "seed": seed, "trace": 0,
        "comparable": fingerprint["kernel"] == "c", "fingerprint": fingerprint,
        "e2e": {"wall_s": value, "mismatches": 0},
    }


def test_fingerprint_mismatch_is_incomparable(capsys):
    base = [_run(1.0 + 0.001 * i, i) for i in range(5)]
    other_host = [_run(1.0 + 0.001 * i, i, cpu_model="other cpu") for i in range(5)]
    assert compare.compare(base, other_host)["fig1-solo"]["wall_s"] == "incomparable"
    numpy_kernel = [_run(1.0 + 0.001 * i, i, kernel="numpy") for i in range(5)]
    assert compare.compare(base, numpy_kernel)["fig1-solo"]["wall_s"] == "incomparable"
    same_host = [_run(1.0 + 0.001 * i, i, git_rev="abc", loadavg=[3, 3, 3]) for i in range(5)]
    assert compare.compare(base, same_host)["fig1-solo"]["wall_s"] == "no worse"
    capsys.readouterr()


def test_verdicts_follow_the_bound(capsys):
    base = [_run(1.0 + 0.001 * i, i) for i in range(10)]
    worse = [_run(1.3 + 0.001 * i, i) for i in range(10)]
    better = [_run(0.7 + 0.001 * i, i) for i in range(10)]
    noisy = [_run(1.0 + 0.1 * i, i) for i in range(10)]
    assert compare.compare(base, worse)["fig1-solo"]["wall_s"] == "worse"
    assert compare.compare(base, better)["fig1-solo"]["wall_s"] == "improved"
    assert compare.compare(base, noisy)["fig1-solo"]["wall_s"] == "unresolved"
    capsys.readouterr()


# -- seeds -------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["fig1-solo", "fig2-batch8", "model-dse"])
def test_seed_changes_inputs_deterministically(tmp_path, workload):
    a = workloads.build_inputs(workload, 1, tmp_path).describe()
    again = workloads.build_inputs(workload, 1, tmp_path).describe()
    b = workloads.build_inputs(workload, 2, tmp_path).describe()
    assert a == again
    assert a != b


def test_campaign_seed_changes_configs_deterministically():
    panels = workloads.campaign_panels()
    a = workloads.campaign_configs(panels, workloads.derived_seed(1, "campaign-fq2"))
    again = workloads.campaign_configs(panels, workloads.derived_seed(1, "campaign-fq2"))
    b = workloads.campaign_configs(panels, workloads.derived_seed(2, "campaign-fq2"))
    assert a == again
    assert a != b
    assert [c.rate for c in a.values()] == [c.rate for c in b.values()]


def test_design_strata_are_seed_independent():
    a = workloads.lhs_design(1)
    b = workloads.lhs_design(2)
    for key in ("k", "num_vcs", "blocking_service"):
        assert sorted(p[key] for p in a) == sorted(p[key] for p in b)


# -- contract ----------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == metrics.gated()
    for name, m in e2e.items():
        unit, better, bound, _wls, _gated = metrics.E2E[name]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == metrics.PER_LAYER


def test_result_line_has_exactly_the_contract_keys():
    record = {
        "trace": 0, "mismatches": 0, "attempted": 3, "failed": 0,
        "e2e": {name: 1.5 for name in metrics.gated()},
    }
    line = json.loads(result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.gated())
    record["trace"] = 1
    record["ledger"] = {name: 0.0 for name in metrics.PER_LAYER}
    line = json.loads(result_line(record))
    assert set(line["metrics"]) == set(metrics.PER_LAYER)


# -- output checks -----------------------------------------------------------
def test_pinned_check_catches_changed_outputs():
    import copy

    from perfbench import checks

    for workload in ("fig1-solo", "model-dse"):
        expected = checks.load_expected(workload)
        assert expected is not None, f"no pinned outputs for {workload}"
        assert checks.compare_pinned(copy.deepcopy(expected), expected) == 0
    fig = checks.load_expected("fig1-solo")
    changed = copy.deepcopy(fig)
    row = changed["sim_results"][0]
    row[0] = (float.fromhex(row[0]) + 1e-9).hex()  # the last bits of one field
    assert checks.compare_pinned(changed, fig) == 1
    panel = next(iter(fig["panels"]))
    close, far = copy.deepcopy(fig), copy.deepcopy(fig)
    close["panels"][panel]["model"][0][1] *= 1.001  # inside 5e-3 relative
    far["panels"][panel]["model"][0][1] *= 1.02
    assert checks.compare_pinned(close, fig) == 0
    assert checks.compare_pinned(far, fig) == 1
