"""Output checks: pinned outputs, the repo's oracles, run-to-run identity.

* Under the default seed each workload's outputs are compared with the
  outputs pinned in ``expected/<workload>.json``: simulated points and
  every ``SimulationResult`` field bit for bit, model points within the
  golden-curve tolerance (5e-3 relative / 0.06 absolute, identical
  saturation flags).
* Under every seed a sample is cross-checked against the repo's own
  oracles: the reference engine for one simulated point per workload
  and the scalar model kernel for sampled ``model-dse`` points.
* Every job of a run, traced or not, must produce identical outputs.

Each check returns a mismatch count; the run's ``mismatches`` is their
sum and must be 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import List, Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
REL_TOL = 5e-3
ABS_TOL = 0.06


def canon(value):
    """Exact, JSON-safe form of a result field (floats as hex)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def canon_sim_result(res) -> list:
    """Every ``SimulationResult`` field except the config, exactly."""
    return [canon(getattr(res, f.name)) for f in dataclasses.fields(res) if f.name != "config"]


def model_close(a: float, b: float) -> bool:
    """The golden-curve tolerance (``pytest.approx(b, rel, abs)``)."""
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)


# ---------------------------------------------------------------------------
# Output comparison
# ---------------------------------------------------------------------------
def count_exact(a, b) -> int:
    """Mismatching leaves of two nested outputs (exact comparison)."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        return sum(count_exact(a.get(k), b.get(k)) for k in keys)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return max(len(a), len(b))
        if a and not isinstance(a[0], (list, dict)):
            return int(json.dumps(a) != json.dumps(b))
        return sum(count_exact(x, y) for x, y in zip(a, b))
    return int(json.dumps(a) != json.dumps(b))


def _model_rows_mismatch(a: list, b: list) -> int:
    """Model rows ``[rate, latency, saturated]``: tolerance + same flags."""
    if len(a) != len(b):
        return max(len(a), len(b))
    bad = 0
    for (ra, la, sa), (rb, lb, sb) in zip(a, b):
        bad += not (model_close(ra, rb) and model_close(la, lb) and sa == sb)
    return bad


def _design_mismatch(a: list, b: list) -> int:
    if len(a) != len(b):
        return max(len(a), len(b))
    bad = 0
    for (sat_a, rates_a, lat_a, flag_a), (sat_b, rates_b, lat_b, flag_b) in zip(a, b):
        rows_a = list(zip(rates_a, lat_a, flag_a))
        rows_b = list(zip(rates_b, lat_b, flag_b))
        bad += (not model_close(sat_a, sat_b)) + _model_rows_mismatch(rows_a, rows_b)
    return bad


def compare_pinned(output: dict, expected: dict) -> int:
    """Simulated parts bit-exact, model parts within tolerance."""
    bad = count_exact(output.get("sim_results"), expected.get("sim_results"))
    panels_o = output.get("panels", {})
    panels_e = expected.get("panels", {})
    for name in set(panels_o) | set(panels_e):
        po, pe = panels_o.get(name), panels_e.get(name)
        if po is None or pe is None:
            bad += 1
            continue
        bad += count_exact(po.get("sim"), pe.get("sim"))
        bad += count_exact(po.get("failures"), pe.get("failures"))
        bad += _model_rows_mismatch(po.get("model", []), pe.get("model", []))
    if "design" in output or "design" in expected:
        bad += _design_mismatch(output.get("design", []), expected.get("design", []))
    return bad


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> Optional[dict]:
    path = expected_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def reference_engine_mismatch(result) -> int:
    """Re-run one captured SoA point on the reference engine; exact compare."""
    from repro.simulator.sim import Simulation

    ref = Simulation(dataclasses.replace(result.config, engine="reference")).run()
    return int(canon_sim_result(ref) != canon_sim_result(result))


def reference_point_mismatch(cfg, sim_row: list) -> int:
    """Reference-engine run of ``cfg`` against a campaign's point row."""
    from repro.simulator.sim import Simulation

    ref = Simulation(dataclasses.replace(cfg, engine="reference")).run()
    latency = math.inf if ref.saturated else ref.mean_latency
    return int([cfg.rate.hex(), float(latency).hex(), bool(ref.saturated)] != sim_row)


def scalar_kernel_mismatch(point: dict, row: list) -> int:
    """The scalar model kernel over the same rates as a ``model-dse`` row."""
    from repro.core.model import HotSpotLatencyModel

    _sat, rates, latencies, flags = row
    model = HotSpotLatencyModel(
        point["k"],
        point["message_length"],
        point["hotspot_fraction"],
        point["num_vcs"],
        blocking_service=point["blocking_service"],
        kernel="scalar",
    )
    sweep = model.sweep(rates)
    got = [[p.rate, p.latency, bool(p.saturated)] for p in sweep.points]
    want = [list(t) for t in zip(rates, latencies, flags)]
    return _model_rows_mismatch(got, want)


def sample_design_points(design: List[dict], count: int = 2, max_k: int = 8) -> List[int]:
    """Indices of the first ``count`` small-radix design points (cheap oracle)."""
    picked = [i for i, p in enumerate(design) if p["k"] <= max_k][:count]
    return picked or [0]


def model_sim_rel_err(panels: dict) -> Optional[float]:
    """Mean |model - sim| / sim over paired finite points."""
    errs = []
    for panel in panels.values():
        for _rate, model, sim in panel.get("pairs", []):
            if all(math.isfinite(x) for x in (model, sim)) and sim > 0:
                errs.append(abs(model - sim) / sim)
    return sum(errs) / len(errs) if errs else None
