"""Golden regression tests: the model curves of the paper's figures.

The benchmark suite writes each regenerated panel to
``benchmarks/results/<panel>.txt``.  These tests pin the *model* column
of every Figure 1 / Figure 2 panel against those checked-in tables, so a
refactor of the solver, the equations or the sweep engine cannot
silently shift the reproduction.

Tolerance: the tables print latencies rounded to 0.1 cycles, so the
comparison allows 0.5% relative error (plus the 0.06-cycle rounding
slack) — far above solver noise (tolerance 1e-10, warm- and cold-started
solves agree to ~1e-9), far below any physically meaningful drift.
Saturated grid points must match exactly: saturation moving by even one
grid step changes where the reproduced curve ends.

The simulation column is *not* pinned — it depends on seeds and run
lengths — but its golden values remain in the tables for eyeballing.
"""

import math
import pathlib

import pytest

from repro.experiments import SweepEngine, get_panel

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

PANELS = ["fig1_h20", "fig1_h40", "fig1_h70", "fig2_h20", "fig2_h40", "fig2_h70"]

REL_TOL = 5e-3
ABS_TOL = 0.06  # table rounding: one half of 0.1 cycles, plus slack


def load_golden_model_curve(name):
    """Parse (rate, model latency | inf) rows from a results table."""
    path = RESULTS_DIR / f"{name}.txt"
    rows = []
    for line in path.read_text().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            continue
        try:
            rate = float(parts[0])
        except ValueError:
            continue  # header row
        model = math.inf if parts[1] == "saturated" else float(parts[1])
        rows.append((rate, model))
    return rows


@pytest.mark.parametrize("name", PANELS)
def test_model_curve_matches_golden(name):
    golden = load_golden_model_curve(name)
    assert len(golden) >= 6, f"golden table for {name} is malformed"

    engine = SweepEngine(use_cache=False)
    result = engine.run_panel(get_panel(name), simulate=False)
    points = result.model.points
    assert len(points) == len(golden), "grid changed: regenerate the goldens"

    for point, (g_rate, g_latency) in zip(points, golden):
        assert point.rate == pytest.approx(g_rate, rel=1e-4)
        if math.isinf(g_latency):
            assert point.saturated, (
                f"{name}: model no longer saturates at rate {g_rate}"
            )
        else:
            assert not point.saturated, (
                f"{name}: model now saturates at rate {g_rate}"
            )
            assert point.latency == pytest.approx(
                g_latency, rel=REL_TOL, abs=ABS_TOL
            ), f"{name}: latency drifted at rate {g_rate}"


def test_goldens_present():
    missing = [n for n in PANELS if not (RESULTS_DIR / f"{n}.txt").exists()]
    assert not missing, f"golden tables missing: {missing}"
