"""Tests for the experiment harness (repro.experiments)."""

import math

import pytest

from repro.core.results import SweepPoint, SweepResult
from repro.experiments import (
    ALL_PANELS,
    FIGURE1,
    FIGURE2,
    PanelResult,
    SweepEngine,
    format_panel_table,
    get_panel,
    shape_metrics,
    sim_jobs,
    sim_measure_cycles,
)


def model_only(name):
    """Model curve of one panel, no simulation, no cache."""
    return SweepEngine(use_cache=False).run_panel(get_panel(name), simulate=False)


class TestPanelSpecs:
    def test_six_panels(self):
        assert len(ALL_PANELS) == 6
        assert set(FIGURE1) == {"fig1_h20", "fig1_h40", "fig1_h70"}
        assert set(FIGURE2) == {"fig2_h20", "fig2_h40", "fig2_h70"}

    def test_paper_parameters(self):
        for spec in ALL_PANELS.values():
            assert spec.k == 16  # N = 256
            assert spec.num_vcs == 2
            assert spec.hotspot_fraction in (0.20, 0.40, 0.70)
        assert all(s.message_length == 32 for s in FIGURE1.values())
        assert all(s.message_length == 100 for s in FIGURE2.values())

    def test_grids_span_paper_axes(self):
        for spec in ALL_PANELS.values():
            assert min(spec.rates) > 0
            assert max(spec.rates) >= spec.paper_axis_max_rate
            assert list(spec.rates) == sorted(spec.rates)

    def test_axis_ordering_matches_paper(self):
        """The paper's axes shrink with h and with Lm."""
        assert (
            FIGURE1["fig1_h20"].paper_axis_max_rate
            > FIGURE1["fig1_h40"].paper_axis_max_rate
            > FIGURE1["fig1_h70"].paper_axis_max_rate
        )
        for h in ("h20", "h40", "h70"):
            assert (
                FIGURE1[f"fig1_{h}"].paper_axis_max_rate
                > FIGURE2[f"fig2_{h}"].paper_axis_max_rate
            )

    def test_get_panel(self):
        assert get_panel("fig1_h20").name == "fig1_h20"
        with pytest.raises(KeyError):
            get_panel("fig3_h10")

    def test_description(self):
        d = get_panel("fig2_h40").description
        assert "Figure 2" in d and "40%" in d and "Lm=100" in d


class TestModelOnlyRuns:
    @pytest.mark.parametrize("name", sorted(ALL_PANELS))
    def test_panel_curve_shape(self, name):
        """Every panel's model curve must rise monotonically and
        saturate within the grid (the paper drew each panel up to its
        saturation region)."""
        result = model_only(name)
        lats = [p.latency for p in result.model.points]
        finite = [x for x in lats if math.isfinite(x)]
        assert len(finite) >= 3, "grid too coarse at the low end"
        assert all(a < b for a, b in zip(finite, finite[1:]))
        assert result.model.saturation_rate() is not None, (
            "grid must extend past the saturation knee"
        )

    def test_table_formatting(self):
        result = model_only("fig1_h20")
        table = format_panel_table(result)
        assert "Figure 1" in table
        assert "saturated" in table
        assert table.count("\n") >= len(result.model.points)


class TestSimulatedRuns:
    def test_small_run_and_metrics(self):
        # Tiny measurement window: checks plumbing, not statistics.
        spec = get_panel("fig1_h70")
        result = SweepEngine(use_cache=False).run_panel(
            spec, measure_cycles=6_000, warmup_cycles=1_000, seed=5
        )
        assert result.simulation is not None
        assert len(result.simulation.points) >= 1
        m = shape_metrics(result)
        assert m.monotone_model
        rows = result.paired_points()
        assert len(rows) == len(result.model.points)

    def test_shape_metrics_requires_sim(self):
        result = model_only("fig1_h20")
        with pytest.raises(ValueError):
            shape_metrics(result)


class TestShapeMetricsUnit:
    def _panel(self, model_pts, sim_pts):
        spec = get_panel("fig1_h20")
        model = SweepResult(label="m", points=model_pts)
        sim = SweepResult(label="s", points=sim_pts)
        return PanelResult(spec=spec, model=model, simulation=sim)

    def test_perfect_agreement(self):
        pts = [
            SweepPoint(rate=r, latency=100 * (i + 1), saturated=False)
            for i, r in enumerate((1e-4, 2e-4, 3e-4))
        ]
        m = shape_metrics(self._panel(pts, list(pts)))
        assert m.mean_rel_error_all == pytest.approx(0.0)
        assert m.monotone_model and m.monotone_sim

    def test_relative_error_computed(self):
        model_pts = [SweepPoint(1e-4, 110.0, False), SweepPoint(2e-4, 220.0, False)]
        sim_pts = [SweepPoint(1e-4, 100.0, False), SweepPoint(2e-4, 200.0, False)]
        m = shape_metrics(self._panel(model_pts, sim_pts))
        assert m.mean_rel_error_all == pytest.approx(0.10)

    def test_saturation_ratio(self):
        model_pts = [SweepPoint(1e-4, 100.0, False), SweepPoint(2e-4, math.inf, True)]
        sim_pts = [SweepPoint(1e-4, 100.0, False), SweepPoint(2e-4, math.inf, True)]
        m = shape_metrics(self._panel(model_pts, sim_pts))
        assert m.saturation_ratio == pytest.approx(1.0)

    def test_non_monotone_detected(self):
        pts = [
            SweepPoint(1e-4, 200.0, False),
            SweepPoint(2e-4, 100.0, False),
        ]
        sim = [SweepPoint(1e-4, 100.0, False), SweepPoint(2e-4, 150.0, False)]
        m = shape_metrics(self._panel(pts, sim))
        assert not m.monotone_model and m.monotone_sim


class TestEnvControls:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CYCLES", raising=False)
        assert sim_measure_cycles(77_000) == 77_000

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CYCLES", "50000")
        assert sim_measure_cycles() == 50_000

    def test_too_small_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CYCLES", "10")
        with pytest.raises(ValueError):
            sim_measure_cycles()

    def test_non_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CYCLES", "fast")
        with pytest.raises(ValueError, match="REPRO_SIM_CYCLES.*'fast'"):
            sim_measure_cycles()

    def test_float_rejected_with_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CYCLES", "2e4")
        with pytest.raises(ValueError, match="REPRO_SIM_CYCLES"):
            sim_measure_cycles()

    def test_jobs_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert sim_jobs() == 1
        assert sim_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert sim_jobs() == 4

    def test_jobs_bad_values_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            sim_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            sim_jobs()
