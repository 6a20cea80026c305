"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_defaults(self):
        args = build_parser().parse_args(["model", "--rate", "1e-4"])
        assert args.k == 16 and args.lm == 32 and args.h == 0.2


class TestModelCommand:
    def test_single_rate(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "2e-4"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_saturated_rate(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "0.05"]) == 0
        assert "SATURATED" in capsys.readouterr().out

    def test_sweep_with_plot(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--sweep", "5", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "saturated" in out
        assert "latency (cycles)" in out  # chart axis label

    def test_uniform_when_h_zero(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0",
                     "--rate", "1e-3"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_missing_rate_and_sweep(self, capsys):
        assert main(["model", "--k", "8"]) == 2
        assert "rate" in capsys.readouterr().err

    def test_literal_entrance_flag(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "2e-4", "--literal-entrance"]) == 0


class TestSaturationCommand:
    def test_reports_bound(self, capsys):
        assert main(["saturation", "--k", "8", "--lm", "16", "--h", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "saturation rate" in out
        assert "bandwidth bound" in out


class TestSimulateCommand:
    def test_small_run(self, capsys):
        assert main([
            "simulate", "--k", "4", "--lm", "8", "--h", "0.2",
            "--rate", "2e-3", "--cycles", "5000", "--warmup", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "saturated: False" in out

    def test_ejection_flag(self, capsys):
        assert main([
            "simulate", "--k", "4", "--lm", "8", "--h", "0.2",
            "--rate", "2e-3", "--cycles", "3000", "--warmup", "300",
            "--ejection",
        ]) == 0
        assert "mean latency" in capsys.readouterr().out


class TestPanelCommands:
    def test_list_panels(self, capsys):
        assert main(["list-panels"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1_h20", "fig2_h70"):
            assert name in out

    def test_panel_model_only(self, capsys):
        assert main(["panel", "fig1_h40"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "saturated" in out

    def test_panel_plot(self, capsys):
        assert main(["panel", "fig1_h40", "--plot"]) == 0
        assert "latency (cycles)" in capsys.readouterr().out

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            main(["panel", "fig9_h99"])

    def test_panel_sweep_flags_parsed(self):
        args = build_parser().parse_args(
            ["panel", "fig1_h40", "--simulate", "--jobs", "4", "--no-cache",
             "--seed", "9", "--batch", "8"]
        )
        assert args.jobs == 4 and args.no_cache and args.seed == 9
        assert args.batch == 8

    def test_panel_batch_defaults_to_env(self):
        args = build_parser().parse_args(["panel", "fig1_h40"])
        assert args.batch is None  # engine falls back to $REPRO_SIM_BATCH

    def test_panel_batch_rejects_zero(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["panel", "fig1_h40", "--batch", "0"])

    def test_panel_jobs_model_only(self, capsys):
        # --jobs with a model-only run exercises the engine path without
        # spawning workers (there is nothing to simulate).
        assert main(["panel", "fig1_h40", "--jobs", "2", "--no-cache"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure_model_only(self, capsys):
        assert main(["figure", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("Figure 1") == 3  # one table per panel

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])


class TestWorkerCommand:
    def test_worker_defaults(self):
        args = build_parser().parse_args(["worker", "/shared/campaign"])
        assert args.command == "worker"
        assert args.campaign_dir == "/shared/campaign"
        assert args.id is None
        assert args.poll == 0.2
        assert args.heartbeat == 5.0
        assert args.lease_duration == 60.0
        assert args.once is False
        assert args.max_units is None

    def test_worker_flags_parsed(self):
        args = build_parser().parse_args(
            ["worker", "c", "--id", "w1", "--poll", "0.05",
             "--heartbeat", "0.5", "--lease-duration", "10",
             "--once", "--max-units", "3"]
        )
        assert args.id == "w1" and args.poll == 0.05
        assert args.heartbeat == 0.5 and args.lease_duration == 10.0
        assert args.once and args.max_units == 3

    def test_worker_rejects_zero_max_units(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "c", "--max-units", "0"])


class TestBadFlagValues:
    """Out-of-domain flag values are usage errors (exit 2), never a
    traceback or a silently accepted value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["panel", "fig1_h70", "--max-retries", "-1"],
            ["panel", "fig1_h70", "--point-timeout", "-5"],
            ["panel", "fig1_h70", "--point-timeout", "nan"],
            ["model", "--rate", "nan"],
            ["simulate", "--rate", "nan"],
            ["model", "--rate", "inf"],
            ["panel", "fig1_h70", "--resume"],  # resuming is a store hit
        ],
    )
    def test_rejected_as_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestBadNetworkParameters:
    """A parameter the config or model constructors reject is a usage
    error (one ``error:`` line, exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--rate", "1e-3", "--k", "1"],
            ["simulate", "--rate", "1e-3", "--vcs", "1"],
            ["simulate", "--rate", "1e-3", "--lm", "0"],
            ["simulate", "--rate", "1e-3", "--h", "1.5"],
            ["simulate", "--rate", "1e-3", "--cycles", "-5"],
            ["simulate", "--rate", "1e-3", "--warmup", "-1"],
            ["simulate", "--rate", "1e-3", "--seed", "-1"],
            ["model", "--rate", "1e-4", "--h", "1.0"],
            ["model", "--rate", "1e-4", "--k", "1"],
            ["saturation", "--k", "1"],
            ["panel", "fig1_h20", "--simulate", "--cycles", "-5"],
            ["figure", "1", "--simulate", "--cycles", "0"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestSweepBackendFlags:
    def test_backend_default_none(self):
        # None lets the engine fall back to $REPRO_BACKEND, then "local".
        args = build_parser().parse_args(["panel", "fig1_h40"])
        assert args.backend is None
        assert args.allow_failures is False

    def test_backend_and_allow_failures_parsed(self):
        args = build_parser().parse_args(
            ["figure", "1", "--backend", "file:/shared/c", "--allow-failures"]
        )
        assert args.backend == "file:/shared/c"
        assert args.allow_failures is True


class _StubEngine:
    """run_panel stand-in returning a canned result with failures."""

    def __init__(self, failures):
        from types import SimpleNamespace

        from repro.resilience import ExecutorStats

        self.stats = ExecutorStats()
        sim = SimpleNamespace(failures=list(failures), points=[])
        self._result = SimpleNamespace(simulation=sim, model=None)

    def run_panel(self, spec, **kwargs):
        return self._result


def _stub_failure():
    from types import SimpleNamespace

    return SimpleNamespace(
        index=2, rate=0.12, kind="worker-dead", attempts=5, message="boom"
    )


class TestFailureExitCodes:
    """`repro panel` exits non-zero when points exhausted their retries."""

    @pytest.fixture(autouse=True)
    def _stub_rendering(self, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "format_panel_table", lambda result: "table")

    def test_partial_sweep_exits_nonzero(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_sweep_engine", lambda args: _StubEngine([_stub_failure()])
        )
        assert main(["panel", "fig1_h40"]) == 1
        captured = capsys.readouterr()
        assert "FAILED point 2" in captured.out
        assert "--allow-failures" in captured.err

    def test_allow_failures_opts_out(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_sweep_engine", lambda args: _StubEngine([_stub_failure()])
        )
        assert main(["panel", "fig1_h40", "--allow-failures"]) == 0
        assert capsys.readouterr().err == ""

    def test_clean_sweep_exits_zero(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_sweep_engine", lambda args: _StubEngine([]))
        assert main(["panel", "fig1_h40"]) == 0
        assert capsys.readouterr().err == ""
