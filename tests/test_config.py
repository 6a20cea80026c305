"""SimulationConfig accepts exactly the domain both engines can run."""

import math

import pytest

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.config import FLIT_LIMIT

SMALL = dict(k=4, message_length=4, rate=2e-3, warmup_cycles=0,
             measure_cycles=600, seed=1)


class TestRejectedValues:
    def test_infinite_rate(self):
        # Every arrival gap would be 0: the arrival feed never ends.
        with pytest.raises(ValueError, match="rate"):
            SimulationConfig(k=4, rate=math.inf)

    def test_nan_rate(self):
        # Used to run and report mean_latency=nan, saturated=False.
        with pytest.raises(ValueError, match="rate"):
            SimulationConfig(k=4, rate=math.nan)

    def test_negative_seed(self):
        # Used to construct, then fail inside the workload's RNG.
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(k=4, seed=-1)

    @pytest.mark.parametrize("field", ["buffer_depth", "message_length"])
    @pytest.mark.parametrize("value", [FLIT_LIMIT, 2**31])
    def test_flit_counts_below_int32_headroom(self, field, value):
        # 2**31 used to overflow the SoA engine's int32 slot arrays
        # while the reference engine ran the same config.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{"k": 4, field: value})


class TestLargestAcceptedValues:
    def test_both_engines_agree_at_the_flit_limit(self):
        cfg = SimulationConfig(buffer_depth=FLIT_LIMIT - 1, **SMALL)
        soa = Simulation(cfg).run()
        ref = Simulation(SimulationConfig(
            buffer_depth=FLIT_LIMIT - 1, engine="reference", **SMALL
        )).run()
        assert soa.num_completed == ref.num_completed > 0
        assert soa.mean_latency == ref.mean_latency
        assert soa.cycles_run == ref.cycles_run
