"""Arrival processes: determinism, expected rates, and the sim pump."""

import itertools

import pytest

from repro.sim import (
    FlashCrowdProcess,
    PoissonProcess,
    Simulator,
)
from repro.obs import NULL_OBS

NAN, INF = float("nan"), float("inf")


def _take(process, n):
    return list(itertools.islice(process.offsets_ms(), n))


class TestPoisson:
    def test_same_seed_same_offsets(self):
        a = _take(PoissonProcess(50.0, seed=7), 200)
        b = _take(PoissonProcess(50.0, seed=7), 200)
        assert a == b

    def test_different_seeds_differ(self):
        assert _take(PoissonProcess(50.0, seed=1), 50) != _take(
            PoissonProcess(50.0, seed=2), 50
        )

    def test_offsets_increase(self):
        offsets = _take(PoissonProcess(20.0, seed=3), 100)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_empirical_rate_near_nominal(self):
        # 2000 arrivals at 100/s should span ~20s (law of large numbers;
        # the 15% tolerance keeps the test seed-robust).
        offsets = _take(PoissonProcess(100.0, seed=11), 2000)
        observed = 2000 / (offsets[-1] / 1000.0)
        assert observed == pytest.approx(100.0, rel=0.15)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(-1.0, seed=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        """NaN passes ``rate < 0``: its offsets never yielded, and an
        infinite rate hung ``sim.run()``."""
        with pytest.raises(ValueError, match="finite"):
            PoissonProcess(rate, seed=0)


class TestFlashCrowd:
    def test_rate_profile_piecewise(self):
        f = FlashCrowdProcess(
            10.0, 100.0, at_ms=5_000, ramp_ms=2_000, hold_ms=4_000,
            decay_ms=2_000, seed=0,
        )
        assert f.rate_at(0.0) == 10.0
        assert f.rate_at(4_999.0) == 10.0
        assert f.rate_at(6_000.0) == pytest.approx(55.0)  # mid-ramp
        assert f.rate_at(8_000.0) == 100.0  # holding
        assert f.rate_at(12_000.0) == pytest.approx(55.0)  # mid-decay
        assert f.rate_at(14_000.0) == 10.0  # back to base
        assert f.peak_rate() == 100.0

    def test_flash_window_is_denser(self):
        f = FlashCrowdProcess(
            10.0, 200.0, at_ms=5_000, ramp_ms=1_000, hold_ms=5_000,
            decay_ms=1_000, seed=5,
        )
        arrivals = [t for t in itertools.takewhile(
            lambda t: t < 15_000.0, f.offsets_ms())]
        before = sum(1 for t in arrivals if t < 5_000.0)
        during = sum(1 for t in arrivals if 6_000.0 <= t < 11_000.0)
        # ~50 arrivals in the 5s base window vs ~1000 held at peak
        assert during > 5 * max(before, 1)

    @pytest.mark.parametrize(
        "base, peak", [(NAN, NAN), (10.0, NAN), (10.0, INF), (INF, INF)]
    )
    def test_non_finite_rates_rejected(self, base, peak):
        with pytest.raises(ValueError, match="finite"):
            FlashCrowdProcess(base, peak, at_ms=0.0)

    @pytest.mark.parametrize("timing", ["at_ms", "ramp_ms", "hold_ms", "decay_ms"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_timing_rejected(self, timing, value):
        """A NaN ``at_ms`` used to run silently at the base rate, with
        no flash at all."""
        timings = dict(at_ms=1_000.0, ramp_ms=500.0, hold_ms=1_000.0, decay_ms=500.0)
        timings[timing] = value
        with pytest.raises(ValueError, match="finite"):
            FlashCrowdProcess(10.0, 50.0, **timings)

    def test_deterministic(self):
        kwargs = dict(at_ms=2_000, ramp_ms=500, hold_ms=1_000,
                      decay_ms=500, seed=9)
        a = _take(FlashCrowdProcess(20.0, 80.0, **kwargs), 100)
        b = _take(FlashCrowdProcess(20.0, 80.0, **kwargs), 100)
        assert a == b


class TestDrive:
    def test_pump_fires_callback_per_arrival(self):
        sim = Simulator(obs=NULL_OBS)
        seen = []
        stream = PoissonProcess(100.0, seed=4).drive(
            sim, seen.append, duration_ms=5_000.0
        )
        sim.run()
        assert stream.exhausted
        assert stream.count == len(seen)
        assert seen == sorted(seen)
        assert all(0.0 <= t <= 5_000.0 for t in seen)
        # ~500 expected at 100/s over 5s
        assert 350 <= len(seen) <= 650

    def test_pump_respects_limit(self):
        sim = Simulator(obs=NULL_OBS)
        seen = []
        stream = PoissonProcess(100.0, seed=4).drive(
            sim, seen.append, duration_ms=60_000.0, limit=25
        )
        sim.run()
        assert stream.count == 25
        assert len(seen) == 25

    def test_pump_is_streaming(self):
        """The pump keeps at most one pending arrival armed at a time
        (open-loop load must not preload 100k events onto the heap)."""
        sim = Simulator(obs=NULL_OBS)
        PoissonProcess(1_000.0, seed=2).drive(
            sim, lambda t: None, duration_ms=10_000.0
        )
        # Right after arming: one pending arrival event, nothing more.
        assert sim.events_pending <= 2
