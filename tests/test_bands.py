"""Hat-basis band split and the spectral period search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isarpose.bands import chapeau_band_split, chapeau_smooth, dominant_wave_period


def test_smoother_reproduces_constants_and_lines():
    t = 0.5 * np.arange(80)
    assert np.allclose(chapeau_smooth(t, np.full(80, 2.7), 4.0), 2.7,
                       atol=1e-9)
    line = 0.3 * t - 5.0
    assert np.allclose(chapeau_smooth(t, line, 4.0), line, atol=1e-8)


def test_smoother_attenuates_fast_oscillation():
    t = 0.05 * np.arange(600)
    y = np.sin(2 * np.pi * t / 0.8)
    smooth = chapeau_smooth(t, y, 6.0)
    assert np.std(smooth) < 0.1 * np.std(y)


def test_band_split_is_an_exact_partition():
    t = 0.5 * np.arange(120)
    y = 0.01 * t + 0.3 * np.sin(2 * np.pi * t / 10.0) + \
        0.05 * np.sin(2 * np.pi * t / 1.3)
    split = chapeau_band_split(t, y, period=10.0)
    assert np.allclose(split.low + split.wave + split.high, y, atol=1e-9)
    assert not split.flags


def test_band_split_separates_drift_from_wave():
    t = 0.5 * np.arange(120)
    drift = 0.02 * t - 0.6
    wave = 0.3 * np.sin(2 * np.pi * t / 10.0)
    split = chapeau_band_split(t, drift + wave, period=10.0)
    core = slice(10, -10)
    assert np.sqrt(np.mean((split.low - drift)[core] ** 2)) < 0.05
    # piecewise-linear hats track a sinusoid to a few percent amplitude
    wave_rms = np.sqrt(np.mean(wave[core] ** 2))
    assert np.sqrt(np.mean((split.wave - wave)[core] ** 2)) < 0.3 * wave_rms
    assert np.corrcoef(split.wave[core], wave[core])[0, 1] > 0.95


@given(period=st.floats(min_value=3.0, max_value=18.0),
       seed=st.integers(min_value=0, max_value=50))
@settings(deadline=None, max_examples=25)
def test_band_split_partition_property(period, seed):
    rng = np.random.default_rng(seed)
    t = 0.5 * np.arange(90)
    y = rng.normal(size=90).cumsum() * 0.1
    split = chapeau_band_split(t, y, period)
    assert np.allclose(split.low + split.wave + split.high, y, atol=1e-8)


def test_short_dwell_flagged_with_empty_wave_band():
    t = 0.5 * np.arange(40)
    y = np.sin(2 * np.pi * t / 9.0)
    split = chapeau_band_split(t, y, period=9.0)
    assert split.flags
    assert np.all(split.wave == 0.0)
    assert np.allclose(split.low + split.high, y, atol=1e-9)


def test_band_split_rejects_nonpositive_period():
    t = np.arange(20.0)
    with pytest.raises(ValueError):
        chapeau_band_split(t, np.sin(t), period=0.0)


class TestDominantWavePeriod:
    def test_recovers_synthetic_line(self):
        t = 0.5 * np.arange(120)
        y = 0.01 * t + 0.2 * np.sin(2 * np.pi * t / 9.0)
        period = dominant_wave_period(t, y)
        assert period == pytest.approx(9.0, abs=0.3)

    def test_line_found_through_scattered_dropouts(self):
        # isolated invalid frames, the shape bad-fit flagging produces; the
        # search compacts the time axis over holes so the estimate biases a
        # touch low, but the line must survive
        t = 0.5 * np.arange(120)
        y = 0.2 * np.sin(2 * np.pi * t / 11.0)
        valid = np.ones(120, dtype=bool)
        valid[[17, 40, 41, 77, 102]] = False
        period = dominant_wave_period(t, y, valid=valid)
        assert period == pytest.approx(11.0, abs=0.6)

    def test_flat_series_has_no_line(self):
        t = 0.5 * np.arange(120)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dominant_wave_period(t, 0.02 * t + 1e-3 * rng.normal(size=120))

    def test_too_few_frames_rejected(self):
        t = 0.5 * np.arange(10)
        with pytest.raises(ValueError):
            dominant_wave_period(t, np.sin(t))
