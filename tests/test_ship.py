"""Container invariants and the drydock moment helper."""

import math

import numpy as np
import pytest

from isarpose.ship import (REPORT_DTYPE, AngleSample, AngleTrack, Dwell,
                           Frame, Scatterer, ShipModel, report_array,
                           ship_moments)


def test_scatterer_rejects_nonfinite_coordinates():
    with pytest.raises(ValueError):
        Scatterer(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Scatterer(0.0, float("inf"), 0.0)


def test_scatterer_rejects_nonpositive_rcs():
    with pytest.raises(ValueError):
        Scatterer(0.0, 0.0, 0.0, rcs=0.0)
    with pytest.raises(ValueError):
        Scatterer(0.0, 0.0, 0.0, rcs=-1.0)


def test_ship_model_guards_declared_length():
    sc = (Scatterer(-60.0, 0.0, 0.0), Scatterer(60.0, 0.0, 0.0))
    ShipModel(sc, loa_true=120.0)
    with pytest.raises(ValueError):
        ShipModel(sc, loa_true=100.0)


def test_angle_sample_rejects_tangent_singularity():
    with pytest.raises(ValueError):
        AngleSample(t=0.0, phi=math.pi / 2, theta=0.0)
    with pytest.raises(ValueError):
        AngleSample(t=0.0, phi=0.0, theta=-math.pi / 2)
    AngleSample(t=0.0, phi=1.5, theta=-1.5)


def test_angle_track_requires_uniform_increasing_times():
    good = tuple(AngleSample(t=0.5 * k, phi=0.1, theta=0.1) for k in range(4))
    AngleTrack(good, dt=0.5)
    bad = good[:2] + (AngleSample(t=1.7, phi=0.1, theta=0.1),)
    with pytest.raises(ValueError):
        AngleTrack(bad, dt=0.5)
    assert AngleTrack(good, dt=0.5).times == (0.0, 0.5, 1.0, 1.5)


def test_dwell_requires_uniform_frame_times():
    def frame(k, t):
        rep = report_array(t, [20.0], 0.0, 0.0, 0.0)
        return Frame(index=k, t=t, integration_time=0.5, reports=rep)

    frames = (frame(0, 0.25), frame(1, 0.75), frame(2, 1.25))
    Dwell(frames, phi0=0.5, theta0=0.3, range_resolution=0.5,
          frame_interval=0.5)
    with pytest.raises(ValueError):
        Dwell((frame(0, 0.25), frame(1, 0.8)), phi0=0.5, theta0=0.3,
              range_resolution=0.5, frame_interval=0.5)


def test_report_array_broadcasts_columns():
    reps = report_array(0.25, 20.0, [1.0, 2.0], [0.5, -0.5], 0.0)
    assert reps.dtype == REPORT_DTYPE
    assert reps.r.tolist() == [1.0, 2.0]
    assert reps.snr.tolist() == [20.0, 20.0]
    assert reps.truth_id.tolist() == [-1, -1]


@pytest.mark.parametrize("field", ["t", "snr", "r", "f", "a"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_frame_rejects_nonfinite_column(field, value):
    reps = report_array(0.25, 20.0, [1.0, 2.0, 3.0], 0.0, 0.0)
    reps[field][1] = value
    with pytest.raises(ValueError, match="frame 4: report fields must be finite"):
        Frame(index=4, t=0.25, integration_time=0.5, reports=reps)


def test_frame_holds_a_read_only_record_array():
    with pytest.raises(ValueError, match="REPORT_DTYPE"):
        Frame(index=0, t=0.25, integration_time=0.5,
              reports=np.zeros((3, 5)))
    fr = Frame(index=0, t=0.25, integration_time=0.5,
               reports=report_array(0.25, 20.0, [1.0, 2.0], 0.0, 0.0))
    with pytest.raises(ValueError):
        fr.reports.r[0] = 5.0


def test_ship_moments_match_hand_computation():
    sc = (Scatterer(10.0, 2.0, 1.0, rcs=3.0),
          Scatterer(-6.0, -1.0, 4.0, rcs=0.5),
          Scatterer(2.0, 5.0, 0.0, rcs=1.0))
    x = np.array([10.0, -6.0, 2.0])
    y = np.array([2.0, -1.0, 5.0])
    z = np.array([1.0, 4.0, 0.0])
    x2 = np.var(x)
    x2_got, bsq, hsq = ship_moments(ShipModel(sc))
    assert x2_got == pytest.approx(x2, rel=1e-12)
    assert bsq == pytest.approx(np.var(y) / x2, rel=1e-12)
    assert hsq == pytest.approx(np.var(z) / x2, rel=1e-12)


def test_ship_moments_translation_invariant():
    base = [Scatterer(-30.0, 4.0, 2.0), Scatterer(30.0, -4.0, 8.0),
            Scatterer(5.0, 1.0, 0.0)]
    moved = [Scatterer(s.x0 + 500.0, s.y0 - 40.0, s.z0 + 7.0) for s in base]
    assert ship_moments(ShipModel(tuple(base))) == pytest.approx(
        ship_moments(ShipModel(tuple(moved))), rel=1e-9)


def test_ship_moments_reject_degenerate_sets():
    with pytest.raises(ValueError):
        ship_moments(ShipModel(()))
    # all scatterers at one alongship station: no length axis to normalize by
    sc = tuple(Scatterer(0.0, float(k), 0.0) for k in range(3))
    with pytest.raises(ValueError):
        ship_moments(ShipModel(sc))
