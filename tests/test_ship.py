"""Container invariants and the drydock moment helper."""

import dataclasses
import math

import numpy as np
import pytest

from isarpose.ship import (ANGLE_DTYPE, REPORT_DTYPE, AngleTrack, Dwell,
                           Frame, ShipModel, angle_array, report_array,
                           ship_moments)


def _ship(points, rcs=None, loa_true=None):
    xyz = np.array(points, dtype=float)
    return ShipModel(xyz, np.ones(len(xyz)) if rcs is None else rcs, loa_true)


def test_scatterer_rejects_nonfinite_coordinates():
    with pytest.raises(ValueError, match="coordinates must be finite"):
        _ship([(0.0, 0.0, 0.0), (float("nan"), 0.0, 0.0)])
    with pytest.raises(ValueError, match="coordinates must be finite"):
        _ship([(0.0, float("inf"), 0.0)])


def test_scatterer_rejects_nonpositive_rcs():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rcs must be positive and finite"):
            _ship([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], rcs=[1.0, bad])


def test_ship_model_guards_declared_length():
    pts = [(-60.0, 0.0, 0.0), (60.0, 0.0, 0.0)]
    _ship(pts, loa_true=120.0)
    with pytest.raises(ValueError, match="beyond loa_true"):
        _ship(pts, loa_true=100.0)


@pytest.mark.parametrize("rcs", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0])
def test_ship_model_needs_one_rcs_per_point(rcs):
    with pytest.raises(ValueError, match="one value per scatterer"):
        _ship([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], rcs=rcs)


@pytest.mark.parametrize("xyz", [np.zeros(3), np.zeros((2, 2)),
                                 np.zeros((2, 4)), np.zeros((1, 2, 3))])
def test_ship_model_needs_n_by_3_coordinates(xyz):
    with pytest.raises(ValueError, match=r"\(n, 3\) array"):
        ShipModel(xyz, np.ones(len(xyz)))


def test_ship_model_holds_read_only_arrays():
    xyz = np.array([(-1.0, 2.0, 3.0), (4.0, -5.0, 6.0)])
    rcs = np.array([0.5, 2.0])
    ship = ShipModel(xyz, rcs, loa_true=10.0)
    for arr in (ship.xyz, ship.rcs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert ship.xyz.dtype == ship.rcs.dtype == np.float64
    assert ship.xyz.tolist() == xyz.tolist()
    assert ship.rcs.tolist() == rcs.tolist()
    # the caller's arrays stay writable and unshared
    xyz[0, 0] = 7.0
    assert ship.xyz[0, 0] == -1.0


def test_angle_array_broadcasts_columns():
    ang = angle_array([0.25, 0.75], 0.1, [0.2, 0.3], phi_dot=0.01)
    assert ang.dtype == ANGLE_DTYPE
    assert ang.t.tolist() == [0.25, 0.75]
    assert ang.phi.tolist() == [0.1, 0.1]
    assert ang.theta.tolist() == [0.2, 0.3]
    assert ang.phi_dot.tolist() == [0.01, 0.01]
    # rates and accelerations default to zero
    for name in ("theta_dot", "phi_ddot", "theta_ddot"):
        assert ang[name].tolist() == [0.0, 0.0]


def test_angle_sample_rejects_tangent_singularity():
    with pytest.raises(ValueError, match="pi/2"):
        AngleTrack(angle_array([0.0], math.pi / 2, 0.0))
    with pytest.raises(ValueError, match="pi/2"):
        AngleTrack(angle_array([0.0], 0.0, -math.pi / 2))
    AngleTrack(angle_array([0.0], 1.5, -1.5))


@pytest.mark.parametrize("field", ANGLE_DTYPE.names)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_angle_track_rejects_nonfinite_field(field, value):
    ang = angle_array(0.5 * np.arange(4), 0.1, 0.1)
    ang[field][2] = value
    with pytest.raises(ValueError, match="finite"):
        AngleTrack(ang)


def test_angle_track_requires_uniform_increasing_times():
    AngleTrack(angle_array(0.5 * np.arange(4), 0.1, 0.1))
    for times in ([0.0, 0.5, 1.7], [0.0, 0.5, 0.5], [1.0, 0.5, 0.0]):
        with pytest.raises(ValueError, match="increase"):
            AngleTrack(angle_array(times, 0.1, 0.1))


def test_angle_track_accepts_the_spacing_dwell_accepts():
    # the step check passes jitter far past the rounding of a frame grid:
    # one time shifted by 0.9 ns gives steps 1.8 ns apart
    times = [0.25, 0.75 + 0.9e-9, 1.25, 1.75]
    AngleTrack(angle_array(times, 0.1, 0.1))


def test_angle_track_holds_a_read_only_record_array():
    with pytest.raises(ValueError, match="ANGLE_DTYPE"):
        AngleTrack(np.zeros((3, 7)))
    with pytest.raises(ValueError, match="ANGLE_DTYPE"):
        AngleTrack(angle_array(np.zeros((2, 2)), 0.1, 0.1))
    track = AngleTrack(angle_array(0.5 * np.arange(3), 0.1, 0.2,
                                   theta_dot=[0.0, 0.01, 0.02]))
    with pytest.raises(ValueError):
        track.samples.phi[0] = 0.3
    # one state is one record, read by field name
    assert track.samples[1].t == 0.5
    assert track.samples[2].theta_dot == 0.02


def _one_report_frames(n):
    return tuple(Frame(report_array((k + 0.5) * 0.5, [20.0], 0.0, 0.0, 0.0))
                 for k in range(n))


def test_dwell_reports_may_reach_their_slot_edges():
    # the reader's test is strict, so a report on a slot edge is in its frame
    frames = (Frame(report_array([0.0, 0.5], 20.0, 0.0, 0.0, 0.0, [-1, 0])),)
    Dwell(frames, phi0=-1.5, theta0=1.5, range_resolution=0.5,
          frame_interval=0.5, integration_time=0.5)


def test_dwell_holds_the_frame_grid_once():
    dwell = Dwell(_one_report_frames(3), phi0=0.5, theta0=0.3,
                  range_resolution=0.5, frame_interval=0.5,
                  integration_time=2.0)
    assert dwell.t.tolist() == [0.25, 0.75, 1.25]
    assert dwell.integration_time == 2.0
    assert [f.name for f in dataclasses.fields(Frame)] == ["reports"]


@pytest.mark.parametrize("change, match", [
    ({"frames": ()}, "at least one frame"),
    ({"integration_time": 0.0}, "must be positive and finite"),
    ({"integration_time": -0.5}, "must be positive and finite"),
    ({"integration_time": float("nan")}, "must be positive and finite"),
    ({"integration_time": float("inf")}, "must be positive and finite"),
    ({"frame_interval": 0.0}, "must be positive and finite"),
    ({"frame_interval": float("inf")}, "must be positive and finite"),
    # each saved a header load_dwell rejects
    ({"range_resolution": 0.0}, "must be positive and finite"),
    ({"range_resolution": float("nan")}, "must be positive and finite"),
    ({"range_resolution": -0.5}, "must be positive and finite"),
    # the reader's mean-angle rule
    ({"phi0": float("nan")}, "mean angles"),
    ({"theta0": float("inf")}, "mean angles"),
    ({"phi0": -float("inf")}, "mean angles"),
    ({"theta0": math.radians(-95.0)}, "mean angles"),
    ({"phi0": math.pi / 2}, "mean angles"),
    # a report past its frame's slot loaded as `time inconsistent with frame`
    ({"frames": (Frame(report_array([0.25], 20.0, 0.0, 0.0, 0.0)),
                 Frame(report_array([0.75, 1.0 + 1e-9], 20.0, 0.0, 0.0, 0.0)))},
     "frame 1: report time outside its slot"),
    ({"frames": (Frame(report_array([-1e-9], 20.0, 0.0, 0.0, 0.0)),)},
     "frame 0: report time outside its slot"),
    # a truth_id below -1 was written blank and loaded back as -1
    ({"frames": (Frame(report_array([0.25], 20.0, 0.0, 0.0, 0.0, -2)),)},
     "frame 0: truth_id below -1"),
])
def test_dwell_rejects_what_a_dwell_file_cannot_hold(change, match):
    kw = dict(frames=_one_report_frames(2), phi0=0.5, theta0=0.3,
              range_resolution=0.5, frame_interval=0.5, integration_time=0.5)
    with pytest.raises(ValueError, match=match):
        Dwell(**{**kw, **change})


@pytest.mark.parametrize("sigmas", [(0.2, 0.03), (0.2, -0.03, 0.02),
                                    (0.2, float("nan"), 0.02)])
def test_dwell_rejects_bad_report_sigmas(sigmas):
    frames = _one_report_frames(1)
    dwell = Dwell(frames, phi0=0.5, theta0=0.3, range_resolution=0.5,
                  frame_interval=0.5, integration_time=0.5,
                  report_sigmas=[0.2, 0, 0.02])
    assert dwell.report_sigmas == (0.2, 0.0, 0.02)
    with pytest.raises(ValueError, match="report sigmas"):
        Dwell(frames, phi0=0.5, theta0=0.3, range_resolution=0.5,
              frame_interval=0.5, integration_time=0.5,
              report_sigmas=sigmas)


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
    with pytest.raises(ValueError, match="^report fields must be finite"):
        Frame(reps)


def test_frame_holds_a_read_only_record_array():
    with pytest.raises(ValueError, match="REPORT_DTYPE"):
        Frame(np.zeros((3, 5)))
    fr = Frame(report_array(0.25, 20.0, [1.0, 2.0], 0.0, 0.0))
    with pytest.raises(ValueError):
        fr.reports.r[0] = 5.0


def test_ship_moments_match_hand_computation():
    # centroid (2, 2, 5/3); mean squared offsets 128/3, 6 and 26/9 m^2. The
    # moments are of the geometry alone: rcs does not weight them
    xyz = [(10.0, 2.0, 1.0), (-6.0, -1.0, 4.0), (2.0, 5.0, 0.0)]
    x2, bsq, hsq = ship_moments(ShipModel(xyz, [3.0, 0.5, 1.0]))
    assert x2 == pytest.approx(128 / 3, rel=1e-12)
    assert bsq == pytest.approx(6 / (128 / 3), rel=1e-12)
    assert hsq == pytest.approx((26 / 9) / (128 / 3), rel=1e-12)


def test_ship_moments_translation_invariant():
    base = np.array([(-30.0, 4.0, 2.0), (30.0, -4.0, 8.0), (5.0, 1.0, 0.0)])
    moved = base + (500.0, -40.0, 7.0)
    assert ship_moments(_ship(base)) == pytest.approx(
        ship_moments(_ship(moved)), rel=1e-9)


def test_ship_moments_reject_degenerate_sets():
    with pytest.raises(ValueError, match="no scatterers"):
        ship_moments(_ship(np.zeros((0, 3))))
    # all scatterers at one alongship station: no length axis to normalize by
    with pytest.raises(ValueError, match="zero alongship variance"):
        ship_moments(_ship([(0.0, float(k), 0.0) for k in range(3)]))
