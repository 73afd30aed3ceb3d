"""Self-validation: acceleration cross-check, fit-quality score, focus."""

import numpy as np
import pytest

from isarpose.angles import ModelCovariances
from isarpose.moments import MOMENT_DTYPE
from isarpose.validate import (CONSISTENCY_DTYPE, badfit, consistency_synth,
                               crosscheck_focus)


def _mom(n, d_intrinsic=0.0, crf=0.3, valid=True, **cols):
    """Writable moments table of n frames 0.5 s apart; cols are columns."""
    mom = np.zeros(n, MOMENT_DTYPE).view(np.recarray)
    mom.t = 0.5 * np.arange(n)
    mom.n_targets = 10
    mom.valid = valid
    mom.d_intrinsic = d_intrinsic
    mom.crf = crf
    for name, col in cols.items():
        mom[name] = col
    return mom


def _rec(n, ra_meas=0.0, fa_meas=0.0, ra_synth=0.0, fa_synth=0.0,
         valid=True):
    """Writable consistency table of n frames."""
    rec = np.zeros(n, CONSISTENCY_DTYPE).view(np.recarray)
    rec.valid = valid
    rec.cov_ra_meas = ra_meas
    rec.cov_fa_meas = fa_meas
    rec.cov_ra_synth = ra_synth
    rec.cov_fa_synth = fa_synth
    return rec


def _baseline(n=40, seed=0, scale=1.0):
    """Quiet series with small deterministic scatter in every channel."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 0.01, size=(3, n)) * scale
    return (_mom(n, d_intrinsic=eps[0]), _rec(n, ra_meas=eps[1], fa_meas=eps[2]),
            np.zeros(n))


class TestConsistencySynth:
    def test_synthesis_tracks_measured_accel_covariances(self, ideal_moments):
        records = consistency_synth(ideal_moments)
        assert records.dtype == CONSISTENCY_DTYPE
        assert len(records) == len(ideal_moments)
        assert np.array_equal(records.valid, ideal_moments.valid)
        meas, synth = records.cov_ra_meas, records.cov_ra_synth
        core = slice(2, -2)
        dyn = meas[core].max() - meas[core].min()
        rms = np.sqrt(np.mean((meas - synth)[core] ** 2))
        assert rms < 0.05 * dyn

    def test_measured_side_copies_moments(self, ideal_moments):
        records = consistency_synth(ideal_moments)
        v = ideal_moments.valid
        assert np.array_equal(records.cov_ra_meas[v], ideal_moments.cov_ra[v])
        assert np.array_equal(records.cov_fa_meas[v], ideal_moments.cov_fa[v])

    def test_gaps_read_invalid_and_neighbours_use_true_timestamps(self):
        # quadratic covariance series: the gap-aware centered difference is
        # exact on them, so every synthesized value has a closed form
        n, gaps = 30, [7, 8, 20]
        t = 0.5 * np.arange(n)
        rf, ff = 0.01 * t ** 2 - 0.1 * t, 0.5 + 0.002 * t ** 2
        rf_dot, ff_dot = 0.02 * t - 0.1, 0.004 * t
        mom = _mom(n, cov_rf=rf, cov_ff=ff, cov_ra=np.sin(t), cov_fa=np.cos(t))
        for k in gaps:
            # what moments_series holds for an under-populated frame
            mom[k] = (t[k], 2, False) + (0.0,) * 11
        records = consistency_synth(mom)
        assert not records.valid[gaps].any()
        for name in CONSISTENCY_DTYPE.names[1:]:
            assert np.all(records[name][gaps] == 0.0)
        inner = np.setdiff1d(np.arange(1, n - 1), gaps)
        assert records.valid[inner].all()
        assert np.allclose(records.cov_ra_synth[inner],
                           (rf_dot - ff + 2.0 * rf ** 2)[inner], rtol=1e-12)
        assert np.allclose(records.cov_fa_synth[inner],
                           (0.5 * ff_dot + ff * rf)[inner], rtol=1e-12)
        assert np.array_equal(records.cov_ra_meas[inner], np.sin(t)[inner])


class TestBadFit:
    def test_single_spike_flagged(self):
        mom, rec, d_out = _baseline()
        rec.cov_ra_meas[7] = 0.5
        bf = badfit(mom, rec, d_out)
        assert bool(bf.flagged[7])
        assert bf.flagged.sum() == 1
        assert bf.score[7] > bf.threshold

    def test_spread_channel_alone_can_flag(self):
        mom, rec, d_out = _baseline()
        mom.d_intrinsic[12] = 0.8
        bf = badfit(mom, rec, d_out)
        assert bool(bf.flagged[12])

    def test_flags_invariant_under_global_rescale(self):
        mom_a, rec_a, d_a = _baseline(seed=3)
        rec_a.cov_ra_meas[7], rec_a.cov_fa_meas[7] = 0.5, -0.2
        mom_b, rec_b, d_b = _baseline(seed=3, scale=1e3)
        rec_b.cov_ra_meas[7], rec_b.cov_fa_meas[7] = 500.0, -200.0
        flags_a = badfit(mom_a, rec_a, d_a).flagged
        flags_b = badfit(mom_b, rec_b, d_b * 1e3).flagged
        assert np.array_equal(flags_a, flags_b)

    def test_quiet_series_unflagged(self):
        mom, rec, d_out = _baseline(seed=5)
        bf = badfit(mom, rec, d_out)
        assert not bf.flagged.any()
        assert np.all(np.isfinite(bf.score) & (bf.score >= 0.0))

    def test_invalid_frames_always_flagged(self):
        mom, rec, d_out = _baseline()
        mom.valid[3] = False
        bf = badfit(mom, rec, d_out)
        assert bool(bf.flagged[3])
        assert np.isinf(bf.score[3])
        assert np.isfinite(np.delete(bf.score, 3)).all()

    def test_no_valid_frames_flags_everything(self):
        _, rec, d_out = _baseline(n=6)
        bf = badfit(_mom(6, valid=False), rec, d_out)
        assert bf.flagged.all()

    def test_series_length_mismatch_rejected(self):
        mom, rec, d_out = _baseline()
        with pytest.raises(ValueError):
            badfit(mom, rec[:-1], d_out)

    def test_threshold_is_respected(self):
        mom, rec, d_out = _baseline()
        rec.cov_ra_meas[7] = 0.5
        bf = badfit(mom, rec, d_out, threshold=1e9)
        assert not bf.flagged.any()


class TestCrosscheckFocus:
    def _hand_focus(self, rf, ff, ra, fa):
        d_eff = np.maximum(ff - rf ** 2, 0.02 * ff)
        return ((ra * ff - fa * rf) / d_eff, (fa - ra * rf) / d_eff)

    def test_matching_sides_give_zero_rms(self):
        rng = np.random.default_rng(2)
        n = 30
        rf = rng.normal(0.0, 0.05, n)
        ff = 0.01 + rng.uniform(0.2, 0.6, n) ** 2
        ra = rng.normal(0.0, 0.02, n)
        fa = rng.normal(0.0, 0.02, n)
        a_r, a_f = self._hand_focus(rf, ff, ra, fa)
        mom = _mom(n, crf=rf / np.sqrt(ff), cov_rf=rf, cov_ff=ff, cov_ra=ra,
                   cov_fa=fa, a_r=a_r, a_f=a_f)
        chk = crosscheck_focus(mom, ModelCovariances(rf, ff, ra, fa,
                                                     ff - rf ** 2))
        assert chk.rms_r == pytest.approx(0.0, abs=1e-9)
        assert chk.rms_f == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(chk.a_r_data[chk.conditioned],
                           chk.a_r_out[chk.conditioned], atol=1e-9)

    def test_collinear_frames_excluded_from_summary(self):
        n = 10
        rf = np.full(n, 0.1)
        ff = np.full(n, 0.09)
        mom = _mom(n, crf=0.3, cov_rf=0.1, cov_ff=0.09)
        mom.crf[4] = 0.999
        chk = crosscheck_focus(mom, ModelCovariances(
            rf, ff, np.zeros(n), np.zeros(n), ff - rf ** 2))
        assert not chk.conditioned[4]
        assert chk.conditioned.sum() == n - 1
