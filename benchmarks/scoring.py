"""Output gate and accuracy against simulator truth, read from run outputs.

Accuracy comes only from the files a run wrote (`angles.csv`,
`badfit.csv`, `run_report.json`) and from the generating scenario's own
angle track; the estimator is never called a second time.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from isarpose.bands import chapeau_band_split
from isarpose.runner import scenario_from_dict
from isarpose.simulate import build_angle_track


def read_tree(out_dir: Path, manifest) -> dict[str, bytes] | None:
    """Every manifest file's bytes, or None when one is missing."""
    blobs = {}
    for name in manifest:
        p = out_dir / name
        if not p.is_file():
            return None
        blobs[name] = p.read_bytes()
    return blobs


def gate(tree: dict[str, bytes] | None, ref_analyze: dict[str, bytes] | None,
         ref_simulate: dict[str, bytes]) -> str | None:
    """Why an analyze output tree fails the gate, or None when it passes.

    It must hold every manifest file, match the other analyses of the same
    dwell byte for byte, and match the simulate run of that dwell on every
    CSV. Digests are not pinned: later versions may change the last bits.
    """
    if tree is None:
        return "output tree lacks a manifest file"
    if ref_analyze is not None and tree != ref_analyze:
        return "two analyses of one dwell differ"
    for name, blob in tree.items():
        if name.endswith(".csv") and ref_simulate.get(name) != blob:
            return f"{name} differs from the simulate run"
    return None


def _columns(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _wave_corr(t, truth, est, period: float) -> float:
    """Correlation of the wave bands of two rate series, as the
    wave_motion_recovery acceptance check scores them."""
    if period <= 0:
        return 0.0   # no wave solution: nothing was recovered
    wa = chapeau_band_split(t, truth, period).wave
    wb = chapeau_band_split(t, est, period).wave
    if np.std(wa) == 0 or np.std(wb) == 0:
        return 0.0
    return float(np.corrcoef(wa, wb)[0, 1])


def accuracy(out_dir: Path, workload, seed: int) -> dict:
    """Accuracy metrics of one analyze output tree, as {name: (value, unit)}."""
    report = json.loads((out_dir / "run_report.json").read_text())
    ang = _columns(out_dir / "angles.csv")
    bf = _columns(out_dir / "badfit.csv")
    cfg, ship, _ = scenario_from_dict(workload.scenario, seed)
    truth = build_angle_track(cfg)
    t = np.array([s.t for s in truth.samples])
    phi_dot = np.degrees([s.phi_dot for s in truth.samples])
    theta_dot = np.degrees([s.theta_dot for s in truth.samples])

    period = float(report["angle_summary"]["period_s"])
    period_err = min(abs(period - p) for p in workload.wave_lines_s)
    loa = report["loa"]["loa_m"] if report["loa"] else 0.0
    flagged = bf["flagged"] > 0
    window = np.zeros(len(bf["t"]), dtype=bool)
    for lo, hi in workload.confuser_windows:
        window |= (bf["t"] >= lo) & (bf["t"] < hi)
    hits = int(np.sum(flagged & window))
    return {
        "period_err_s": (period_err, "s"),
        "aspect_rate_corr": (_wave_corr(t, phi_dot, ang["phi_dot_dps"], period), "ratio"),
        "tilt_rate_corr": (_wave_corr(t, theta_dot, ang["theta_dot_dps"], period), "ratio"),
        "loa_err_m": (abs(loa - ship.loa_true), "m"),
        # 0 where the workload has no confuser window to score against
        "badfit_recall": (hits / window.sum() if window.any() else 0.0, "ratio"),
        "badfit_precision": (hits / flagged.sum() if flagged.any() else 0.0, "ratio"),
    }

