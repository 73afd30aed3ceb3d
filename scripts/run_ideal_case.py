"""End-to-end run on a clean simulated dwell, with truth comparison.

Builds a 60 s dwell of a 120 m ship rocking on two wave lines (12 s aspect,
10 s tilt) over a slow steady turn, recovers the angle tracks from the
frame moments, and prints how well the recovered rates, wave period, and
length match the generating scenario.  The full artifact set (covariance,
angle, classification, length tables plus the composite image inputs)
lands in the output directory.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isarpose import RunConfig, build_angle_track, run  # noqa: E402
from isarpose.runner import scenario_from_dict  # noqa: E402

SCENARIO = {
    "duration": 60.0,
    "frame_interval": 0.5,
    "integration_time": 0.5,
    "phi0_deg": 45.0,
    "theta0_deg": 30.0,
    "steady_aspect_rate_dps": 0.3,
    "aspect_osc": {"amplitude_deg": 1.0, "period_s": 12.0},
    "tilt_osc": {"amplitude_deg": 1.0, "period_s": 10.0},
    "noise": {"sigma_r": 0.2, "sigma_f": 0.03, "sigma_a": 0.02},
    "seed": 11,
    "ship": {"loa": 120.0, "n_scatterers": 24, "seed": 3},
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out_ideal", help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed")
    ap.add_argument("--plots", action="store_true", help="emit SVG plots")
    args = ap.parse_args(argv)

    scen = dict(SCENARIO)
    if args.seed is not None:
        scen["seed"] = args.seed

    report = run(RunConfig(mode="simulate", output_dir=args.out,
                           scenario=scen, emit_plots=args.plots))

    # score the run's recovered rates sample by sample against the
    # generating truth; only the cheap track is rebuilt, not the dwell
    cfg, _, _ = scenario_from_dict(scen)
    track = build_angle_track(cfg)
    with open(f"{args.out}/angles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    est_pd = np.array([float(r["phi_dot_dps"]) for r in rows])
    est_td = np.array([float(r["theta_dot_dps"]) for r in rows])
    true_pd = np.degrees(track.samples.phi_dot)
    true_td = np.degrees(track.samples.theta_dot)
    corr_p = np.corrcoef(est_pd, true_pd)[0, 1]
    corr_t = np.corrcoef(est_td, true_td)[0, 1]
    rate_rms = float(np.std(est_pd - true_pd))

    summ = report.angle_summary
    print(f"frames analysed      {report.n_frames}")
    print(f"wave period          {summ['period_s']:.2f} s"
          f"   (generator lines: 12.0 and 10.0 s)")
    print(f"steady aspect rate   {summ['steady_rate_dps']:+.3f} deg/s"
          f"   (true {scen['steady_aspect_rate_dps']:+.3f})")
    print(f"aspect rate corr     {corr_p:+.4f}")
    print(f"tilt rate corr       {corr_t:+.4f}")
    print(f"aspect rate rms err  {rate_rms:.4f} deg/s")
    print(f"class counts         {report.class_counts}")
    if report.loa:
        err = report.loa["loa_m"] - 120.0
        print(f"length               {report.loa['loa_m']:.1f} m"
              f"   (true 120.0, err {err:+.2f} m)")
    print(f"badfit flagged       {report.badfit_count}")
    if report.flags:
        print(f"flags                {', '.join(report.flags)}")
    print(f"artifacts in         {args.out}/")

    with open(f"{args.out}/truth_comparison.json", "w") as fh:
        json.dump({"aspect_rate_corr": corr_p, "tilt_rate_corr": corr_t,
                   "aspect_rate_rms_dps": rate_rms,
                   "period_s": summ["period_s"],
                   "steady_rate_dps": summ["steady_rate_dps"],
                   "loa_m": report.loa["loa_m"] if report.loa else None},
                  fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
