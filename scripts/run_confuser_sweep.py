# Sweep the bad-fit flagging threshold against a dwell polluted by a
# crossing point target and a narrowband interference burst, and tabulate
# what the gate catches, how the frame classes shift, and what the length
# estimate does as the gate loosens.  A very large threshold disables
# flagging entirely.

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isarpose import RunConfig, run  # noqa: E402

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
    "seed": 23,
    "ship": {"loa": 120.0, "n_scatterers": 24, "seed": 3},
    "degradations": [
        {"kind": "bogey", "t_start": 18.0, "t_stop": 27.0,
         "rate": 20.0, "doppler_offset": 2.5},
        {"kind": "narrowband_interference", "t_start": 40.0,
         "t_stop": 46.0, "density": 8},
    ],
}

THRESHOLDS = (1.5, 3.0, 6.0, 1e9)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out_confusers",
                    help="base output directory, one subdir per threshold")
    args = ap.parse_args(argv)

    print(f"{'threshold':>10} {'flagged':>8} {'loa_m':>8} {'err_m':>7}"
          f"  classes")
    for thr in THRESHOLDS:
        tag = "off" if thr >= 1e8 else f"{thr:g}"
        rep = run(RunConfig(mode="simulate",
                            output_dir=f"{args.out}/thr_{tag}",
                            scenario=SCENARIO, badfit_threshold=thr))
        loa = rep.loa["loa_m"] if rep.loa else float("nan")
        cls = " ".join(f"{k}:{v}" for k, v in sorted(rep.class_counts.items()))
        print(f"{tag:>10} {rep.badfit_count:>8} {loa:>8.1f}"
              f" {loa - 120.0:>+7.2f}  {cls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
