"""Accuracy of a benchmark scene against simulator truth, seed by seed.

Each seed runs one simulate-verb pipeline on a workload of
benchmarks/workloads.py (`canonical` unless --workload names another; the
seed sets the report noise draw, --noise-scale multiplies the scene's
report sigmas, --duration replaces its length in seconds and --steady-rate
its steady aspect rate in deg/s), is scored by
benchmarks/scoring.accuracy, and gains the RMS error in degrees of the
estimated aspect phi and tilt theta against the true track
(build_angle_track), and the fitted period_s, bsq, hsq and converged of its
run_report.json. One JSON object goes to standard output:
a row per seed and the median and worst value of every metric. The sweep
is deterministic, so two runs of one version print the same table. Run
from the repository root:

    python scripts/accuracy_sweep.py --seeds 11 2011
    python scripts/accuracy_sweep.py --workload long --seeds 11 1011 23
    python scripts/accuracy_sweep.py --workload long --duration 1200 --seeds 11 23
    python scripts/accuracy_sweep.py --steady-rate 1 --seeds 11 1011
"""

import argparse
import csv
import dataclasses
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from isarpose import RunConfig, run  # noqa: E402
from isarpose.runner import scenario_from_dict  # noqa: E402
from isarpose.simulate import build_angle_track  # noqa: E402
from scoring import accuracy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 1011, 2011, 3011, 23, 5, 9, 42, 7, 101, 17, 1017, 2017, 3017,
         55, 77)
# metric -> the worst end of its range
WORST = {"period_err_s": max, "aspect_rate_corr": min, "tilt_rate_corr": min,
         "loa_err_m": max, "phi_rms_deg": max, "theta_rms_deg": max}


def angle_rms_deg(out: Path, wl, seed: int) -> dict:
    """RMS error (deg) of the run's phi and theta against the true track."""
    with (out / "angles.csv").open() as f:
        rows = list(csv.DictReader(f))
    truth = build_angle_track(scenario_from_dict(wl.scenario, seed)[0]).samples
    return {f"{name}_rms_deg": float(np.sqrt(np.mean(
        (np.array([float(r[f"{name}_deg"]) for r in rows])
         - np.degrees(truth[name])) ** 2))) for name in ("phi", "theta")}


def sweep_workload(name: str, noise_scale: float = 1.0,
                   duration: float | None = None,
                   steady_rate: float | None = None):
    """WORKLOADS[name] with its report sigmas times noise_scale and, when
    given, duration as its length in seconds and steady_rate as its steady
    aspect rate in deg/s."""
    wl = WORKLOADS[name]
    for key, value in (("duration", duration),
                       ("steady_aspect_rate_dps", steady_rate)):
        if value is not None:
            wl = dataclasses.replace(wl, scenario={**wl.scenario, key: value})
    if noise_scale != 1.0:
        noise = {k: v * noise_scale for k, v in wl.scenario["noise"].items()}
        wl = dataclasses.replace(wl, scenario={**wl.scenario, "noise": noise})
    return wl


def sweep_row(wl, seed: int, workdir: Path) -> dict:
    out = workdir / f"seed{seed}"
    run(RunConfig(mode="simulate", output_dir=str(out), scenario=wl.scenario,
                  seed=seed, weighting=wl.weighting))
    row = {"seed": seed}
    row.update({k: v for k, (v, _) in accuracy(out, wl, seed).items()
                if k in WORST})
    row.update(angle_rms_deg(out, wl, seed))
    summary = json.loads((out / "run_report.json").read_text())["angle_summary"]
    row.update({k: summary[k] for k in ("period_s", "bsq", "hsq", "converged")})
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS),
                    help="scenario seeds (default: the 16-seed sweep)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="canonical")
    ap.add_argument("--noise-scale", type=float, default=1.0,
                    help="factor on the scene's report noise sigmas")
    ap.add_argument("--duration", type=float,
                    help="dwell length in seconds (default: the workload's)")
    ap.add_argument("--steady-rate", type=float, metavar="DPS",
                    help="steady aspect rate in deg/s (default: the workload's)")
    args = ap.parse_args(argv)
    wl = sweep_workload(args.workload, args.noise_scale, args.duration,
                        args.steady_rate)
    with tempfile.TemporaryDirectory() as workdir:
        rows = [sweep_row(wl, s, Path(workdir)) for s in args.seeds]
    summary = {k: {"median": statistics.median(r[k] for r in rows),
                   "worst": worst(r[k] for r in rows)}
               for k, worst in WORST.items()}
    summary["converged"] = sum(r["converged"] for r in rows)
    print(json.dumps({"workload": args.workload,
                      "noise_scale": args.noise_scale,
                      "duration_s": wl.scenario["duration"],
                      "steady_rate_dps": wl.scenario["steady_aspect_rate_dps"],
                      "rows": rows,
                      "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
