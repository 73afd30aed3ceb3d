"""Accuracy of the canonical benchmark scene against simulator truth, seed by seed.

Each seed runs one simulate-verb pipeline on the `canonical` workload of
benchmarks/workloads.py (that seed sets the report noise draw), is scored
by benchmarks/scoring.accuracy, and gains the fitted period_s, bsq, hsq
and converged of its run_report.json. One JSON object goes to standard
output: a row per seed and the median and worst value of every metric.
The sweep is deterministic, so two runs of one version print the same
table. Run from the repository root:

    python scripts/accuracy_sweep.py --seeds 11 2011
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from isarpose import RunConfig, run  # noqa: E402
from scoring import accuracy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 1011, 2011, 3011, 23, 5, 9, 42, 7, 101, 17, 1017, 2017, 3017,
         55, 77)
# metric -> the worst end of its range
WORST = {"period_err_s": max, "aspect_rate_corr": min, "tilt_rate_corr": min,
         "loa_err_m": max}


def sweep_row(seed: int, workdir: Path) -> dict:
    wl = WORKLOADS["canonical"]
    out = workdir / f"seed{seed}"
    run(RunConfig(mode="simulate", output_dir=str(out), scenario=wl.scenario,
                  seed=seed, weighting=wl.weighting))
    row = {"seed": seed}
    row.update({k: v for k, (v, _) in accuracy(out, wl, seed).items()
                if k in WORST})
    summary = json.loads((out / "run_report.json").read_text())["angle_summary"]
    row.update({k: summary[k] for k in ("period_s", "bsq", "hsq", "converged")})
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS),
                    help="scenario seeds (default: the 16-seed sweep)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = [sweep_row(s, Path(workdir)) for s in args.seeds]
    summary = {k: {"median": statistics.median(r[k] for r in rows),
                   "worst": worst(r[k] for r in rows)}
               for k, worst in WORST.items()}
    summary["converged"] = sum(r["converged"] for r in rows)
    print(json.dumps({"workload": "canonical", "rows": rows,
                      "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
