"""Command line entry point.

    isarpose simulate --config scenario.json --out outdir [--seed N]
                      [--weighting uniform|snr]
    isarpose analyze  --input dwell.csv --out outdir [--config overrides.json]
                      [--emit-plots] [--period S] [--weighting uniform|snr]
    isarpose selftest [--list]

Exit codes: 0 success, 2 configuration error, 3 input data error,
4 pipeline or check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ship import is_number
from .runner import ConfigError, DataError, PipelineError, RunConfig, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PIPELINE = 4

# the RunConfig fields an analyze --config JSON may set
ANALYZE_OVERRIDES = ("badfit_threshold", "class_threshold")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return obj


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isarpose",
        description="Ship motion and 3-D pose estimation from ISAR target reports")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="generate a dwell file from a scenario")
    p_sim.add_argument("--config", required=True, help="scenario JSON")
    p_sim.add_argument("--out", dest="output", required=True,
                       help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--weighting", choices=("uniform", "snr"),
                       default="uniform")

    p_an = sub.add_parser("analyze", help="run the estimation pipeline on a dwell")
    p_an.add_argument("--input", required=True, help="dwell file")
    p_an.add_argument("--out", dest="output", required=True,
                      help="output directory")
    p_an.add_argument("--config", default=None,
                      help="optional JSON with badfit_threshold and/or "
                      "class_threshold")
    p_an.add_argument("--emit-plots", action="store_true")
    p_an.add_argument("--period", type=float, default=None,
                      help="seed the period search (s) with this value in "
                      "place of the spectral estimate")
    p_an.add_argument("--weighting", choices=("uniform", "snr"),
                      default="uniform")

    p_st = sub.add_parser("selftest", help="run the acceptance checks")
    p_st.add_argument("--list", action="store_true", dest="list_only",
                      help="list check names without running")
    return parser


def _analyze_config(args: argparse.Namespace) -> RunConfig:
    overrides = _load_json(args.config) if args.config else {}
    for key in sorted(overrides):
        if key not in ANALYZE_OVERRIDES:
            raise ConfigError(f"unknown override key {key!r} (allowed: "
                              f"{', '.join(ANALYZE_OVERRIDES)})")
        if not is_number(overrides[key]):
            raise ConfigError(f"{key} must be a finite number, "
                              f"got {overrides[key]!r}")
    return RunConfig(
        mode="analyze",
        input_path=args.input,
        output_dir=args.output,
        emit_plots=bool(args.emit_plots),
        weighting=args.weighting,
        period=args.period,
        **{key: float(value) for key, value in overrides.items()})


def _selftest(list_only: bool) -> int:
    from .acceptance import all_checks, run_all
    if list_only:
        for name, _fn in all_checks():
            print(name)
        return EXIT_OK
    results = run_all()
    failures = 0
    for name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        print(f"{tag}  {name}: {detail}")
        if not passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_PIPELINE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "simulate":
            scenario = _load_json(args.config)
            config = RunConfig(mode="simulate", scenario=scenario,
                               output_dir=args.output, seed=args.seed,
                               weighting=args.weighting)
            report = run(config)
            print(f"wrote {len(report.manifest)} files to {args.output}")
            return EXIT_OK
        if args.verb == "analyze":
            config = _analyze_config(args)
            report = run(config)
            summary = report.angle_summary
            print(f"analyzed {report.n_frames} frames; "
                  f"period {summary.get('period_s', 0):.2f} s, "
                  f"steady rate {summary.get('steady_rate_dps', 0):.3f} deg/s, "
                  f"{report.badfit_count} flagged frames")
            if report.loa:
                print(f"length overall {report.loa['loa_m']:.1f} m "
                      f"({report.loa['frames_used']} frames)")
            print(f"wrote {len(report.manifest)} files to {args.output}")
            return EXIT_OK
        return _selftest(args.list_only)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
