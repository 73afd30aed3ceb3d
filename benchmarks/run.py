#!/usr/bin/env python3
"""Benchmark of `isarpose analyze` and `isarpose simulate` on generated dwells.

Run from the repository root; see benchmarks/README.md for the workloads
and metrics:

    python3 benchmarks/run.py --workload canonical --seed 11 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload dense --seed 11 --seconds 30 --trace 1

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes a traced run and reports the per-layer metrics. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The run record, a table of every metric and the failure
reasons go to the lines before it, and the full result (samples and spans)
is written under .bench_out/. All load comes from this one process and the
short-lived children it starts one at a time; scratch output lives under
.bench_work/ and is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, draw_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# end-to-end metrics: name -> (unit, better). The untraced JSON line
# carries the bounded ones (GATED); the rest are printed and saved, and the
# accuracy ones also ride in the traced JSON line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "period_err_s": ("s", "lower"),
    "aspect_rate_corr": ("ratio", "higher"),
    "tilt_rate_corr": ("ratio", "higher"),
    "loa_err_m": ("m", "lower"),
    "badfit_recall": ("ratio", "higher"),
    "badfit_precision": ("ratio", "higher"),
}
GATED = ("setup_s", "analyze_s", "simulate_s", "peak_rss_mb")
PER_LAYER_HIGHER = ("io.reports", "angles.winner_ratio", "pose.composites",
                    "length.frames_used")

SETUP_CODE = "import isarpose.cli, time; print(time.monotonic_ns())"
RSS_CODE = ("import resource, sys\n"
            "from isarpose.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(rc)\n")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"noise and fade seed, >= 0 (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _run_record(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


class Draw:
    """One noise draw of the workload: its dwell and reference outputs."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.dwell = work / f"dwell-{seed}.csv"
        self.ref_simulate: dict | None = None
        self.ref_analyze: dict | None = None
        self.accuracy: dict | None = None
        self.flags: list[str] = []
        self.out_bytes = 0


class Bench:
    """Runs of one workload and seed, with the output gate applied to each."""

    def __init__(self, workload, seeds: list[int], work: Path, env: dict):
        from isarpose.runner import RunConfig
        self.wl, self.work, self.env = workload, work, env
        self.RunConfig = RunConfig
        self.draws = [Draw(s, work) for s in seeds]
        self.attempted = 0
        self.failures: list[str] = []   # runs that failed the gate
        self.problems: list[str] = []   # other checks that failed
        self._n = 0

    def _fresh(self, tag: str) -> Path:
        self._n += 1
        return self.work / f"{tag}{self._n}"

    @staticmethod
    def _call(config, traced: bool):
        import isarpose.runner
        from tracing import traced_run
        if traced:
            tracer, seconds = traced_run(config)
            return seconds, tracer
        t0 = time.perf_counter()
        isarpose.runner.run(config)
        return time.perf_counter() - t0, None

    @staticmethod
    def _tree(out: Path) -> dict | None:
        from scoring import read_tree
        try:
            manifest = json.loads((out / "run_report.json").read_text())["manifest"]
        except (OSError, ValueError, KeyError):
            return None
        return read_tree(out, manifest)

    def simulate(self, draw: Draw, traced: bool = False):
        """One simulate-verb run of a draw; the first writes the dwell and
        the reference outputs. Returns (seconds, tracer) or None."""
        out = self._fresh("sim")
        config = self.RunConfig(mode="simulate", output_dir=str(out),
                                scenario=self.wl.scenario, seed=draw.seed,
                                weighting=self.wl.weighting)
        self.attempted += 1
        try:
            result = self._call(config, traced)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"simulate of draw {draw.seed} raised")
            return None
        tree = self._tree(out)
        if tree is None:
            self.failures.append(f"simulate of draw {draw.seed} lacks a manifest file")
            return None
        if draw.ref_simulate is None:
            draw.ref_simulate = tree
            shutil.copyfile(out / "dwell.csv", draw.dwell)
        elif tree != draw.ref_simulate:
            self.failures.append(f"two simulate runs of draw {draw.seed} differ")
            return None
        shutil.rmtree(out)
        return result

    def _accept(self, draw: Draw, out: Path) -> bool:
        from scoring import accuracy, gate
        tree = self._tree(out)
        why = gate(tree, draw.ref_analyze, draw.ref_simulate)
        if why is not None:
            self.failures.append(f"draw {draw.seed}: {why}")
            return False
        if draw.ref_analyze is None:
            draw.ref_analyze = tree
            draw.out_bytes = sum(len(b) for b in tree.values())
            draw.accuracy = accuracy(out, self.wl, draw.seed)
            draw.flags = json.loads(tree["run_report.json"])["angle_summary"]["flags"]
        shutil.rmtree(out)
        return True

    def analyze(self, draw: Draw, traced: bool = False):
        """One in-process analyze of a draw's dwell into a fresh directory.
        Returns (seconds, tracer) or None when it failed the gate."""
        out = self._fresh("an")
        config = self.RunConfig(mode="analyze", output_dir=str(out),
                                input_path=str(draw.dwell),
                                weighting=self.wl.weighting)
        self.attempted += 1
        try:
            result = self._call(config, traced)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"analyze of draw {draw.seed} raised")
            return None
        return result if self._accept(draw, out) else None

    def analyze_child(self, draw: Draw) -> float | None:
        """One `isarpose analyze` in a fresh interpreter; its peak RSS in MB."""
        out = self._fresh("cli")
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CODE, "analyze", "--input",
             str(draw.dwell), "--out", str(out), "--weighting",
             self.wl.weighting],
            env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.failures.append(f"isarpose analyze exited {proc.returncode}")
            return None
        rss_kb = int(proc.stdout.split()[-1])
        return rss_kb / 1024.0 if self._accept(draw, out) else None

    def setup_seconds(self) -> list[float]:
        """Fresh interpreter start to `import isarpose.cli` done."""
        out = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic_ns()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                                  env=self.env, capture_output=True,
                                  text=True, check=True,
                                  timeout=CHILD_TIMEOUT_S)
            out.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
        return out


def _passes(seconds: float, steps) -> None:
    """Whole passes over the steps until `seconds` have passed. At least
    two, so that one slow noise draw cannot leave a run with a single
    sample of each draw."""
    t_end = time.perf_counter() + seconds
    done = 0
    while done < 2 or time.perf_counter() < t_end:
        for step in steps:
            step()
        done += 1


def _median(samples) -> float:
    return statistics.median(samples) if samples else float("nan")


def _end_to_end(b: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced: setup, then whole passes of (simulate, analyze) over the
    draws for `seconds`, then a CLI child for peak RSS. The very first
    simulate warms the process up and is not a sample."""
    samples = {"setup_s": b.setup_seconds(), "analyze_s": [],
               "simulate_s": [], "peak_rss_mb": []}

    def simulate(d):
        r = b.simulate(d)
        if r is not None:
            samples["simulate_s"].append(r[0])

    def analyze(d):
        if d.ref_simulate is not None:
            r = b.analyze(d)
            if r is not None:
                samples["analyze_s"].append(r[0])

    steps = []
    for d in b.draws:
        steps += [lambda d=d: simulate(d), lambda d=d: analyze(d)]
    _passes(seconds, steps)
    del samples["simulate_s"][:1]   # the warm-up
    if b.draws[0].ref_simulate is not None:
        mb = b.analyze_child(b.draws[0])
        if mb is not None:
            samples["peak_rss_mb"].append(mb)
    if not all(samples.values()):
        return {}, samples
    metrics = {k: (_median(v), END_TO_END[k][0]) for k, v in samples.items()}
    return metrics, samples


def _per_layer(b: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced, on the one draw: one traced simulate, then pairs of
    (untraced, traced) analyses for `seconds`. Layer metrics are medians
    over the traced analyses, whose counts must all agree."""
    from tracing import layer_metrics, pipeline_counts
    d = b.draws[0]
    r_sim = b.simulate(d, traced=True)
    if r_sim is None:
        return {}, {}
    tr_sim = r_sim[1]
    untraced: list[float] = []
    traced: list[tuple[float, object]] = []

    def pair():
        r = b.analyze(d)
        if r is not None:
            untraced.append(r[0])
        r = b.analyze(d, traced=True)
        if r is not None:
            traced.append(r)

    _passes(seconds, [pair])
    if not (untraced and traced):
        return {}, {}
    want = pipeline_counts(tr_sim)
    for _, tr in traced:
        if pipeline_counts(tr) != want:
            b.problems.append("traced runs counted differently: "
                              f"{want} vs {pipeline_counts(tr)}")
            break
    runs = [layer_metrics(tr, tr_sim) for _, tr in traced]
    metrics = {k: (_median([m[k][0] for m in runs]), unit)
               for k, (_, unit) in runs[0].items()}
    metrics["runner.out_bytes"] = (d.out_bytes, "bytes")
    traced_s = [s for s, _ in traced]
    metrics["trace.overhead_s"] = (_median(traced_s) - _median(untraced), "s")
    return metrics, {"untraced_analyze_s": untraced,
                     "traced_analyze_s": traced_s,
                     "simulate_trace": tr_sim.to_dict(),
                     "analyze_traces": [tr.to_dict() for _, tr in traced]}


def _accuracy(b: Bench) -> dict:
    """Each accuracy metric's median over the draws that were scored."""
    scored = [d.accuracy for d in b.draws if d.accuracy is not None]
    return {k: (_median([a[k][0] for a in scored]), unit)
            for k, (_, unit) in scored[0].items()}


def _print_table(rows: dict, detail: dict) -> None:
    for name, (value, unit) in rows.items():
        better = (END_TO_END[name][1] if name in END_TO_END
                  else "higher" if name in PER_LAYER_HIGHER else "lower")
        note = ""
        if isinstance(detail.get(name), list) and detail[name]:
            s = detail[name]
            note = f"median of {len(s)}, min {min(s):.4g}, max {max(s):.4g}"
        print(f"  {name:22s} {value:14.6g} {unit:6s} {better:6s} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "isarpose" / "__init__.py").is_file():
        print(f"no isarpose sources under {SRC}", file=sys.stderr)
        return 2
    # Set before NumPy loads. On a 2-core Xeon one BLAS thread analyzes
    # `long` as fast as two (17.7 s vs 17.1 s), and waiting BLAS threads
    # spin, which turns any other load on the machine into wall time.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    import isarpose
    if Path(isarpose.__file__).resolve().parent != (SRC / "isarpose").resolve():
        print(f"imported isarpose from {isarpose.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    record = _run_record(os.cpu_count() or 1)
    print("run record: " + json.dumps(record, sort_keys=True))

    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = draw_seeds(wl, args.seed)
    bench = Bench(wl, seeds[:1] if args.trace else seeds, work, env)
    try:
        if args.trace:
            metrics, detail = _per_layer(bench, args.seconds)
        else:
            metrics, detail = _end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    d0 = bench.draws[0]
    if not metrics or d0.accuracy is None:
        print("no result: " + "; ".join(bench.failures + bench.problems),
              file=sys.stderr)
        return 1
    if wl.expect_no_wave and d0.seed == DEFAULT_SEED \
            and "no wave solution" not in d0.flags:
        bench.problems.append(f"{wl.name} seed {DEFAULT_SEED} did not take "
                              "the slow-only angle path")
    failed = len(bench.failures)
    full = dict(metrics)
    full.update(_accuracy(bench))
    full["error_rate"] = (failed / bench.attempted, "ratio")

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"draws {[d.seed for d in bench.draws]}, "
          f"{bench.attempted} runs, {failed} failed")
    for why in bench.failures + bench.problems:
        print(f"  FAILED: {why}")
    if args.trace:
        _print_table({k: v for k, v in full.items() if k not in END_TO_END}, detail)
        _print_table({k: v for k, v in full.items() if k in END_TO_END}, detail)
        traced_s = _median(detail["traced_analyze_s"])
        print(f"  share of the traced analyze ({traced_s:.4g} s): angles.lsq_s "
              f"{full['angles.lsq_s'][0] / traced_s:.1%}, angles.estimate_s "
              f"{full['angles.estimate_s'][0] / traced_s:.1%}")
    else:
        _print_table({k: full[k] for k in END_TO_END}, detail)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "workload": wl.name, "seed": args.seed,
                    "draws": [d.seed for d in bench.draws],
                    "seconds": args.seconds,
                    "failures": bench.failures + bench.problems,
                    "metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in full.items()},
                    "samples": detail}, indent=1) + "\n")

    keys = (GATED if not args.trace
            else [k for k in full if k not in GATED and k != "error_rate"])
    print(json.dumps({
        "correct": not (bench.failures or bench.problems),
        "attempted": bench.attempted, "failed": failed,
        "metrics": {k: {"value": float(full[k][0]), "unit": full[k][1]}
                    for k in keys}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
