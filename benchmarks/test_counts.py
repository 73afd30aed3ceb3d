"""Two traced analyses of one dwell count exactly the same work.

The values are not pinned (the period grid is expected to shrink); only
their repeatability is, since a gain may be claimed from a count only when
it repeats exactly. Run from the repository root:

    python3 -m pytest benchmarks/test_counts.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from isarpose.runner import RunConfig, run  # noqa: E402
from tracing import PIPELINE_COUNTS, traced_run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def test_two_traced_runs_count_alike(tmp_path):
    wl = WORKLOADS["canonical"]
    run(RunConfig(mode="simulate", output_dir=str(tmp_path / "sim"),
                  scenario=wl.scenario, seed=DEFAULT_SEED))
    counts = []
    for name in ("a", "b"):
        tracer, _ = traced_run(RunConfig(
            mode="analyze", output_dir=str(tmp_path / name),
            input_path=str(tmp_path / "sim" / "dwell.csv")))
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["angles.lsq_calls"] > 0
    assert set(PIPELINE_COUNTS) <= set(counts[0])
