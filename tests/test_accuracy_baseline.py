"""The committed accuracy table (ACCURACY.json) against a rerun of two seeds.

scripts/accuracy_sweep.py is deterministic, so a rerun of canonical seeds
11 and 2011 reproduces their rows of the table's canonical sweep. The
relative tolerance of 1e-9 admits only platform last bits: a change that
moves the estimator's outputs has to rewrite the table.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sweep_module():
    spec = importlib.util.spec_from_file_location(
        "accuracy_sweep", ROOT / "scripts" / "accuracy_sweep.py")
    mod = importlib.util.module_from_spec(spec)
    saved = sys.path[:]   # the script puts src/ and benchmarks/ first
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved
    return mod


def _canonical_rows():
    table = json.loads((ROOT / "ACCURACY.json").read_text())
    sweep, = [s for s in table["sweeps"]
              if s["workload"] == "canonical" and s["noise_scale"] == 1.0]
    return {row["seed"]: row for row in sweep["rows"]}


@pytest.mark.parametrize("seed", [11, 2011])
def test_canonical_seed_reproduces_committed_row(seed, tmp_path):
    sweep = _sweep_module()
    row = sweep.sweep_row(sweep.WORKLOADS["canonical"], seed, tmp_path)
    want = _canonical_rows()[seed]
    assert sorted(row) == sorted(want)
    for key, value in want.items():
        if isinstance(value, bool):
            assert row[key] is value, key
        else:
            assert row[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
