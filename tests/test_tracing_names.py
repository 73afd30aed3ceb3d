"""The names benchmarks/tracing.py patches still exist in the package.

The tracer replaces package names from outside (its _TARGETS) and counts
reports through Dwell.frames, so renaming any of them breaks only the
benchmark. This guard imports the tracer as benchmarks/test_counts.py
does, with the benchmarks directory on the path.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from isarpose.ship import Dwell, report_array
from tests.conftest import make_dwell

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    assert tracing._TARGETS
    for module, name in tracing._TARGETS:
        assert callable(getattr(module, name, None)), (module.__name__, name)


def test_the_report_count_reads_dwell_frames(tracing):
    assert hasattr(Dwell, "frames")
    frames = [report_array((k + 0.5) * 0.5, 20.0, np.arange(float(n)),
                           np.zeros(n), np.zeros(n))
              for k, n in enumerate((3, 0, 5))]
    dwell = make_dwell(frames, 0.7, 0.5, 0.5, 0.5, 0.5)
    assert tracing._reports(dwell) == 8
