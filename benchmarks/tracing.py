"""Per-layer spans and counters, recorded from outside the package.

The runner binds its callees at import time, and the angle chain calls its
helpers through the `isarpose.angles` module globals, so a Tracer replaces
those names in exactly those two namespaces for the length of one run and
puts the originals back afterwards. Nothing under src/ is changed.

A span is (name, start, end, parent). Spans stay in memory; `to_dict`
gives them to the caller, which writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import isarpose.angles
import isarpose.runner


def _reports(dwell) -> int:
    return sum(len(fr.reports) for fr in dwell.frames)


def _lsq(res) -> dict:
    njev = int(res.njev or 0)
    # a 2-point finite-difference Jacobian costs one residual per parameter
    return {"angles.lsq_calls": 1, "angles.nfev": int(res.nfev),
            "angles.njev": njev,
            "angles.resid_evals": int(res.nfev) + njev * int(res.x.size)}


# (module, attribute) -> (span name, counts taken from the return value)
_TARGETS = {
    (isarpose.runner, "load_dwell"): ("io.load", lambda d: {"io.reports": _reports(d)}),
    (isarpose.runner, "dwell_text"): ("io.write", None),
    (isarpose.runner, "build_angle_track"): ("simulate.track", None),
    (isarpose.runner, "simulate_degraded"): ("simulate.degraded", None),
    (isarpose.runner, "moments_series"): ("moments.series", None),
    (isarpose.runner, "estimate_angles"): ("angles.estimate", None),
    (isarpose.runner, "model_covariances"): ("validate", None),
    (isarpose.runner, "consistency_synth"): ("validate", None),
    (isarpose.runner, "badfit"): (
        "validate", lambda bf: {"validate.flagged": int(bf.flagged.sum())}),
    (isarpose.runner, "crosscheck_focus"): ("validate", None),
    (isarpose.runner, "motion_matrix"): ("pose.invert", None),
    (isarpose.runner, "invert_frame"): ("pose.invert", lambda _: {"pose.invert_calls": 1}),
    (isarpose.runner, "classify_frames"): ("pose.classify", None),
    (isarpose.runner, "compose"): (
        "pose.compose", lambda img: {"pose.composites": int(bool(img.frames_used))}),
    (isarpose.runner, "estimate_loa"): (
        "length.loa", lambda est: {"length.frames_used": int(est.frames_used)}),
    (isarpose.angles, "dominant_wave_period"): ("bands.seed", None),
    (isarpose.angles, "chapeau_band_split"): ("bands.split", lambda _: {"bands.split_calls": 1}),
    # the slow-only path smooths directly instead of splitting
    (isarpose.angles, "chapeau_smooth"): ("bands.split", lambda _: {"bands.split_calls": 1}),
    (isarpose.angles, "lowpass_aspect_solve"): ("angles.lowpass", None),
    (isarpose.angles, "waveband_joint_fit"): (
        "angles.fit", lambda _: {"angles.candidates": 1}),
    (isarpose.angles, "least_squares"): ("angles.lsq", _lsq),
}


class Tracer:
    """Spans and counts of one traced call tree."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(out))
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the traced names through this tracer for the block."""
        saved = {key: getattr(*key) for key in _TARGETS}
        try:
            for (mod, attr), (name, count) in _TARGETS.items():
                setattr(mod, attr, self._wrap(saved[(mod, attr)], name, count))
            yield self
        finally:
            for (mod, attr), fn in saved.items():
                setattr(mod, attr, fn)

    def busy(self, name: str) -> float:
        """Seconds inside spans of this name, outermost ones only."""
        return sum(e - s for n, s, e, p in self.spans
                   if n == name and (p is None or self.spans[p][0] != name))

    def self_time(self, name: str) -> float:
        """Busy seconds of `name` minus the time its child spans cover."""
        total = self.busy(name)
        for n, s, e, p in self.spans:
            if p is not None and self.spans[p][0] == name and n != name:
                total -= e - s
        return total

    def to_dict(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


def traced_run(config) -> tuple[Tracer, float]:
    """One `runner.run` under a fresh tracer: (tracer, seconds)."""
    tracer = Tracer()
    with tracer.installed(), tracer.span("runner.run"):
        t0 = time.perf_counter()
        isarpose.runner.run(config)
        seconds = time.perf_counter() - t0
    return tracer, seconds


# counts that depend only on the dwell and the pipeline, never on timing;
# two traced analyses of one dwell must agree on every one of them
PIPELINE_COUNTS = (
    "bands.split_calls", "angles.candidates", "angles.lsq_calls",
    "angles.nfev", "angles.njev", "angles.resid_evals", "validate.flagged",
    "pose.invert_calls", "pose.composites", "length.frames_used")


def pipeline_counts(tracer: Tracer) -> dict:
    return {k: tracer.counts.get(k, 0) for k in PIPELINE_COUNTS}


def layer_metrics(an: Tracer, sim: Tracer) -> dict:
    """Per-layer metrics of one traced analyze (`an`) and one traced
    simulate (`sim`), as {name: (value, unit)}."""
    c = an.counts
    cand = c.get("angles.candidates", 0)
    return {
        "io.load_s": (an.busy("io.load"), "s"),
        "io.reports": (c.get("io.reports", 0), "count"),
        "io.write_s": (sim.busy("io.write"), "s"),
        "simulate.track_s": (sim.busy("simulate.track"), "s"),
        "simulate.degraded_s": (sim.busy("simulate.degraded"), "s"),
        "moments.series_s": (an.busy("moments.series"), "s"),
        "bands.seed_s": (an.busy("bands.seed"), "s"),
        "bands.split_s": (an.busy("bands.split"), "s"),
        "bands.split_calls": (c.get("bands.split_calls", 0), "count"),
        "angles.estimate_s": (an.busy("angles.estimate"), "s"),
        "angles.self_s": (an.self_time("angles.estimate"), "s"),
        "angles.lowpass_s": (an.busy("angles.lowpass"), "s"),
        "angles.fit_s": (an.busy("angles.fit"), "s"),
        "angles.candidates": (cand, "count"),
        "angles.winner_ratio": (1.0 / cand if cand else 0.0, "ratio"),
        "angles.lsq_s": (an.busy("angles.lsq"), "s"),
        "angles.lsq_calls": (c.get("angles.lsq_calls", 0), "count"),
        "angles.nfev": (c.get("angles.nfev", 0), "count"),
        "angles.njev": (c.get("angles.njev", 0), "count"),
        "angles.resid_evals": (c.get("angles.resid_evals", 0), "count"),
        "validate.s": (an.busy("validate"), "s"),
        "validate.flagged": (c.get("validate.flagged", 0), "count"),
        "pose.invert_s": (an.busy("pose.invert"), "s"),
        "pose.invert_calls": (c.get("pose.invert_calls", 0), "count"),
        "pose.classify_s": (an.busy("pose.classify"), "s"),
        "pose.compose_s": (an.busy("pose.compose"), "s"),
        "pose.composites": (c.get("pose.composites", 0), "count"),
        "length.loa_s": (an.busy("length.loa"), "s"),
        "length.frames_used": (c.get("length.frames_used", 0), "count"),
        "runner.self_s": (an.self_time("runner.run"), "s"),
    }
