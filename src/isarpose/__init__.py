"""Ship motion and 3-D pose estimation from ISAR target reports.

The toolkit recovers a ship's time-varying aspect and tilt angles from
per-frame scatterer reports (range, range-rate, range-acceleration),
inverts the rigid-body motion matrix to estimate drydock coordinates,
classifies frames as Profile / Plan / ThreeD / StringOfPearls, estimates
length overall, and self-checks through acceleration-consistency
residuals. A forward simulator makes every estimate testable against
known truth.

Angles are radians everywhere inside the package; degrees appear only at
file boundaries. Doppler is carried as range-rate in m/s.
"""

from .ship import (ShipModel, ANGLE_DTYPE, angle_array, AngleTrack,
                   REPORT_DTYPE, report_array, Frame, Dwell, ship_moments)
from .simulate import (ScenarioConfig, DegradationSpec, rfa_of,
                       build_angle_track, simulate_degraded, make_ship)
from .moments import MOMENT_DTYPE, moments_series, time_derivative
from .bands import BandSplit, chapeau_band_split, dominant_wave_period
from .angles import (FitState, lowpass_aspect_solve, waveband_joint_fit,
                     estimate_angles, model_covariances, ModelCovariances)
from .validate import (BadFitSeries, consistency_synth, badfit,
                       crosscheck_focus)
from .pose import (FrameSolution, CompositeImage, FrameClass,
                   motion_matrix, invert_frame, classify_frames, compose)
from .length import LengthEstimate, frame_loa, beam_rule, estimate_loa
from .io import load_dwell, save_dwell
from .runner import RunConfig, RunReport, run, PipelineError

__all__ = [
    "ShipModel", "ANGLE_DTYPE", "angle_array", "AngleTrack",
    "REPORT_DTYPE", "report_array", "Frame", "Dwell", "ship_moments",
    "ScenarioConfig", "DegradationSpec", "rfa_of", "build_angle_track",
    "simulate_degraded", "make_ship",
    "MOMENT_DTYPE", "moments_series", "time_derivative",
    "BandSplit", "chapeau_band_split", "dominant_wave_period",
    "FitState", "lowpass_aspect_solve", "waveband_joint_fit",
    "estimate_angles", "model_covariances", "ModelCovariances",
    "BadFitSeries", "consistency_synth", "badfit", "crosscheck_focus",
    "FrameSolution", "CompositeImage", "FrameClass",
    "motion_matrix", "invert_frame", "classify_frames", "compose",
    "LengthEstimate", "frame_loa", "beam_rule", "estimate_loa",
    "load_dwell", "save_dwell",
    "RunConfig", "RunReport", "run", "PipelineError",
]

__version__ = "0.1.0"
