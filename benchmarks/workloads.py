"""The three benchmark dwells, as simulate-verb scenarios.

Every workload shares the paper's geometry: a 120 m ship seen at a mean
aspect of 45 deg and a mean tilt of 30 deg, reported with noise
sigma = (0.2 m, 0.03 m/s, 0.02 m/s^2). The benchmark seed is passed to the
simulator as its scenario seed, so it sets the noise and fade draws and
nothing else: the ship, the motion and the confuser windows are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

SHIP_LOA_M = 120.0
SHIP_SEED = 3   # the README example ship

_COMMON = {
    "frame_interval": 0.5,
    "integration_time": 0.5,
    "phi0_deg": 45.0,
    "theta0_deg": 30.0,
    "noise": {"sigma_r": 0.2, "sigma_f": 0.03, "sigma_a": 0.02},
    # the two seaway lines the angle fit has to recover
    "aspect_osc": {"amplitude_deg": 1.0, "period_s": 12.0},
    "tilt_osc": {"amplitude_deg": 1.0, "period_s": 10.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict
    # noise draws per run: the analysis cost follows the draw (one canonical
    # seed in eight needs 3x the solver evaluations), so a run times several
    draws: int
    weighting: str = "uniform"
    # the slow-only path is the known shape of this dwell on the default seed
    expect_no_wave: bool = False

    @property
    def wave_lines_s(self) -> tuple[float, float]:
        return (self.scenario["aspect_osc"]["period_s"],
                self.scenario["tilt_osc"]["period_s"])

    @property
    def confuser_windows(self) -> tuple[tuple[float, float], ...]:
        return tuple((d["t_start"], d["t_stop"])
                     for d in self.scenario.get("degradations", ()))


def _scenario(**over) -> dict:
    return {**_COMMON, **over}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="canonical",
            why=("the paper's 60 s, 120-frame scene: the angle fit does ~96% "
                 "of the work and its short residuals make it overhead-bound"),
            scenario=_scenario(
                duration=60.0, steady_aspect_rate_dps=0.3,
                ship={"loa": SHIP_LOA_M, "n_scatterers": 24,
                      "seed": SHIP_SEED}),
            draws=4),
        Workload(
            name="dense",
            why=("40 ragged frames of ~3k reports with two confusers: the fit "
                 "takes its slow-only path, so load, moments, pose and output "
                 "dominate"),
            scenario=_scenario(
                duration=20.0, steady_aspect_rate_dps=0.3,
                # SNR fades below the floor drop about a quarter of the
                # scatterers in each frame, differently in every frame
                fade_sigma_db=4.0, snr_floor_db=17.0,
                ship={"loa": SHIP_LOA_M, "n_scatterers": 4000,
                      "seed": SHIP_SEED},
                # dense enough (~10% of a frame) to move the frame moments
                degradations=[
                    {"kind": "bogey", "t_start": 4.0, "t_stop": 7.0,
                     "density": 300},
                    {"kind": "narrowband_interference", "t_start": 12.0,
                     "t_stop": 15.0, "density": 300}]),
            draws=2,
            weighting="snr",
            expect_no_wave=True),
        Workload(
            name="long",
            why=("a 300 s, 600-frame dwell: 5x longer residuals and a larger "
                 "band split make the angle fit array-bound"),
            # at 0.3 deg/s the aspect would leave +-90 deg over 300 s
            scenario=_scenario(
                duration=300.0, steady_aspect_rate_dps=0.02,
                ship={"loa": SHIP_LOA_M, "n_scatterers": 50,
                      "seed": SHIP_SEED}),
            draws=1),
    )
}

DEFAULT_SEED = 11   # the README example's noise seed


def draw_seeds(workload: Workload, seed: int) -> list[int]:
    """Scenario seeds of one run: the run seed itself, then seed + 1000 i."""
    return [seed + 1000 * i for i in range(workload.draws)]
