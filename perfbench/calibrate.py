"""Calibration sweep: the ROADMAP's per-layer cost table.

* ensemble: ``run_ensemble`` time per step for n in {1, 64, 1024, 4096}
  walkers on a static field, fitted as ``fixed + n * per_trajectory`` in 1-d
  and 2-d (one chunk, one worker; includes the substream set-up of each
  walker, spread over the steps);
* propagator: ``evolve`` time per step on 2048, 256^2 and 64^3 points;
* density solver: ``fp_step`` and ``fp_step_implicit`` time per step on a
  128^2 grid.

Each point is the median of ``REPEATS`` timings.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3
ENSEMBLE_SIZES = (1, 64, 1024, 4096)
UNITS = {
    "langevin.fixed_us_per_step.1d": "us", "langevin.fixed_us_per_step.2d": "us",
    "langevin.ns_per_traj_step.1d": "ns", "langevin.ns_per_traj_step.2d": "ns",
    "schrodinger.us_per_step.1d": "us", "schrodinger.us_per_step.2d": "us",
    "schrodinger.us_per_step.3d": "us",
    "smoluchowski.explicit_ms_per_step.2d": "ms", "smoluchowski.implicit_ms_per_step.2d": "ms",
}


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _gaussian(grid):
    from psiwalk import WaveField

    r2 = sum(m**2 for m in grid.meshgrid())
    return WaveField(grid, np.exp(-r2 / 2.0))


def _ensemble_fit(grid, steps, seed):
    """(fixed us per step, ns per trajectory-step) from a least-squares line."""
    from psiwalk import GuidanceParams, PointSampler, run_ensemble

    psi = _gaussian(grid)
    params = GuidanceParams(lam=1.0)
    dt = 1e-3
    sampler = PointSampler(np.zeros(grid.dims))
    per_step = []
    for n in ENSEMBLE_SIZES:
        t = _median_time(lambda: run_ensemble(n, sampler, psi, params, dt, steps * dt,
                                              master_seed=seed))
        per_step.append(t / steps)
    slope, intercept = np.polyfit(np.array(ENSEMBLE_SIZES, dtype=float), per_step, 1)
    return intercept * 1e6, slope * 1e9


def _propagator_us_per_step(grid, steps):
    from psiwalk import HamiltonianSpec, evolve

    psi = _gaussian(grid)
    h = HamiltonianSpec(potential=0.5 * sum(m**2 for m in grid.meshgrid()))
    dt = 1e-3
    t = _median_time(lambda: evolve(psi, h, steps * dt, dt, snapshot_stride=steps))
    return t / steps * 1e6


def _fp_ms_per_step(steps):
    from psiwalk import DensityField, FPOperator, GuidanceParams, Grid, fp_step, fp_step_implicit

    grid = Grid.make((128, 128), (-8.0, 8.0), "reflecting")
    psi = _gaussian(grid)
    op = FPOperator.from_wavefield(psi, GuidanceParams(lam=1.0))
    p0 = DensityField(grid, np.full(grid.points, 1.0 / (16.0 * 16.0)))
    dt_explicit = 0.9 * op.stable_dt()

    def advance(step, dt):
        p = p0
        for _ in range(steps):
            p = step(p, op, dt)

    explicit = _median_time(lambda: advance(fp_step, dt_explicit)) / steps
    implicit = _median_time(lambda: advance(fp_step_implicit, 10 * dt_explicit)) / steps
    return explicit * 1e3, implicit * 1e3


def sweep(seed: int) -> dict[str, float]:
    from psiwalk import Grid

    out = {}
    for tag, grid, steps in (
        ("1d", Grid.make(512, (-8.0, 8.0), "periodic"), 1000),
        ("2d", Grid.make((128, 128), (-8.0, 8.0), "reflecting"), 300),
    ):
        fixed_us, ns = _ensemble_fit(grid, steps, seed)
        out[f"langevin.fixed_us_per_step.{tag}"] = fixed_us
        out[f"langevin.ns_per_traj_step.{tag}"] = ns
    for tag, points, steps in (("1d", 2048, 500), ("2d", 256, 40), ("3d", 64, 15)):
        grid = Grid.make((points,) * int(tag[0]), (-16.0, 16.0), "periodic")
        out[f"schrodinger.us_per_step.{tag}"] = _propagator_us_per_step(grid, steps)
    explicit, implicit = _fp_ms_per_step(20)
    out["smoluchowski.explicit_ms_per_step.2d"] = explicit
    out["smoluchowski.implicit_ms_per_step.2d"] = implicit
    return out
