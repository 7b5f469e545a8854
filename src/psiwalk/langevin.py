"""Euler-Maruyama integration of the guided walker, single and ensemble.

The walker obeys  dX = lam * grad ln(|Psi|^2 + eps) dt + sqrt(2 lam) dW  with
independent unit white noise per dimension, discretized as

    X_{s+1} = X_s + drift(X_s, t_s) * dt + sqrt(2 lam dt) * eta_s,

eta_s standard normal per dimension.  Reflecting boundaries fold the proposed
point back into the box, periodic boundaries wrap.

One kernel, ``_advance_block``, takes every step of every entry point: it
interpolates the drift at the in-box positions, caps it, adds the noise,
raises IntegratorFailure on a non-finite step, folds, and counts node-basin
crossings.  One chunk driver, ``_run_chunk``, serves both entry points: it
folds the chunk's start points once (a sampler draws them in one call) and
advances the kernel a block of steps at a time up to the next event:
noise-block end, snapshot-segment end, checkpoint, recorded row, or the
first step at which a walker meets an optional stop predicate.  Walkers that
meet it retire from the batch (``run_first_passage_ensemble``).  A single
trajectory is an ensemble of one.

Time steps follow ``grids.step_plan``, one segment per governing snapshot,
as in the density solver; checkpoints must lie a ``grids.step_count`` of
steps from the start.  Each segment's drift interpolant and basin map are
built once and shared by every chunk.  ``scipy.ndimage`` is imported when the
first basin map is built, so runs that count no node crossings do not need it.

Reproducibility: every trajectory owns a counter-based Philox substream keyed
by (master_seed, stream_id), so results are a pure function of the scenario
and master seed, independent of chunking and of how the noise is blocked.
The key reaches Philox through a minimal seed sequence, so no OS entropy is drawn.
Ensembles run in fixed-size chunks of ``_CHUNK`` trajectories, one after the
other in the calling thread, and merge in stream order.  There are no chunk
threads: per-step numpy dispatch holds the GIL, and two threads measured
0.64-0.69x the speed of one.

Noise budget: a chunk of m trajectories in d dimensions draws its noise into
one buffer of at most ``_NOISE_VALUES`` doubles (8 MiB), B = _NOISE_VALUES //
(m d) steps per trajectory.  In every chunk the blocks, refilled when used
up wherever that falls relative to snapshot segments, checkpoints and
recorded rows, start at ``_FIRST_BLOCK`` steps and grow with the steps
already taken, up to B, so that walkers which retire early do not draw (and
throw away) a whole budget of noise.  A stream's draws concatenate
bit-exactly across calls, so block sizes never change a result; they only
trade memory against per-call generator overhead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import DensityField, Grid, WaveField, _Interpolant, step_count, step_plan
from .guidance import GuidanceParams, _cap_vectors, drift_field

_CHUNK = 4096           # trajectories per chunk (bounds memory; results do not depend on it)
_NOISE_VALUES = 2**20   # doubles in a chunk's noise buffer (8 MiB)
_FIRST_BLOCK = 1024     # steps in a chunk's first noise block


class IntegratorFailure(RuntimeError):
    """Non-finite proposal, typically a drift blowup without a cap."""

    def __init__(self, position, time, stream_id=None):
        self.position = np.asarray(position)
        self.time = time
        self.stream_id = stream_id
        where = f" (stream {stream_id})" if stream_id is not None else ""
        super().__init__(f"non-finite step at x={self.position}, t={time}{where}")


@functools.cache
def _philox_key():
    """A seed-sequence class that hands Philox its key words as they are,
    defined on first use so that ``import psiwalk`` does not load ``numpy.random``."""
    return type("PhiloxKey", (np.random.bit_generator.ISeedSequence,), {
        "__init__": lambda self, words: setattr(self, "words", words),
        "generate_state": lambda self, n_words, dtype=None: np.array(self.words, np.uint64)})


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based Philox generator for one trajectory.

    The 128-bit key combines both identifiers, so the draw sequence depends
    only on (master_seed, stream_id).  It is set as two 64-bit words, low first.
    """
    words = [int(stream_id) & (2**64 - 1), int(master_seed) & (2**64 - 1)]
    return np.random.Generator(np.random.Philox(_philox_key()(words)))


# --------------------------------------------------------------------------
# initial-position samplers

class PointSampler:
    """Every trajectory starts at the same point; consumes no stream draws."""

    def __init__(self, x):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))

    def sample(self, rngs) -> np.ndarray:
        return np.tile(self.x, (len(rngs), 1))


class DensitySampler:
    """Inverse-CDF sampling of a gridded density: pick a cell, then a uniform
    offset inside it.  Consumes 1 + dims uniforms per trajectory."""

    def __init__(self, density: DensityField):
        self.grid = density.grid
        p = density.values.ravel()
        total = p.sum()
        if total <= 0:
            raise ValueError("cannot sample from a zero density")
        self.cdf = np.cumsum(p / total)
        self.cdf[-1] = 1.0

    def sample(self, rngs) -> np.ndarray:
        dims = self.grid.dims
        u = np.empty((len(rngs), 1 + dims))
        for r, row in zip(rngs, u):
            r.random(out=row)
        idx = np.unravel_index(np.searchsorted(self.cdf, u[:, 0]), self.grid.points)
        x = np.empty((len(rngs), dims))
        for k in range(dims):
            x[:, k] = self.grid.coords(k)[idx[k]] + (u[:, 1 + k] - 0.5) * self.grid.spacing[k]
        return x


# --------------------------------------------------------------------------
# node-crossing diagnostics

class NodeBasinMap:
    """Partition of grid cells into node zones and numbered basins.

    Cells with ``|Psi|^2 < threshold * max|Psi|^2`` form node barriers; the
    connected components of the remaining cells are basins.  A trajectory
    records one crossing whenever consecutive step endpoints belong to two
    different basins.
    """

    def __init__(self, grid: Grid, labels: np.ndarray):
        self.grid = grid
        self.labels = labels
        # Flat label table for ``lookup``: each axis gets a slice n for points
        # on or rounding onto hi, node 0's if periodic, else the last cell's.
        periodic = [b == "periodic" for b in grid.boundary]
        table = labels
        for k, p in enumerate(periodic):
            table = np.concatenate([table, np.take(table, [0 if p else -1], axis=k)], axis=k)
        self._axes = [(k, lo, (hi - lo) / n, 0.5 * periodic[k], int(np.prod(table.shape[k + 1 :])))
                      for k, ((lo, hi), n) in enumerate(zip(grid.extent, grid.points))]
        self.table = table.ravel()

    @classmethod
    def from_wavefield(cls, psi: WaveField, threshold: float) -> "NodeBasinMap":
        from scipy import ndimage

        rho = np.abs(psi.values) ** 2
        open_cells = rho >= threshold * rho.max()
        structure = ndimage.generate_binary_structure(psi.grid.dims, 1)
        labeled, _ = ndimage.label(open_cells, structure=structure)
        labels = labeled.astype(np.int64) - 1  # node cells -> -1
        # A basin straddling a periodic boundary is one component: join the
        # labels that touch through each periodic face (union-find, so chains
        # of joins end in one basin) and keep each basin's smallest label.
        root = np.arange(labels.max() + 1)

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for axis in range(psi.grid.dims):
            if psi.grid.boundary[axis] != "periodic":
                continue
            first = np.take(labels, 0, axis=axis).ravel()
            last = np.take(labels, -1, axis=axis).ravel()
            for a, b in zip(first, last):
                if a >= 0 and b >= 0:
                    a, b = find(a), find(b)
                    root[max(a, b)] = min(a, b)
        root = np.array([find(a) for a in range(root.size)], dtype=np.int64)
        labels[labels >= 0] = root[labels[labels >= 0]]
        return cls(psi.grid, labels)

    def basins_at(self, x) -> np.ndarray:
        idx = self.grid.cell_index(np.atleast_2d(x))
        return self.labels[tuple(idx[:, k] for k in range(self.grid.dims))]

    def lookup(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``basins_at`` of in-box points into ``out``: the cell quotient of
        ``Grid.cell_index``, read from the padded table without modulo."""
        for k, lo, dx, half, stride in self._axes:
            q = x[:, k] - lo
            q /= dx
            q += half   # adding 0.0 on reflecting axes leaves the floor unchanged
            term = np.floor(q, out=q).astype(np.int64)
            if stride > 1:
                term *= stride
            flat = term if k == 0 else flat + term
        return self.table.take(flat, out=out)


# --------------------------------------------------------------------------
# stop predicates for first-passage runs

@dataclass(frozen=True)
class PlaneCrossing:
    """Stop when the trajectory reaches or crosses the plane x[axis] = at."""

    at: float = 0.0
    axis: int = 0

    def initial_side(self, x0) -> np.ndarray:
        return np.sign(np.atleast_2d(x0)[:, self.axis] - self.at)

    def hit(self, x, side) -> np.ndarray:
        return (np.atleast_2d(x)[:, self.axis] - self.at) * side <= 0


@dataclass(frozen=True)
class RegionEntry:
    """Stop when the trajectory enters the axis-aligned box [lower, upper]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def initial_side(self, x0) -> np.ndarray:
        return np.zeros(np.atleast_2d(x0).shape[0])

    def hit(self, x, side) -> np.ndarray:
        x = np.atleast_2d(x)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        return np.all((x >= lower) & (x <= upper), axis=1)


@dataclass(frozen=True)
class FirstPassage:
    stream_id: int
    time: float
    censored: bool


# --------------------------------------------------------------------------
# the stepping kernel

def _advance_block(positions, t, dt, noise, drift, grid, sigma, cap, stream_ids,
                   basin_map=None, basin_prev=None, crossings=None, stop=None, side=None):
    """Advance in-box positions through up to noise.shape[1] Euler-Maruyama steps.

    ``drift`` maps in-box positions to new drift arrays.  Each step raises
    IntegratorFailure on a non-finite proposal, and with a ``stop`` predicate
    the block ends after the first step at which some walker hits.  With a
    basin map, each step counts into ``crossings`` the walkers whose basin
    differs from their last one, ``basin_prev``, which node cells (-1) keep.
    Returns ``(positions, t, steps, hit)``, ``hit`` marking the walkers that
    stopped (None when the block ran out).
    """
    m, steps = noise.shape[:2]
    if basin_map is not None:
        basins = np.empty(m, np.int64)
    for s in range(steps):
        v = _cap_vectors(drift(positions), cap)
        v *= dt
        v += sigma * noise[:, s]
        v += positions
        if not np.isfinite(v.sum()):   # the sum may also overflow on finite rows
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
            if bad.size:
                raise IntegratorFailure(v[bad[0]], t + dt, stream_ids[bad[0]])
        positions = grid.fold(v)
        t = t + dt
        if basin_map is not None:
            basin_map.lookup(positions, basins)
            if not np.array_equal(basins, basin_prev):   # most steps change no label
                crossings += (basins != basin_prev) & (basins >= 0) & (basin_prev >= 0)
                np.copyto(basin_prev, basins, where=basins >= 0)
        if stop is not None:
            hit = stop.hit(positions, side)
            if hit.any():
                return positions, t, s + 1, hit
    return positions, t, steps, None


# --------------------------------------------------------------------------
# ensemble results

@dataclass
class EnsembleResult:
    """Per-trajectory outcomes plus the normalized final-position histogram."""

    final_positions: np.ndarray
    histogram: DensityField
    crossings: np.ndarray
    checkpoints: list[tuple[float, np.ndarray]]
    paths: np.ndarray | None
    path_times: np.ndarray | None
    metadata: dict


def _run_chunk(stream_ids, master_seed, sampler, grid: Grid, params: GuidanceParams, dt: float,
               t0: float, segments, checkpoint_steps=(), record_stride=None, stop=None):
    """Advance one chunk through ``segments`` of (steps, drift, basin map or
    None).  With a ``stop`` predicate, a walker that meets it at the start or
    after some step retires from the batch, and later observations keep it at
    its hit position.  Returns positions, crossings, {checkpoint step:
    positions}, paths and each walker's hit step (-1 if none)."""
    ids = np.asarray(stream_ids)
    rngs = [substream(master_seed, sid) for sid in ids]
    positions = grid.fold(sampler.sample(rngs))   # the kernel takes in-box points
    m = len(ids)
    sigma = np.sqrt(2.0 * params.lam * dt)
    crossings = np.zeros(m, dtype=np.int64)
    basin_prev = np.full(m, -1, dtype=np.int64)
    side = None if stop is None else stop.initial_side(positions)
    total = sum(steps for steps, _, _ in segments)
    buf = np.empty((m, max(1, min(total, _NOISE_VALUES // (m * grid.dims))), grid.dims))
    noise = buf[:, :0]   # the unused steps of the current noise block
    rows = np.arange(m)   # the chunk row of each walker still in the batch
    hit_steps = np.full(m, -1, dtype=np.int64)
    final, crossed = np.empty_like(positions), np.empty_like(crossings)

    def retire(hit, step):
        nonlocal rngs, rows, positions, side, crossings, basin_prev, noise
        out = rows[hit]
        hit_steps[out], final[out], crossed[out] = step, positions[hit], crossings[hit]
        rngs = [r for r, h in zip(rngs, hit) if not h]
        rows, positions, side, crossings, basin_prev, noise = (
            a[~hit] for a in (rows, positions, side, crossings, basin_prev, noise))

    captured = {}
    path_rows = []

    def observe(step):
        checkpoint = step in checkpoint_steps
        recorded = bool(record_stride) and step % record_stride == 0
        if checkpoint or recorded:
            snap = positions.copy()
            if rows.size < m:   # retired walkers stay at their hit positions
                snap = final.copy()
                snap[rows] = positions
            if checkpoint:
                captured[step] = snap
            if recorded:
                path_rows.append(snap)

    step = 0
    if stop is not None:
        retire(stop.hit(positions, side), step)
    observe(step)
    for steps, drift, bmap in segments:
        if bmap is not None:
            b = bmap.lookup(positions, np.empty(rows.size, np.int64))
            np.copyto(basin_prev, b, where=b >= 0)
        seg_end = step + steps
        while step < seg_end:
            if not noise.shape[1]:
                # Each stream's draws continue where its previous fill stopped,
                # so the block sizes, growing with the steps taken, change nothing.
                noise = buf[: rows.size, : min(buf.shape[1], total - step, max(_FIRST_BLOCK, step))]
                for r, row in zip(rngs, noise):
                    r.standard_normal(out=row)
            # Advance to the next event (block end, segment end, checkpoint or
            # recorded row), or less if some walker meets ``stop``.
            nxt = min([seg_end, step + noise.shape[1]] + [c for c in checkpoint_steps if c > step])
            if record_stride:
                nxt = min(nxt, (step // record_stride + 1) * record_stride)
            k, hit = nxt - step, None
            if rows.size:
                positions, _, k, hit = _advance_block(
                    positions, t0 + step * dt, dt, noise[:, :k], drift, grid, sigma,
                    params.drift_cap, ids[rows], bmap, basin_prev, crossings, stop, side)
            step += k
            noise = noise[:, k:]
            if hit is not None:
                retire(hit, step)
            observe(step)

    del buf, noise  # release the noise before stacking the recorded paths
    final[rows], crossed[rows] = positions, crossings
    paths = np.stack(path_rows, axis=1) if path_rows else None
    return final, crossed, captured, paths, hit_steps


def run_ensemble(
    n: int,
    sampler,
    psi_snapshots,
    params: GuidanceParams,
    dt_L: float,
    t_final: float,
    master_seed: int = 0,
    node_threshold: float | None = None,
    checkpoint_times=(),
    record_stride: int | None = None,
) -> EnsembleResult:
    """Run ``n`` independent trajectories with stream ids 0..n-1.

    The walkers start at the earliest snapshot's time.  The final-position
    histogram is normalized on the field grid.  ``checkpoint_times`` capture
    full position snapshots at step-aligned times; ``record_stride`` keeps
    every k-th step of every trajectory (memory permitting).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dt_L <= 0:
        raise ValueError("dt_L must be positive")
    if record_stride is not None and record_stride < 0:
        raise ValueError(f"record_stride must be >= 0, got {record_stride}")
    snaps = [psi_snapshots] if isinstance(psi_snapshots, WaveField) else list(psi_snapshots)
    t0 = min(s.time for s in snaps)   # ValueError without snapshots
    grid = snaps[0].grid
    if t_final < t0:
        raise ValueError(f"t_final={t_final} precedes the first snapshot time {t0}")
    checkpoint_steps = []
    for tc in checkpoint_times:
        if not t0 <= tc <= t_final:
            raise ValueError(f"checkpoint time {tc} outside [{t0}, {t_final}]")
        checkpoint_steps.append(step_count(t0, tc, dt_L))
    # Each segment's drift interpolant and basin map serve every chunk.
    segments = [(steps, _Interpolant(grid, drift_field(psi, params)),
                 None if node_threshold is None else NodeBasinMap.from_wavefield(psi, node_threshold))
                for psi, steps in step_plan(snaps, t0, t_final, dt_L)]

    results = [
        _run_chunk(range(a, min(a + _CHUNK, n)), master_seed, sampler, grid, params, dt_L,
                   t0, segments, set(checkpoint_steps), record_stride)
        for a in range(0, n, _CHUNK)
    ]

    final_positions = np.concatenate([r[0] for r in results])
    crossings = np.concatenate([r[1] for r in results])
    checkpoints = [
        (tc, np.concatenate([r[2][k] for r in results]))
        for tc, k in zip(checkpoint_times, checkpoint_steps)
    ]
    paths = None
    path_times = None
    if record_stride:
        paths = np.concatenate([r[3] for r in results])
        path_times = t0 + dt_L * record_stride * np.arange(paths.shape[1])

    from .analysis import histogram as _histogram

    hist = _histogram(final_positions, grid)
    metadata = {
        "n": n,
        "lam": params.lam,
        "epsilon": params.epsilon,
        "dt_L": dt_L,
        "t_final": t_final,
        "steps": sum(steps for steps, _, _ in segments),
        "master_seed": master_seed,
    }
    return EnsembleResult(
        final_positions=final_positions,
        histogram=hist,
        crossings=crossings,
        checkpoints=checkpoints,
        paths=paths,
        path_times=path_times,
        metadata=metadata,
    )


def run_first_passage_ensemble(
    n: int,
    x0,
    psi: WaveField,
    params: GuidanceParams,
    dt_L: float,
    stop,
    t_max: float,
    master_seed: int = 0,
    t0: float = 0.0,
) -> list[FirstPassage]:
    """First-passage times of ``n`` walkers (stream ids 0..n-1) started at
    ``x0`` on a static field.

    A walker's time is ``t0 + k dt_L`` for the first step k after which the
    ``stop`` predicate holds (``t0`` if it holds at the start), censored at
    ``t_max``.  A walker leaves its chunk's batch when it hits; the others
    keep the rest of their noise block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dt_L <= 0:
        raise ValueError("dt_L must be positive")
    if t_max < t0:
        raise ValueError(f"t_max={t_max} precedes the start time t0={t0}")
    max_steps = int(np.ceil((t_max - t0) / dt_L - 1e-12))
    segments = [(max_steps, _Interpolant(psi.grid, drift_field(psi, params)), None)]
    out = []
    for a in range(0, n, _CHUNK):
        ids = range(a, min(a + _CHUNK, n))
        hits = _run_chunk(ids, master_seed, PointSampler(x0), psi.grid, params, dt_L, t0, segments,
                          stop=stop)[4]
        out += [FirstPassage(sid, float(t0 + k * dt_L), False) if k >= 0
                else FirstPassage(sid, t_max, True) for sid, k in zip(ids, hits)]
    return out
