"""Euler-Maruyama integration of the guided walker, single and ensemble.

The walker obeys  dX = lam * grad ln rho_eps dt + sqrt(2 lam) dW, with the
regularized density rho_eps of ``guidance`` and independent unit white noise
per dimension, discretized as

    X_{s+1} = X_s + drift(X_s, t_s) * dt + sqrt(2 lam dt) * eta_s,

eta_s standard normal per dimension.  Reflecting boundaries fold the proposed
point back into the box, periodic boundaries wrap.

One kernel, ``_advance_block``, takes every step of every entry point: it
interpolates the drift at the in-box positions, caps it, adds the noise,
folds, raises IntegratorFailure on a non-finite step, counts basin-map
crossings and records the path rows it is asked for.  ``Grid.fold`` returns
its own input when every row is in the box, and an in-box row is finite, so
the kernel scans for non-finite values only on steps where the fold moved a
walker.  Positions and noise are kept axis-major (the kernel sees
``(m, dims)`` transposes of ``(dims, m)`` arrays), so every per-axis
operation reads contiguous memory, and the kernel's scalar operands are 0-d
arrays: a step costs a fixed few tens of numpy calls.  One launch,
``_launch``, starts the walkers of both entry points, and one chunk driver,
``_run_chunk``, steps each chunk: it folds the chunk's start points once (a
sampler draws them in one call) and advances the kernel a block of steps at
a time up to the next event: noise-block end, snapshot-segment end,
checkpoint, or the first step at which a walker meets an optional stop
predicate.  A run either observes or stops: walkers retire from the batch
only in a first-passage run (``run_first_passage_ensemble``), which observes
nothing else.  A recorded row ends no block: the driver allocates the chunk's
paths once, and the kernel writes each recorded row into them.  A single
trajectory is an ensemble of one.

Time steps follow ``grids.step_plan``, one segment per governing snapshot,
as in the density solver; checkpoints must lie a ``grids.step_count`` of
steps from the start.  The launch builds each segment's drift interpolant
and basin map (node basins or wells) once, for every chunk.  Node basins are
labelled in numpy, so no walker run needs scipy.

Reproducibility: every trajectory owns a counter-based Philox substream keyed
by (master_seed, stream_id), so results are a pure function of the scenario
and master seed, independent of chunking and of how the noise is blocked.
The key reaches Philox through a minimal seed sequence, so no OS entropy is drawn.
The launch splits the walkers into near-equal chunks of at most ``_CHUNK``
and returns their results in stream order.  It steps the chunks in a pool
of ``fork``ed processes, one per CPU this process may use (or fewer
``workers``), when the run is large enough to repay the pool's start-up cost:
``_POOL_MIN_TRAJ_STEPS`` trajectory-steps (walkers x steps).  The children
inherit the segments' tables through the fork and send back only their
chunk results; results are read in chunk order, so a failing run raises the
failure of its lowest failing chunk, as a serial run does, and a process
that dies raises ``BrokenProcessPool``.  Where ``fork`` is not available,
every run steps serially.  Processes, not threads:
per-step numpy dispatch holds the GIL, and two threads measured 0.64-0.69x
the speed of one.  Smaller runs step their chunks one after the other in
the calling process, and so does every first-passage run, which asks for
one process: its walkers retire as they hit, so its time is the tail of the
last ones, and a pool of two did not shorten it (the b = 3 escape campaign,
220 walkers and 1.19e8 budgeted trajectory-steps, took 13.2-15.9 s
in-process and 12.7-18.6 s pooled, three runs each, with identical times).

Noise budget: a chunk of m trajectories in d dimensions draws its noise into
one step-major, axis-major buffer ``(B, d, m)`` of at most ``_NOISE_VALUES``
doubles (8 MiB), so a step reads one contiguous row.  Blocks, refilled when
used up wherever that falls, start at ``_FIRST_BLOCK`` steps and grow with
the steps taken, up to B, so that walkers which retire early do not draw a
whole budget.  Streams draw into tiles of at most ``_TILE`` doubles, covering
at most ``_TILE_STEPS`` steps and as many walkers as then fit, each stored
transposed and times sigma while in cache (sigma * eta is the same product
wherever it is formed): the stored runs span at least 32 walkers (16 in 2-d)
where the batch has them, and a stream draws a block longer than a tile in
several calls.  A stream's draws concatenate bit-exactly across calls, so
block and tile sizes never change a result; they trade memory against
per-call generator overhead.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .grids import DensityField, Grid, WaveField, _check_dt, _Interpolant, step_count, step_plan
from .guidance import GuidanceParams, _cap_vectors, drift_field

_CHUNK = 4096           # trajectories per chunk (bounds memory; results do not depend on it)
# The break-even of a fork pool.  It costs 9-14 ms to start, and a forked
# child's peak RSS starts from its parent's: at 6e6 trajectory-steps a pool
# saved at most 0.1 s and raised the peak RSS of parent and child by 14 %.
_POOL_MIN_TRAJ_STEPS = 10**7     # trajectory-steps (walkers x steps) of a run
_NOISE_VALUES = 2**20   # doubles in a chunk's noise buffer (8 MiB)
_FIRST_BLOCK = 1024     # steps in a chunk's first noise block
_TILE = 2**14           # doubles in a noise tile (128 KiB, cache-sized)
_TILE_STEPS = 512       # steps in a noise tile at most, so that its rows are wide


class IntegratorFailure(RuntimeError):
    """Non-finite proposal, typically a drift blowup without a cap."""

    def __init__(self, position, time, stream_id=None):
        self.position = np.asarray(position)
        self.time = time
        self.stream_id = stream_id
        where = f" (stream {stream_id})" if stream_id is not None else ""
        super().__init__(f"non-finite step at x={self.position}, t={time}{where}")

    def __reduce__(self):
        return type(self), (self.position, self.time, self.stream_id)


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
# crossing diagnostics

class NodeBasinMap:
    """Grid cells labelled by numbered node basins or wells, -1 between them.

    ``from_wavefield``'s node cells, ``|Psi|^2 < threshold * max|Psi|^2``, get
    -1, and the connected components of the others are basins.  A trajectory
    records a crossing at each step that ends in a region other than its last
    one; -1 cells keep the last.
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
        rho = np.abs(psi.values) ** 2
        return cls(psi.grid, _label_basins(rho >= threshold * rho.max(), psi.grid.boundary))

    def basins_at(self, x) -> np.ndarray:
        idx = self.grid.cell_index(np.atleast_2d(x))
        return self.labels[tuple(idx[:, k] for k in range(self.grid.dims))]

    def lookup(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``basins_at`` of in-box points into ``out``: the cell quotient of
        ``Grid.cell_index``, read from the padded table without modulo."""
        for k, lo, dx, half, stride in self._axes:
            q = x[:, k] - lo
            q /= dx
            q += half   # in-box quotients are >= 0, where truncation is the floor
            term = q.astype(np.int64)
            if stride > 1:
                term *= stride
            flat = term if k == 0 else flat + term
        return self.table.take(flat, out=out)


def _label_basins(open_cells: np.ndarray, boundary) -> np.ndarray:
    """Basin number of each open cell, -1 at the others: the components of
    open cells joined through shared faces, a periodic axis's wrap faces
    included, numbered in the order of their first cell in C order.

    Each open face pair hooks the larger of its two roots onto the smaller,
    and pointer jumping then points every cell at its root, until both cells
    of every pair share one: the smallest flat index of their component."""
    cells = np.arange(open_cells.size).reshape(open_cells.shape)
    heads, tails = [], []
    for axis, wall in enumerate(boundary):
        head, tail = cells, np.roll(cells, -1, axis=axis)
        if wall != "periodic":
            head, tail = (np.delete(a, -1, axis=axis) for a in (head, tail))
        heads.append(head.ravel())
        tails.append(tail.ravel())
    is_open = open_cells.ravel()
    head, tail = np.concatenate(heads), np.concatenate(tails)
    both = is_open[head] & is_open[tail]
    head, tail = head[both], tail[both]
    root = np.arange(open_cells.size)
    while not np.array_equal(a := root[head], b := root[tail]):
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    labels = np.full(open_cells.size, -1, dtype=np.int64)
    labels[is_open] = np.unique(root[is_open], return_inverse=True)[1]
    return labels.reshape(open_cells.shape)


# --------------------------------------------------------------------------
# stop predicates for first-passage runs

@dataclass(frozen=True)
class PlaneCrossing:
    """Stop when the trajectory reaches or crosses the plane x[0] = at."""

    at: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.at):   # a NaN plane would censor every walker
            raise ValueError(f"the plane at={self.at} must be finite")

    def initial_side(self, x0) -> np.ndarray:
        return np.sign(np.atleast_2d(x0)[:, 0] - self.at)

    def hit(self, x, side) -> np.ndarray:
        if not (type(x) is np.ndarray and x.ndim == 2):
            x = np.atleast_2d(x)
        gap = x[:, 0] - self._at
        gap *= side
        return gap <= 0

    @functools.cached_property
    def _at(self) -> np.ndarray:
        return np.array(float(self.at))   # a 0-d operand costs less per call than a float


@dataclass(frozen=True)
class RegionEntry:
    """Stop when the trajectory enters the axis-aligned box [lower, upper],
    one bound per grid axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def initial_side(self, x0) -> np.ndarray:
        return np.zeros(np.atleast_2d(x0).shape[0])

    def hit(self, x, side) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.all((x >= self._box[0]) & (x <= self._box[1]), axis=1)

    @functools.cached_property
    def _box(self) -> np.ndarray:
        return np.array([self.lower, self.upper], dtype=float)   # built once, not per step


@dataclass(frozen=True)
class FirstPassage:
    stream_id: int
    time: float
    censored: bool


# --------------------------------------------------------------------------
# the stepping kernel

def _advance_block(positions, t0, step, dt, noise, drift, grid, cap, stream_ids,
                   basin_map=None, basin_prev=None, crossings=None, stop=None, side=None,
                   record=None):
    """Advance in-box positions, ``step`` steps of ``dt`` past ``t0``, through
    up to len(noise) Euler-Maruyama steps.

    ``noise`` is step-major, ``(steps, m, dims)``, and already scaled by sigma.
    ``drift`` maps in-box positions to new drift arrays.  A non-finite proposal
    at step k of the run raises IntegratorFailure at ``t0 + k * dt``, and with
    a ``stop`` predicate the block ends after the first step at which some
    walker hits.  With a basin map, each step counts into ``crossings`` the
    walkers whose basin differs from their last one, ``basin_prev``, which node
    cells (-1) keep.  ``record``, a ``(paths, stride)`` pair, writes the
    positions after each step k of the run that is a multiple of ``stride``
    into ``paths[:, k // stride]``, ``paths`` being ``(m, rows, dims)``.
    Returns ``(positions, steps, hit)``, ``hit`` marking the walkers that
    stopped (None when the block ran out)."""
    m = noise.shape[1]
    dt_array = np.array(dt)   # a 0-d operand costs less per call than a float
    paths, stride = record if record is not None else (None, 0)
    nxt = stride - step % stride if stride else 0   # the block step of the next row
    if basin_map is not None:
        basins = np.empty(m, np.int64)
    for s, eta in enumerate(noise):
        v = _cap_vectors(drift(positions), cap)
        v *= dt_array
        v += eta
        v += positions
        # ``fold`` returns its input when every row is in the box, hence finite.
        if (positions := grid.fold(v)) is not v:
            with np.errstate(over="ignore", invalid="ignore"):   # finite rows may overflow the sum
                finite = np.isfinite(v.sum())
            if not finite and (bad := np.flatnonzero(~np.isfinite(v).all(axis=1))).size:
                raise IntegratorFailure(v[bad[0]], t0 + (step + s + 1) * dt, stream_ids[bad[0]])
        if basin_map is not None:
            basin_map.lookup(positions, basins)
            if np.count_nonzero(changed := basins != basin_prev):   # most steps change no label
                crossings += changed & (basins >= 0) & (basin_prev >= 0)
                np.copyto(basin_prev, basins, where=basins >= 0)
        if s + 1 == nxt:
            paths[:, (step + nxt) // stride] = positions
            nxt += stride
        if stop is not None:
            hit = stop.hit(positions, side)
            if np.count_nonzero(hit):
                return positions, s + 1, hit
    return positions, len(noise), None


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
    None).  A run observes or stops, never both: a ``stop`` predicate comes
    without basin maps, checkpoints or ``record_stride``, and a walker that
    meets it at the start or after some step retires from the batch.  Returns
    final positions (a retired walker's at its hit), crossings, {checkpoint
    step: positions}, paths and each walker's hit step (-1 if none)."""
    ids = np.asarray(stream_ids)
    rngs = [substream(master_seed, sid) for sid in ids]
    positions = grid.fold(sampler.sample(rngs))   # the kernel takes in-box points
    m, dims = len(ids), grid.dims
    sigma = np.sqrt(2.0 * params.lam * dt)
    crossings = np.zeros(m, dtype=np.int64)
    basin_prev = np.full(m, -1, dtype=np.int64)
    side = None if stop is None else stop.initial_side(positions)
    total = sum(steps for steps, _, _ in segments)
    # Noise rows are axis-major, (dims, m), so that every per-axis operation
    # of the kernel reads contiguous memory; the kernel sees (m, dims) views.
    buf = np.empty((max(1, min(total, _NOISE_VALUES // (m * dims))), dims, m))
    noise = buf[:0]   # the unused steps of the current noise block
    rows = np.arange(m)   # the chunk row of each walker still in the batch
    hit_steps = np.full(m, -1, dtype=np.int64)
    final = np.empty_like(positions)

    def retire(hit, step):
        nonlocal rngs, rows, positions, side, noise
        out = rows[hit]
        hit_steps[out], final[out] = step, positions[hit]
        rngs = [r for r, h in zip(rngs, hit) if not h]
        rows, positions, side = (a[~hit] for a in (rows, positions, side))
        noise = noise.compress(~hit, axis=2)   # 2x faster than boolean indexing here

    step = 0
    if stop is not None and np.count_nonzero(hit := stop.hit(positions, side)):
        retire(hit, step)
    paths = record = None
    if record_stride:   # the start row, then the kernel's rows
        paths = np.empty((m, 1 + total // record_stride, dims))
        paths[:, 0] = positions
        record = (paths, record_stride)
    captured = {0: positions.copy()} if 0 in checkpoint_steps else {}
    for steps, drift, bmap in segments:
        if bmap is not None:
            b = bmap.lookup(positions, np.empty(m, np.int64))
            np.copyto(basin_prev, b, where=b >= 0)
        seg_end = step + steps
        while step < seg_end:
            if not len(noise):
                noise = buf[: min(len(buf), total - step, max(_FIRST_BLOCK, step)), :, : rows.size]
                _fill(noise, rngs, sigma)
            # Advance to the next event (block end, segment end or checkpoint),
            # or less if some walker meets ``stop``.
            nxt = min([seg_end, step + len(noise)] + [c for c in checkpoint_steps if c > step])
            k, hit = nxt - step, None
            if rows.size:
                positions, k, hit = _advance_block(
                    positions, t0, step, dt, noise[:k].transpose(0, 2, 1), drift, grid,
                    params.drift_cap, ids[rows], bmap, basin_prev, crossings, stop, side, record)
            step += k
            noise = noise[k:]
            if hit is not None:
                retire(hit, step)
            if step in checkpoint_steps:
                captured[step] = positions.copy()

    final[rows] = positions
    return final, crossings, captured, paths, hit_steps


def _chunks(n: int, workers: int) -> list[range]:
    """Stream ids 0..n-1 in near-equal ranges, none empty and none above
    ``_CHUNK``: a multiple of ``workers`` of them where n allows, so that the
    workers get equal shares."""
    count = min(n, workers * -(-n // (_CHUNK * workers)))
    return [range(n * i // count, n * (i + 1) // count) for i in range(count)]


def _cpus() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(n: int, steps: int, workers: int | None) -> int:
    """Processes that step ``n`` walkers through ``steps`` steps: ``workers``
    (None: every CPU this process may use) capped at those CPUs and at n;
    1 below ``_POOL_MIN_TRAJ_STEPS`` or where ``fork`` is not available."""
    if n * steps < _POOL_MIN_TRAJ_STEPS:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = _cpus()
    return min(workers or cpus, cpus, n)


_pool_job = None   # the chunk runner of a pool process, set there by ``_adopt``


def _adopt(job):
    global _pool_job
    _pool_job = job


def _pool_chunk(ids):
    return _pool_job(ids)


def _fill(noise, rngs, sigma):
    """Fill an axis-major noise block ``(steps, dims, walkers)`` with each
    walker's next draws times sigma, a tile of walkers by steps at a time.

    Each stream's draws continue where its previous fill stopped, so block and
    tile sizes change nothing.
    """
    steps, dims, m = noise.shape
    w = max(1, _TILE // (min(steps, _TILE_STEPS) * dims))   # walkers per tile
    b = min(steps, max(1, _TILE // (w * dims)))              # steps per tile
    tile = np.empty((min(w, m), b, dims))
    for a in range(0, m, w):
        for s in range(0, steps, b):
            part = tile[: min(w, m - a), : min(b, steps - s)]
            for r, row in zip(rngs[a : a + w], part):
                r.standard_normal(out=row)
            np.multiply(part.transpose(1, 2, 0), sigma, out=noise[s : s + b, :, a : a + w])


def _launch(n, sampler, grid: Grid, plan, params: GuidanceParams, dt: float, t0: float,
            master_seed: int, workers: int | None, basins=None, **observe) -> list:
    """Step ``n`` walkers (stream ids 0..n-1) from ``sampler``'s start at ``t0``
    through ``plan``, ``[(snapshot, steps)]``, in at most ``workers`` processes,
    and return the chunks' ``_run_chunk`` results in stream order.  A point
    start is checked against the grid before any drift table is built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(sampler, PointSampler) and sampler.x.size != grid.dims:
        raise ValueError(f"the start point has {sampler.x.size} coordinates, but the grid has "
                         f"dims={grid.dims}")
    segments = [(steps, _Interpolant(grid, drift_field(psi, params)),
                 None if basins is None else basins(psi)) for psi, steps in plan]
    workers = _pool_size(n, sum(steps for _, steps in plan), workers)
    job = functools.partial(_run_chunk, master_seed=master_seed, sampler=sampler, grid=grid,
                            params=params, dt=dt, t0=t0, segments=segments, **observe)
    if workers == 1:
        return [job(ids) for ids in _chunks(n, workers)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # The children inherit ``job`` through the fork, and only results come
    # back pickled.  Read in chunk order, they raise the lowest failing
    # chunk's IntegratorFailure, as a serial run does; a child that dies
    # raises BrokenProcessPool.  Leaving the block joins the processes.
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _adopt, (job,)) as pool:
        return list(pool.map(_pool_chunk, _chunks(n, workers)))


def run_ensemble(
    n: int,
    sampler,
    psi_snapshots,
    params: GuidanceParams,
    dt_L: float,
    t_final: float,
    master_seed: int = 0,
    basins=None,
    checkpoint_times=(),
    record_stride: int | None = None,
    workers: int | None = None,
) -> EnsembleResult:
    """Run ``n`` independent trajectories with stream ids 0..n-1.

    The walkers start at the earliest snapshot's time.  The final-position
    histogram is normalized on the field grid.  ``basins`` maps a snapshot to
    the ``NodeBasinMap`` on which its steps count ``crossings`` (None: none
    counted).  ``checkpoint_times`` capture
    full position snapshots at step-aligned times; ``record_stride`` k keeps
    every k-th step of every trajectory in one ``(n, 1 + steps // k, dims)``
    array of doubles.  ``workers``
    caps the processes that step chunks (None: every CPU this process may
    use); a run below the pool's break-even steps in this process.  No
    worker count changes a result.
    """
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
    plan = step_plan(snaps, t0, t_final, dt_L)
    results = _launch(n, sampler, grid, plan, params, dt_L, t0, master_seed, workers,
                      basins, checkpoint_steps=set(checkpoint_steps),
                      record_stride=record_stride)

    final_positions = np.concatenate([r[0] for r in results])
    crossings = np.concatenate([r[1] for r in results])
    checkpoints = [
        (tc, np.concatenate([r[2][k] for r in results]))
        for tc, k in zip(checkpoint_times, checkpoint_steps)
    ]
    paths = None
    path_times = None
    if record_stride:
        # One chunk's paths are returned as they are: a copy would double the peak.
        paths = results[0][3] if len(results) == 1 else np.concatenate([r[3] for r in results])
        path_times = t0 + dt_L * record_stride * np.arange(paths.shape[1])

    from .analysis import histogram as _histogram

    hist = _histogram(final_positions, grid)
    metadata = {
        "n": n,
        "lam": params.lam,
        "epsilon": params.epsilon,
        "dt_L": dt_L,
        "t_final": t_final,
        "steps": sum(steps for _, steps in plan),
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
    keep the rest of their noise block.  A ``RegionEntry`` box is checked
    against the grid before any drift table is built.
    """
    _check_dt(dt_L)
    if not t0 <= t_max < np.inf:
        raise ValueError(f"t_max={t_max} must be finite and not precede the start time t0={t0}")
    if isinstance(stop, RegionEntry) and {len(stop.lower), len(stop.upper)} != {psi.grid.dims}:
        raise ValueError(f"the box [{stop.lower}, {stop.upper}] needs one bound per grid axis, "
                         f"dims={psi.grid.dims}")
    max_steps = int(np.ceil((t_max - t0) / dt_L - 1e-12))
    # One process: a pool did not shorten a retiring run (module docstring).
    hits = np.concatenate([r[4] for r in _launch(n, PointSampler(x0), psi.grid, [(psi, max_steps)],
                                                 params, dt_L, t0, master_seed, 1, stop=stop)])
    return [FirstPassage(sid, float(t0 + k * dt_L), False) if k >= 0
            else FirstPassage(sid, t_max, True) for sid, k in enumerate(hits)]
