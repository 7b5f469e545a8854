import functools
import inspect
import itertools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiwalk import (
    DensityField,
    DensitySampler,
    DoubleGaussianParams,
    Grid,
    GuidanceParams,
    HamiltonianSpec,
    IntegratorFailure,
    NodeBasinMap,
    PlaneCrossing,
    PointSampler,
    RegionEntry,
    WaveField,
    drift_field,
    evolve,
    kramers_prediction,
    make_double_gaussian,
    make_packet,
    mfpt_estimate,
    run_ensemble,
    run_first_passage_ensemble,
    substream,
    total_variation,
)
from psiwalk import langevin
from psiwalk.analysis import coarsen
from psiwalk.guidance import regularized_density

from _interpolate import interpolate
from _memory import traced_peak
from _oracles import MFPT_FULL_CROSSING


def gaussian_setup(n=256, half=8.0):
    g = Grid.make(n, (-half, half), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.exp(-x**2 / 2))
    return g, psi


def flat_setup(dims=1, n=64, half=8.0):
    g = Grid.make((n,) * dims, ((-half, half),) * dims, "periodic")
    return g, WaveField(g, np.ones((n,) * dims))


def em_reference(x, rng, grid, drift_of_step, params, dt, steps):
    """Path of one walker under the Euler-Maruyama update, one draw per step,
    from its start point folded into the box.

    ``drift_of_step(s)`` is the drift array on ``grid`` governing step s.
    """
    sigma = np.sqrt(2.0 * params.lam * dt)
    path = [grid.fold(x)[0]]
    for s in range(steps):
        v = interpolate(grid, drift_of_step(s), path[-1])
        if params.drift_cap is not None:
            mag = np.sqrt(np.sum(v**2))
            v = v * (params.drift_cap / mag if mag > params.drift_cap else 1.0)
        step = v * dt + sigma * rng.standard_normal(grid.dims)
        path.append(grid.fold(path[-1] + step)[0])
    return path


def node_basins(threshold):
    """The ``basins`` argument that labels each snapshot's node basins."""
    return lambda psi: NodeBasinMap.from_wavefield(psi, threshold)


class SnapshotReference:
    """Drift array and basin map (``basins`` of the snapshot) of each snapshot,
    and the snapshot governing a time looked up on its own: the latest
    snapshot at or before it (1e-12 slack), or the first."""

    def __init__(self, snapshots, params, basins=None):
        self.snapshots = sorted(snapshots, key=lambda s: s.time)
        self.grid = self.snapshots[0].grid
        self.times = np.array([s.time for s in self.snapshots])
        self.drifts = [drift_field(s, params) for s in self.snapshots]
        self._basin_of = basins
        self._basins = {}

    def segment_index(self, t):
        i = int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)
        return min(max(i, 0), len(self.snapshots) - 1)

    def basins(self, i):
        if i not in self._basins:
            self._basins[i] = self._basin_of(self.snapshots[i])
        return self._basins[i]


# -- streams and determinism -------------------------------------------------

def test_substreams_are_reproducible_and_distinct():
    a = substream(123, 5).standard_normal(8)
    b = substream(123, 5).standard_normal(8)
    c = substream(123, 6).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def _same_state(a, b):
    """Equal Philox states: key, counter, buffer and the cached draws."""
    sa, sb = ({**r.bit_generator.state, **r.bit_generator.state["state"]} for r in (a, b))
    return sa.keys() == sb.keys() and all(
        np.array_equal(sa[k], sb[k]) for k in sa if k != "state")


@pytest.mark.parametrize("seed,sid", [(1, 5), (0, 0), (715, 4095), (2**63 + 7, 123456),
                                      (2**64 - 1, 2**64 - 1), (-3, 17), (-1, 2**64 - 1)])
def test_substream_is_philox_keyed_by_seed_and_stream_id(seed, sid):
    # the key as one 128-bit integer: master seed high, stream id low, both mod 2^64
    key = ((seed % 2**64) << 64) | (sid % 2**64)
    ref, rng = np.random.Generator(np.random.Philox(key=key)), substream(seed, sid)
    assert _same_state(rng, ref)
    assert np.array_equal(rng.standard_normal(1000), ref.standard_normal(1000))
    assert np.array_equal(rng.integers(0, 2**63, 7), ref.integers(0, 2**63, 7))
    assert _same_state(rng, ref)


def test_same_noise_spec_bit_identical_paths():
    g, psi = gaussian_setup()
    params = GuidanceParams(lam=1.0)
    runs = [run_ensemble(1, PointSampler([0.2]), psi, params, 1e-2, 2.0, master_seed=77,
                         record_stride=1) for _ in range(2)]
    assert np.array_equal(runs[0].paths, runs[1].paths)


def test_single_trajectory_matches_reference_stepper():
    g, psi = gaussian_setup()
    params = GuidanceParams(lam=1.0, drift_cap=0.5)
    df = drift_field(psi, params)
    path = em_reference([0.0], substream(7, 0), g, lambda s: df, params, 5e-3, 100)
    res = run_ensemble(1, PointSampler([0.0]), psi, params, 5e-3, 0.5, master_seed=7)
    assert np.array_equal(path[-1], res.final_positions[0])


def test_ensemble_of_one_equals_single_trajectory():
    # stream 0 takes the same path whatever the ensemble size
    g, psi = gaussian_setup()
    params = GuidanceParams(lam=1.0)
    one = run_ensemble(1, PointSampler([0.0]), psi, params, 5e-3, 1.0, master_seed=11)
    three = run_ensemble(3, PointSampler([0.0]), psi, params, 5e-3, 1.0, master_seed=11)
    assert np.array_equal(one.final_positions[0], three.final_positions[0])


def colliding_packets(dims):
    """Snapshots every 0.07 of two packets colliding on a 64-per-axis grid."""
    g = Grid.make((64,) * dims, ((-8.0, 8.0),) * dims, "periodic")
    left = make_packet(g, [-2.0] * dims, 1.0, momentum=[3.0] * dims)
    right = make_packet(g, [2.0] * dims, 1.0, momentum=[-3.0] * dims)
    psi0 = WaveField(g, left.values + right.values)
    return evolve(psi0, HamiltonianSpec(), 0.21, 0.01, snapshot_stride=7)


@pytest.mark.parametrize("dims", [1, 2])
def test_noise_blocks_and_chunks_do_not_change_results(monkeypatch, dims):
    # 13 walkers in chunks of 4, 4 and 5; a noise budget of 3 steps for the
    # chunks of 4 and 2 for the chunk of 5 puts refills inside the 7-step
    # snapshot segments, and checkpoints (steps 5, 11) and recorded rows
    # (every 4th step) split the blocks.  Noise tiles of 6 d doubles hold 2
    # walkers of a 3-step block and 3 of a 2-step block (a partial last tile
    # in the chunk of 5); tiles of d doubles cut every block to one step;
    # tiles of 15 d doubles hold whole chunks.  Every row must equal a
    # per-stream reference that draws once per step.
    snaps = colliding_packets(dims)
    # a large epsilon flattens the node barriers so that 1-d walkers cross them
    params = GuidanceParams(lam=5.0, epsilon=1.0, drift_cap=20.0)
    sampler = DensitySampler(regularized_density(snaps[0], params))
    dt, t_final, seed, n = 0.01, 0.2, 21, 13
    kw = dict(master_seed=seed, basins=node_basins(0.5), checkpoint_times=(0.05, 0.11),
              record_stride=4)
    whole = run_ensemble(n, sampler, snaps, params, dt, t_final, **kw)
    monkeypatch.setattr(langevin, "_CHUNK", 5)
    monkeypatch.setattr(langevin, "_NOISE_VALUES", 12 * dims)
    source = SnapshotReference(snaps, params)
    paths = []
    for sid in range(n):
        rng = substream(seed, sid)
        paths.append(em_reference(sampler.sample([rng])[0], rng, source.grid,
                                  lambda s: source.drifts[source.segment_index(s * dt)], params,
                                  dt, 20))
    for tile in (6, 1, 15):
        monkeypatch.setattr(langevin, "_TILE", tile * dims)
        res = run_ensemble(n, sampler, snaps, params, dt, t_final, **kw)
        for sid, path in enumerate(paths):
            assert np.array_equal(res.checkpoints[0][1][sid], path[5])
            assert np.array_equal(res.checkpoints[1][1][sid], path[11])
            assert np.array_equal(res.paths[sid], np.stack(path[::4]))
            assert np.array_equal(res.final_positions[sid], path[-1])
        assert dims == 2 or res.crossings.sum() > 0
        assert np.array_equal(res.crossings, whole.crossings)
        assert np.array_equal(res.paths, whole.paths)


@pytest.mark.parametrize("noise_values, first_block", [(12, 1024), (400, 2)])
def test_first_passage_noise_blocks_do_not_change_times(monkeypatch, noise_values, first_block):
    # 10 walkers in chunks of 3, 3 and 4, with 4- and 3-step noise blocks or
    # with blocks growing 2, 2, 4, 8, ... up to 133 and 100 steps: walkers
    # retire mid-block; each time must equal a one-draw-per-step reference.
    g = Grid.make(256, (-8.0, 8.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=1.0))
    params = GuidanceParams(lam=1.0)
    stop, dt, t_max, seed = PlaneCrossing(at=0.0), 0.01, 1.0, 5
    monkeypatch.setattr(langevin, "_CHUNK", 4)
    monkeypatch.setattr(langevin, "_NOISE_VALUES", noise_values)
    monkeypatch.setattr(langevin, "_FIRST_BLOCK", first_block)
    results = run_first_passage_ensemble(10, [-1.0], psi, params, dt, stop, t_max,
                                         master_seed=seed)
    df = drift_field(psi, params)
    for sid, fp in enumerate(results):
        path = em_reference([-1.0], substream(seed, sid), g, lambda s: df, params, dt, 100)
        side = stop.initial_side(path[0])
        hits = [k for k in range(1, 101) if stop.hit(path[k], side)[0]]
        expected = 0.0 + hits[0] * dt if hits else None
        assert fp.censored == (expected is None)
        assert fp.time == (t_max if expected is None else expected)
    assert 0 < sum(fp.censored for fp in results) < 10


@pytest.mark.parametrize("n, workers, chunk, sizes", [
    (10_000, 2, 4096, [2500] * 4),
    (8192, 2, 4096, [4096] * 2),
    (10_001, 2, 4096, [2500, 2500, 2500, 2501]),
    (13, 1, 5, [4, 4, 5]),
    (3, 2, 4096, [1, 2]),        # n not divisible by the workers
    (1, 2, 4096, [1]),           # fewer walkers than workers
    (5, 2, 1, [1] * 5),          # fewer walkers than a multiple of the workers
])
def test_chunks_split_walkers_near_equally(monkeypatch, n, workers, chunk, sizes):
    monkeypatch.setattr(langevin, "_CHUNK", chunk)
    chunks = langevin._chunks(n, workers)
    assert [len(ids) for ids in chunks] == sizes
    assert [sid for ids in chunks for sid in ids] == list(range(n))


def test_pool_engages_above_its_break_even_only(monkeypatch):
    monkeypatch.setattr(langevin, "_cpus", lambda: 4)
    traj_steps = langevin._POOL_MIN_TRAJ_STEPS
    size = langevin._pool_size
    assert size(4000, traj_steps, None) == 4          # every usable CPU
    assert size(4000, traj_steps, 3) == 3             # or fewer
    assert size(4000, traj_steps, 8) == 4             # never more
    assert size(3, traj_steps, None) == 3             # nor more than the walkers
    assert size(4000, traj_steps // 4000 - 1, None) == 1   # too short


def test_pool_stays_off_where_fork_is_not_available(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(langevin, "_cpus", lambda: 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert langevin._pool_size(4000, langevin._POOL_MIN_TRAJ_STEPS, None) == 1


def force_pool(monkeypatch):
    """Let every run of two or more walkers use two processes."""
    monkeypatch.setattr(langevin, "_POOL_MIN_TRAJ_STEPS", 0)
    monkeypatch.setattr(langevin, "_cpus", lambda: 2)


@pytest.mark.parametrize("dims", [1, 2])
def test_a_pool_run_equals_a_serial_run_and_leaves_no_process(monkeypatch, dims):
    import multiprocessing

    snaps = colliding_packets(dims)
    params = GuidanceParams(lam=5.0, epsilon=1.0, drift_cap=20.0)
    sampler = DensitySampler(regularized_density(snaps[0], params))
    kw = dict(master_seed=21, basins=node_basins(0.5), checkpoint_times=(0.05, 0.11),
              record_stride=4)
    serial = run_ensemble(13, sampler, snaps, params, 0.01, 0.2, workers=1, **kw)
    force_pool(monkeypatch)
    monkeypatch.setattr(langevin, "_CHUNK", 3)   # 6 chunks on 2 processes
    pooled = run_ensemble(13, sampler, snaps, params, 0.01, 0.2, **kw)
    assert multiprocessing.active_children() == []
    for a, b in [(serial.final_positions, pooled.final_positions),
                 (serial.crossings, pooled.crossings), (serial.paths, pooled.paths),
                 *((x, y) for (_, x), (_, y) in zip(serial.checkpoints, pooled.checkpoints))]:
        assert a.tobytes() == b.tobytes()
    assert serial.histogram.values.tobytes() == pooled.histogram.values.tobytes()
    assert dims == 2 or serial.crossings.sum() > 0


def test_first_passage_steps_in_this_process_however_large(monkeypatch):
    # A retiring run asks the launch for one process: with the pool's
    # break-even at zero and two CPUs, no pool starts and no time moves.
    import concurrent.futures

    g = Grid.make(256, (-8.0, 8.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=1.5))
    args = (40, [-1.5], psi, GuidanceParams(lam=1.0), 0.01, PlaneCrossing(at=1.5), 10.0)
    unpatched = run_first_passage_ensemble(*args, master_seed=3)
    force_pool(monkeypatch)
    monkeypatch.setattr(langevin, "_CHUNK", 8)   # 5 chunks
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor") as pool:
        patched = run_first_passage_ensemble(*args, master_seed=3)
    pool.assert_not_called()
    assert patched == unpatched
    assert 0 < sum(not r.censored for r in patched) < len(patched)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
def test_a_chunk_failing_in_a_pool_process_raises_what_a_serial_run_raises(monkeypatch):
    # Walkers starting at x = 2 overflow on their first step (see
    # test_nonfinite_step_raises_integrator_failure).  In chunks of one walker,
    # several chunks fail, and the lowest one's failure must be raised.
    import multiprocessing

    g = Grid.make(256, (-8.0, 8.0), "reflecting")
    psi = WaveField(g, np.exp(-((g.coords(0) - 4.0) ** 2) / 2))
    params = GuidanceParams(lam=8e304)
    dt, seed, n = 1e3, 5, 8
    sampler = TwoPointSampler(2.0, -4.0)
    failing = np.flatnonzero(sampler.sample([substream(seed, sid) for sid in range(n)])[:, 0] == 2.0)
    assert failing.size >= 2 and failing[0] > 0
    force_pool(monkeypatch)
    monkeypatch.setattr(langevin, "_CHUNK", 1)
    raised = []
    for workers in (1, 2):
        with pytest.raises(IntegratorFailure) as err:
            run_ensemble(n, sampler, psi, params, dt, 5 * dt, master_seed=seed, workers=workers)
        raised.append(err.value)
        assert multiprocessing.active_children() == []
    serial, pooled = raised
    assert serial.stream_id == pooled.stream_id == failing[0]
    assert serial.time == pooled.time
    assert serial.position.tobytes() == pooled.position.tobytes()


def test_a_pool_process_that_dies_raises_rather_than_hangs(monkeypatch):
    # A child killed mid-chunk (say, by the OOM killer) must fail the run, as
    # it would a serial one; the alarm turns a hang into a test failure.
    import multiprocessing
    import os
    import signal
    from concurrent.futures.process import BrokenProcessPool

    def hang(signum, frame):
        raise AssertionError("the pool hung after a process died")

    run_chunk = langevin._run_chunk

    def dying(stream_ids, **kw):
        if stream_ids[0] == 0:
            os._exit(9)
        return run_chunk(stream_ids, **kw)

    g = Grid.make(64, (-8.0, 8.0), "reflecting")
    psi = WaveField(g, np.exp(-(g.coords(0) ** 2) / 2))
    force_pool(monkeypatch)
    monkeypatch.setattr(langevin, "_run_chunk", dying)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            run_ensemble(4, PointSampler([0.0]), psi, GuidanceParams(lam=1.0), 0.01, 0.1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def reference_crossings(path, source, segment_of_step):
    """Node-basin changes along a path, counted step by step: a walker keeps
    its last basin through node cells, and each segment's map re-reads it."""
    count, prev = 0, -1
    for s in range(len(path) - 1):
        bmap = source.basins(segment_of_step(s))
        if s == 0 or segment_of_step(s) != segment_of_step(s - 1):
            b = bmap.basins_at(path[s])[0]
            prev = b if b >= 0 else prev
        b = bmap.basins_at(path[s + 1])[0]
        count += int(b >= 0 and prev >= 0 and b != prev)
        prev = b if b >= 0 else prev
    return count


def standing_waves(dims, boundary):
    """Three snapshots, 0.03 apart, of a shifting standing wave on a 16-point
    grid per axis: about half the cells are node cells between 3 (1-d) or 9
    (2-d) basins."""
    g = Grid.make((16,) * dims, ((-4.0, 4.0),) * dims, boundary)
    snaps = []
    for i in range(3):
        values = np.ones(g.points)
        for axis in g.meshgrid():
            values = values * np.cos(1.5 * axis + 0.4 * i) * np.exp(-axis**2 / 8)
        snaps.append(WaveField(g, values, time=0.03 * i))
    return snaps


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([1, 2]), boundary=st.sampled_from(["periodic", "reflecting"]),
       chunk=st.integers(1, 8), noise_values=st.integers(1, 64), first_block=st.integers(1, 8),
       tile=st.integers(1, 48), seed=st.integers(0, 2**16))
def test_kernel_matches_reference_for_any_chunk_and_noise_budget(
        dims, boundary, chunk, noise_values, first_block, tile, seed):
    # Blocks, tiles and chunks of any size: every result equals the
    # one-draw-per-step reference, crossings included.  A tile holds from one
    # walker to the whole chunk, the last tile of a block may be partial, and
    # first-passage walkers retire inside tiled blocks.
    snaps = standing_waves(dims, boundary)
    params = GuidanceParams(lam=3.0, epsilon=0.05, drift_cap=15.0)
    sampler = DensitySampler(regularized_density(snaps[0], params))
    dt, n, x0, stop = 0.01, 7, [0.3] * dims, PlaneCrossing(at=0.9)
    with mock.patch.multiple(langevin, _CHUNK=chunk, _NOISE_VALUES=noise_values,
                             _FIRST_BLOCK=first_block, _TILE=tile):
        res = run_ensemble(n, sampler, snaps, params, dt, 0.09, master_seed=seed,
                           basins=node_basins(0.1), checkpoint_times=(0.04,), record_stride=3)
        passages = run_first_passage_ensemble(n, x0, snaps[0], params, dt, stop, 0.3,
                                              master_seed=seed)

    source = SnapshotReference(snaps, params, basins=node_basins(0.1))

    def segment(s):
        return source.segment_index(s * dt)

    for sid in range(n):
        rng = substream(seed, sid)
        path = em_reference(sampler.sample([rng])[0], rng, source.grid,
                            lambda s: source.drifts[segment(s)], params, dt, 9)
        assert np.array_equal(res.paths[sid], np.stack(path[::3]))
        assert np.array_equal(res.checkpoints[0][1][sid], path[4])
        assert np.array_equal(res.final_positions[sid], path[-1])
        assert res.crossings[sid] == reference_crossings(path, source, segment)

        path = em_reference(x0, substream(seed, sid), source.grid, lambda s: source.drifts[0],
                            params, dt, 30)
        side = stop.initial_side(path[0])
        hits = [k for k in range(1, 31) if stop.hit(path[k], side)[0]]
        assert passages[sid].censored == (not hits)
        assert passages[sid].time == (hits[0] * dt if hits else 0.3)


def test_kernel_reference_sees_crossings_and_node_cells():
    # the property above exercises crossings and walkers inside node cells
    for dims in (1, 2):
        snaps = standing_waves(dims, "periodic")
        params = GuidanceParams(lam=3.0, epsilon=0.05, drift_cap=15.0)
        res = run_ensemble(20, DensitySampler(regularized_density(snaps[0], params)), snaps,
                           params, 0.01, 0.09, master_seed=3, basins=node_basins(0.1),
                           record_stride=1)
        basins = SnapshotReference(snaps, params, basins=node_basins(0.1)).basins(0)
        assert res.crossings.sum() > 0
        assert (basins.basins_at(res.paths.reshape(-1, dims)) < 0).any()


def test_crossings_compare_carried_labels_of_any_size():
    # 400 one-cell basins, then a map of mostly node cells with labels below
    # 60, then 400 basins again: walkers on the second map's node cells carry
    # labels up to 399 into it, and they must be compared as they are.
    g = Grid.make(400, (0.0, 400.0), "periodic")
    snaps = [WaveField(g, np.ones(400), time=0.1 * i) for i in range(3)]
    params = GuidanceParams(lam=450.0)   # flat field: no drift, 3 cells of noise per step
    cells = np.arange(400)
    few = np.where(cells % 3 == 0, cells % 60, -1)
    maps = [NodeBasinMap(g, m) for m in (cells, few, cells)]

    def basins(psi):   # the ensemble's and the reference's map of each snapshot
        return maps[round(psi.time / 0.1)]

    source = SnapshotReference(snaps, params, basins)
    dt = 0.01
    res = run_ensemble(40, DensitySampler(regularized_density(snaps[0], params)), snaps,
                       params, dt, 0.3, master_seed=4, basins=basins, record_stride=1)
    for sid, path in enumerate(res.paths):
        assert res.crossings[sid] == reference_crossings(
            path, source, lambda s: source.segment_index(s * dt))
    # some walker sits on a node cell at the switch, carrying a label above 127
    at_switch = res.paths[:, 10]
    on_node = maps[1].basins_at(at_switch) < 0
    assert (on_node & (maps[0].basins_at(at_switch) > 127)).any()


@pytest.mark.parametrize("path, jumps", [
    ([-2.0] * 50, 0),
    ([-2.0, 2.0] * 10, 19),
    ([-2.0, 0.0, -2.0, 0.0, 2.0], 1),
    ([0.0, 2.0, 0.0, -2.0, -2.5], 1),
], ids=["single_well", "alternating_every_step", "neutral_gap_not_a_jump", "start_in_the_gap"])
def test_kernel_counts_a_jump_at_each_change_of_well(path, jumps):
    # Wells left of -1 (label 0) and right of 1 (label 1), the gap between
    # (-1): a step into the gap keeps the walker's last well, so only
    # reaching the other well counts.  The noise of each step is the path's
    # increment, under no drift.
    g = Grid.make(80, (-4.0, 4.0), "reflecting")
    x = g.coords(0)
    wells = NodeBasinMap(g, np.where(x <= -1.0, 0, np.where(x >= 1.0, 1, -1)))
    start = np.array([[path[0]]])
    prev = wells.basins_at(start)   # as the chunk driver starts a segment
    crossings = np.zeros(1, dtype=np.int64)
    noise = np.diff(path).reshape(-1, 1, 1)
    end, steps, _ = langevin._advance_block(start, 0.0, 0, 0.01, noise, np.zeros_like, g, None,
                                            [0], wells, prev, crossings)
    assert steps == len(path) - 1 and end[0, 0] == path[-1]
    assert list(crossings) == [jumps]


def test_start_point_off_a_reflecting_wall_starts_from_its_mirror_image():
    # Start points are folded into the box before the first step: a walker
    # started 0.25 beyond a reflecting wall moves exactly like one started
    # 0.25 inside it, and first passage judges the folded start point.
    g = Grid.make(256, (-8.0, 8.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=1.0))
    params = GuidanceParams(lam=1.0)
    outside, mirror = [8.25], [7.75]
    runs = [run_ensemble(5, PointSampler(x), psi, params, 0.01, 0.5, master_seed=2,
                         record_stride=1) for x in (outside, mirror)]
    assert np.array_equal(runs[0].paths, runs[1].paths)
    assert np.all(runs[0].paths[:, 0] == 7.75)
    plane = [run_first_passage_ensemble(6, x, psi, params, 0.01, PlaneCrossing(at=6.0), 2.0,
                                        master_seed=2) for x in (outside, mirror)]
    assert plane[0] == plane[1]
    assert 0 < sum(fp.censored for fp in plane[0]) < 6
    # 8.25 lies outside [7.5, 8.0]; its image 7.75 is inside: a hit at t0
    near_wall = run_first_passage_ensemble(3, outside, psi, params, 0.01,
                                           RegionEntry((7.5,), (8.0,)), 1.0)
    assert all(fp.time == 0.0 and not fp.censored for fp in near_wall)


def test_recorded_rows_do_not_end_kernel_blocks(monkeypatch):
    # A run recording every step calls the kernel once per stretch between
    # events: noise-block ends, snapshot-segment ends and checkpoints.  Three
    # snapshots of 7 steps each, 5-step noise blocks (refilled at steps 5, 10,
    # 15, 20) and a checkpoint at step 11 cut the 21 steps into 8 stretches.
    snaps = colliding_packets(1)
    params = GuidanceParams(lam=5.0, epsilon=1.0, drift_cap=20.0)
    monkeypatch.setattr(langevin, "_NOISE_VALUES", 15)
    monkeypatch.setattr(langevin, "_FIRST_BLOCK", 5)
    with mock.patch.object(langevin, "_advance_block", wraps=langevin._advance_block) as kernel:
        # one process: a pool process's calls would not reach this mock
        res = run_ensemble(3, PointSampler([0.5]), snaps, params, 0.01, 0.21, master_seed=4,
                           checkpoint_times=(0.11,), record_stride=1, workers=1)
    assert res.paths.shape == (3, 22, 1)
    bound = [inspect.signature(langevin._advance_block).bind(*call.args, **call.kwargs)
             for call in kernel.call_args_list]
    assert [b.arguments["noise"].shape[0] for b in bound] == [5, 2, 3, 1, 3, 1, 5, 1]
    # every call writes its rows into the one array the run returns
    assert all(b.arguments["record"][0] is res.paths for b in bound)


def test_a_recorded_run_holds_about_one_copy_of_its_paths(monkeypatch):
    # The chunk allocates its paths once and the kernel writes each row into
    # them, and a single chunk's paths are returned without a copy: keeping
    # per-step rows and stacking them would peak at twice the paths.
    g, psi = flat_setup(dims=2, n=16)
    params = GuidanceParams(lam=1.0)
    monkeypatch.setattr(langevin, "_NOISE_VALUES", 2**12)   # 32 steps of noise
    run = functools.partial(run_ensemble, psi_snapshots=psi, params=params, dt_L=0.001,
                            record_stride=1, workers=1)
    run(2, PointSampler([0.0, 0.0]), t_final=0.01)   # lazy set-up outside the trace
    res, peak = traced_peak(run, 64, PointSampler([0.0, 0.0]), t_final=2.0)
    assert res.paths.shape == (64, 2001, 2)
    assert peak <= 1.25 * res.paths.nbytes, peak / res.paths.nbytes


@pytest.mark.parametrize("dims", [1, 2])
def test_start_point_of_the_wrong_length_is_refused_before_any_drift_table(dims):
    # A start point needs one coordinate per grid axis, a run at least one
    # walker and a pool at least one process; both entry points say so
    # before they build a drift table.
    g, psi = flat_setup(dims=dims, n=16)
    params = GuidanceParams(lam=1.0)
    right, wrong = [0.0] * dims, [0.0] * (3 - dims)   # 2 coordinates on a 1-d grid, 1 on 2-d
    message = f"has {3 - dims} coordinates, but the grid has dims={dims}"
    with mock.patch.object(langevin, "drift_field") as drift:
        with pytest.raises(ValueError, match=message):
            run_ensemble(2, PointSampler(wrong), psi, params, 0.01, 0.1)
        with pytest.raises(ValueError, match=message):
            run_first_passage_ensemble(2, wrong, psi, params, 0.01, PlaneCrossing(at=1.0), 0.1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            run_ensemble(0, PointSampler(right), psi, params, 0.01, 0.1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            run_first_passage_ensemble(0, right, psi, params, 0.01, PlaneCrossing(at=1.0), 0.1)
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_ensemble(2, PointSampler(right), psi, params, 0.01, 0.1, workers=0)
    assert drift.call_count == 0


def test_coordinate_sum_overflow_is_not_a_failure():
    # every walker is finite near 1.5e308, but their coordinate sum is not
    g = Grid.make(8, (1.4e308, 1.6e308), "reflecting")
    psi = WaveField(g, np.ones(8))
    with np.errstate(over="ignore"):
        res = run_ensemble(3, PointSampler([1.5e308]), psi, GuidanceParams(lam=0.0), 0.1, 0.5)
    assert np.all(res.final_positions == 1.5e308)


# -- single-step contracts ----------------------------------------------------

def test_zero_drift_zero_lambda_keeps_position():
    g, psi = flat_setup()
    params = GuidanceParams(lam=0.0)
    res = run_ensemble(1, PointSampler([0.37]), psi, params, 1e-2, 1e-2, master_seed=1,
                       record_stride=1)
    assert res.final_positions[0, 0] == 0.37
    assert res.path_times[-1] == pytest.approx(1e-2)


def test_constant_drift_deterministic_limit():
    g, _ = flat_setup()
    positions, steps, hit = langevin._advance_block(
        np.array([[0.25]]), 0.0, 0, 0.25, np.zeros((1, 1, 1)), lambda x: np.full_like(x, 2.0),
        g, None, [0],
    )
    assert positions[0, 0] == 0.25 + 2.0 * 0.25
    assert (steps, hit) == (1, None)


@pytest.mark.parametrize("step, bad", [(0, 7), (5, 2)])
def test_kernel_failure_time_is_t0_plus_step_times_dt(step, bad):
    # step 8 of a run fails at exactly 8 * 0.1, whatever block it falls in;
    # adding dt eight times gives 0.7999999999999999
    g, _ = flat_setup()
    noise = np.zeros((10, 2, 1))
    noise[bad, 1] = np.inf
    with pytest.raises(IntegratorFailure) as err:
        langevin._advance_block(np.zeros((2, 1)), 0.0, step, 0.1, noise, np.zeros_like, g,
                                None, [3, 4])
    assert err.value.time == 8 * 0.1
    assert err.value.stream_id == 4


def test_integrator_failure_survives_pickling():
    err = pickle.loads(pickle.dumps(IntegratorFailure([1.0, np.inf], 0.5, 3)))
    assert isinstance(err, IntegratorFailure)
    assert np.array_equal(err.position, [1.0, np.inf])
    assert (err.time, err.stream_id) == (0.5, 3)
    assert str(err) == "non-finite step at x=[ 1. inf], t=0.5 (stream 3)"


def test_entry_points_reject_nonpositive_dt():
    g, psi = flat_setup()
    params = GuidanceParams(lam=1.0)
    for dt in (0.0, -1e-2):
        with pytest.raises(ValueError):
            run_ensemble(1, PointSampler([0.0]), psi, params, dt, 1.0)
        with pytest.raises(ValueError):
            run_first_passage_ensemble(1, [0.0], psi, params, dt, PlaneCrossing(at=1.0), 1.0)


def test_negative_record_stride_rejected_without_hanging():
    # a negative stride would put the next recorded row behind the current
    # step, so the next-event loop would never end: it must be refused
    import signal

    def timeout(signum, frame):
        raise TimeoutError("run_ensemble did not return")

    g, psi = flat_setup()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        with pytest.raises(ValueError, match="record_stride"):
            run_ensemble(2, PointSampler([0.0]), psi, GuidanceParams(lam=1.0), 1e-2, 0.1,
                         record_stride=-1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TwoPointSampler:
    """Starts a walker at ``a`` or ``b`` with one uniform draw."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def sample(self, rngs):
        return np.array([[self.a if rng.random() < 0.5 else self.b] for rng in rngs])


# the step overflows on purpose, and inf - inf is NaN; ``fold`` must raise no
# warning of its own (``inf % span``) before the kernel reports the failure
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
def test_nonfinite_step_raises_integrator_failure():
    # lam * dt_L = 8e307 keeps the noise scale finite, but where the drift is
    # lam * 4 (at x = 2 on |psi|^2 = exp(-(x - 4)^2)) the step overflows; at
    # x = -4 the regularizer floor flattens the drift and the step is finite.
    # Both wall kinds fold the infinite proposal.
    for boundary in ("reflecting", "periodic"):
        g = Grid.make(256, (-8.0, 8.0), boundary)
        psi = WaveField(g, np.exp(-((g.coords(0) - 4.0) ** 2) / 2))
        params = GuidanceParams(lam=8e304)
        dt, seed = 1e3, 5
        sampler = TwoPointSampler(2.0, -4.0)
        starts = list(sampler.sample([substream(seed, sid) for sid in range(6)])[:, 0])
        first_bad = starts.index(2.0)
        assert first_bad > 0
        with pytest.raises(IntegratorFailure) as err:
            run_ensemble(6, sampler, psi, params, dt, 5 * dt, master_seed=seed)
        assert err.value.stream_id == first_bad
        assert err.value.time == pytest.approx(dt)
        assert err.value.position[0] == np.inf
        # first passage: every walker starts at x = 2, so the first row fails
        with pytest.raises(IntegratorFailure) as err:
            run_first_passage_ensemble(4, [2.0], psi, params, dt, PlaneCrossing(at=7.0),
                                       0.5 + 5 * dt, master_seed=seed, t0=0.5)
        assert err.value.stream_id == 0
        assert err.value.time == pytest.approx(0.5 + dt)
        # With dt_L ten times larger the noise scale overflows too: stream 0
        # draws a negative first normal, so its proposal is inf - inf, NaN,
        # while the walkers beside it propose +inf or -inf.
        assert substream(seed, 0).standard_normal() < 0
        with pytest.raises(IntegratorFailure) as err:
            run_first_passage_ensemble(4, [2.0], psi, params, 10 * dt, PlaneCrossing(at=7.0),
                                       50 * dt, master_seed=seed)
        assert err.value.stream_id == 0
        assert np.isnan(err.value.position[0])
        assert err.value.time == pytest.approx(10 * dt)


def test_noise_moments_match_discretization():
    # increments of a drift-free walk: mean 0, var 2*lam*dt per dim,
    # no cross-dim covariance, no lag-1 autocovariance
    g, psi = flat_setup(dims=2, n=16)
    lam, dt = 1.5, 4e-3
    params = GuidanceParams(lam=lam)
    path = run_ensemble(1, PointSampler([0.0, 0.0]), psi, params, dt, 100_000 * dt,
                        master_seed=99, record_stride=1).paths[0]
    # unwrap periodic jumps before differencing
    span = 16.0
    inc = np.diff(path, axis=0)
    inc = np.where(inc > span / 2, inc - span, inc)
    inc = np.where(inc < -span / 2, inc + span, inc)
    n = inc.shape[0]
    target = 2 * lam * dt
    for k in range(2):
        assert abs(inc[:, k].mean()) < 3 * np.sqrt(target / n)
        assert abs(inc[:, k].var() - target) / target < 0.03
    cross = np.mean(inc[:, 0] * inc[:, 1])
    assert abs(cross) < 3 * target / np.sqrt(n)
    lag1 = np.mean(inc[1:, 0] * inc[:-1, 0])
    assert abs(lag1) < 3 * target / np.sqrt(n)


# -- stationary distribution ---------------------------------------------------

def test_long_run_variance_matches_equilibrium():
    # |psi|^2 = exp(-x^2): stationary variance 1/2, sampled over t = 1e4/lam
    g, psi = gaussian_setup()
    lam = 4.0
    params = GuidanceParams(lam=lam)
    dt = 0.01 / lam
    t_final = 1e4 / lam
    path = run_ensemble(1, PointSampler([0.0]), psi, params, dt, t_final, master_seed=2024,
                        record_stride=10).paths[0]
    var = np.var(path[:, 0])
    assert abs(var - 0.5) / 0.5 < 0.05


def test_trivial_horizon_returns_initial():
    g, psi = gaussian_setup()
    res = run_ensemble(1, PointSampler([0.4]), psi, GuidanceParams(lam=1.0), 1e-2, 0.0,
                       master_seed=3, record_stride=1)
    assert res.final_positions.tolist() == [[0.4]]
    assert res.paths.tolist() == [[[0.4]]] and res.metadata["steps"] == 0


def test_ensemble_equilibrium_double_gaussian_low_barrier():
    g = Grid.make(512, (-9.0, 9.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=1.0))
    params = GuidanceParams(lam=1.0)
    res = run_ensemble(
        10_000, PointSampler([-1.0]), psi, params, 1e-2, 200.0, master_seed=31
    )
    eq = regularized_density(psi, params).normalized()
    tv = total_variation(coarsen(res.histogram, 8), coarsen(eq, 8).normalized())
    assert tv < 0.05
    assert abs(res.histogram.total() - 1.0) < 1e-9


def test_density_sampler_matches_density():
    g, psi = gaussian_setup()
    params = GuidanceParams(lam=1.0)
    dens = regularized_density(psi, params)
    sampler = DensitySampler(dens)
    draws = sampler.sample([substream(4, i) for i in range(10_000)])
    from psiwalk import histogram

    tv = total_variation(coarsen(histogram(draws, g), 4), coarsen(dens, 4).normalized())
    assert tv < 0.03


# -- first passage -------------------------------------------------------------

def test_first_passage_at_boundary_is_zero():
    g, psi = gaussian_setup()
    (fp,) = run_first_passage_ensemble(1, [0.0], psi, GuidanceParams(lam=1.0), 1e-3,
                                       PlaneCrossing(at=0.0), 10.0, master_seed=8)
    assert fp.time == 0.0 and not fp.censored


def test_first_passage_censoring():
    g = Grid.make(512, (-9.5, 9.5), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=3.0))
    results = run_first_passage_ensemble(
        8, [-3.0], psi, GuidanceParams(lam=1.0), 1e-2, PlaneCrossing(at=3.0), 5.0,
        master_seed=17,
    )
    assert all(r.censored and r.time == 5.0 for r in results)


@pytest.mark.parametrize("t0, t_max", [(0.0, -1.0), (1.0, 0.5)])
def test_first_passage_rejects_t_max_before_t0(t0, t_max):
    g = Grid.make(64, (-8.0, 8.0), "reflecting")
    psi = WaveField(g, np.exp(-g.coords(0) ** 2 / 2))
    with mock.patch.object(langevin, "_run_chunk") as run_chunk:
        with pytest.raises(ValueError, match="t_max"):
            run_first_passage_ensemble(4, [-1.0], psi, GuidanceParams(lam=1.0), 1e-2,
                                       PlaneCrossing(at=3.0), t_max, t0=t0)
    run_chunk.assert_not_called()


@pytest.mark.parametrize("t_max", [float("inf"), float("nan")])
def test_first_passage_rejects_a_t_max_that_is_not_finite(t_max):
    g = Grid.make(32, (-8.0, 8.0), "reflecting")
    psi = WaveField(g, np.exp(-g.coords(0) ** 2 / 2))
    with pytest.raises(ValueError, match="t_max"):
        run_first_passage_ensemble(4, [-1.0], psi, GuidanceParams(lam=1.0), 1e-2,
                                   PlaneCrossing(at=3.0), t_max)


@pytest.mark.parametrize("at", [float("nan"), float("inf"), -float("inf")])
def test_a_plane_that_is_not_finite_is_refused(at):
    # a NaN plane censored every first-passage walker: no gap compares <= nan
    with pytest.raises(ValueError, match="must be finite"):
        PlaneCrossing(at=at)


def test_first_passage_with_t_max_at_t0_censors_at_the_start():
    g = Grid.make(64, (-8.0, 8.0), "reflecting")
    psi = WaveField(g, np.exp(-g.coords(0) ** 2 / 2))
    results = run_first_passage_ensemble(4, [-1.0], psi, GuidanceParams(lam=1.0), 1e-2,
                                         PlaneCrossing(at=3.0), 2.0, t0=2.0)
    assert all(r.censored and r.time == 2.0 for r in results)


def test_mfpt_double_well_matches_escape_formula():
    # b/a = 2.5: measured mean within factor 3 of (a^3/(lam b)) exp(b^2/a^2);
    # the independent quadrature oracle pins the exact value
    g = Grid.make(512, (-9.0, 9.0), "reflecting")
    dg = DoubleGaussianParams(a=1.0, b=2.5)
    psi = make_double_gaussian(g, dg)
    params = GuidanceParams(lam=1.0)
    results = run_first_passage_ensemble(
        220, [-2.5], psi, params, 0.02, PlaneCrossing(at=2.5),
        t_max=4.0 * 207.205, master_seed=11,
    )
    est = mfpt_estimate(results)
    assert est.n - est.censored_fraction * est.n >= 200
    assert 1.0 / 3.0 < est.mean / kramers_prediction(dg, 1.0) < 3.0
    assert abs(est.mean - MFPT_FULL_CROSSING[2.5]) / MFPT_FULL_CROSSING[2.5] < 0.25


def test_mfpt_scales_inversely_with_lambda():
    g = Grid.make(512, (-8.5, 8.5), "reflecting")
    dg = DoubleGaussianParams(a=1.0, b=2.0)
    psi = make_double_gaussian(g, dg)
    stop = PlaneCrossing(at=2.0)

    def campaign(lam, dt):
        res = run_first_passage_ensemble(
            150, [-2.0], psi, GuidanceParams(lam=lam), dt, stop, 2000.0, master_seed=23
        )
        return mfpt_estimate(res).mean

    t1 = campaign(1.0, 0.01)
    t2 = campaign(2.0, 0.005)
    assert abs(t2 / t1 - 0.5) < 0.2 * 0.5


def test_region_entry_predicate():
    stop = RegionEntry(lower=(1.0,), upper=(2.0,))
    side = stop.initial_side(np.array([[0.0]]))
    assert not stop.hit(np.array([[0.5]]), side)[0]
    assert stop.hit(np.array([[1.5]]), side)[0]


@pytest.mark.parametrize("dims", [1, 2])
def test_a_region_box_of_the_wrong_dimension_is_refused_before_any_drift_table(dims):
    # A 2-d box on a 1-d grid broadcast against the walkers' (m, 1) positions
    # and censored every walker; a 1-d box on a 2-d grid applied its one
    # bound to both axes.  Both are refused, as is a box whose lower and
    # upper bounds differ in length.
    g, psi = flat_setup(dims=dims, n=16)
    wrong = RegionEntry((1.0,) * (3 - dims), (2.0,) * (3 - dims))
    ragged = RegionEntry((1.0,) * dims, (2.0,) * (dims + 1))
    with mock.patch.object(langevin, "drift_field") as drift:
        for box in (wrong, ragged):
            with pytest.raises(ValueError, match=f"one bound per grid axis, dims={dims}"):
                run_first_passage_ensemble(2, [0.0] * dims, psi, GuidanceParams(lam=1.0), 0.01,
                                           box, 0.1)
    assert drift.call_count == 0


# -- node confinement -----------------------------------------------------------

def test_node_basins_merge_through_periodic_face_in_chains():
    # Rows 0 and 7 touch through the periodic face of axis 0: (0, 1) joins the
    # last row's basin, which joins (0, 5), so all open cells form one basin.
    g = Grid.make((8, 8), [(0.0, 8.0), (0.0, 8.0)], ("periodic", "reflecting"))
    values = np.zeros((8, 8))
    values[0, [1, 5]] = 1.0
    values[7, 1:6] = 1.0
    labels = NodeBasinMap.from_wavefield(WaveField(g, values), 0.5).labels
    assert np.unique(labels[values > 0]).tolist() == [0]
    assert np.all(labels[values == 0] == -1)


def reference_basins(open_cells, boundary):
    """``scipy.ndimage.label``'s components of the open cells, joined through
    each periodic axis's wrap faces by a graph search over the labels."""
    from scipy import ndimage
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    labeled, count = ndimage.label(open_cells)   # the default structure joins faces only
    pairs = [(np.take(labeled, 0, axis=k).ravel(), np.take(labeled, -1, axis=k).ravel())
             for k, wall in enumerate(boundary) if wall == "periodic"]
    a = np.concatenate([p[0] for p in pairs] + [np.zeros(0, int)])
    b = np.concatenate([p[1] for p in pairs] + [np.zeros(0, int)])
    keep = (a > 0) & (b > 0)
    graph = coo_matrix((np.ones(keep.sum()), (a[keep], b[keep])), shape=(count + 1,) * 2)
    return np.where(labeled > 0, connected_components(graph, directed=False)[1][labeled], -1)


def test_node_basins_are_the_components_scipy_finds():
    # random fields in 1-3 d, with every mix of walls and axes of 8 to 12
    # cells: the same partition, numbered in the order of each basin's first cell
    rng = np.random.default_rng(7)
    for trial in range(90):
        dims = 1 + trial % 3
        shape = tuple(int(k) for k in rng.integers(8, 13, dims))
        for boundary in itertools.product(["periodic", "reflecting"], repeat=dims):
            g = Grid.make(shape, ((0.0, 1.0),) * dims, boundary)
            values = rng.random(shape) * (rng.random(shape) < rng.random())
            values.flat[rng.integers(values.size)] = 1.0   # a wave field has some norm
            open_cells = values**2 >= 0.25 * (values**2).max()
            labels = NodeBasinMap.from_wavefield(WaveField(g, values), 0.25).labels
            expected = reference_basins(open_cells, boundary)
            assert np.array_equal(labels < 0, ~open_cells)
            pairs = np.unique(np.stack([labels[open_cells], expected[open_cells]]), axis=1)
            assert pairs.shape[1] == np.unique(expected[open_cells]).size
            assert pairs.shape[1] == np.unique(labels[open_cells]).size
            first = np.unique(labels.ravel()[open_cells.ravel()], return_index=True)[1]
            assert np.all(np.diff(first) > 0) and labels.max() == first.size - 1


def test_node_basin_map_labels():
    g = Grid.make(240, (0.0, 2 * np.pi), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.sin(3 * x) + 0j)
    basins = NodeBasinMap.from_wavefield(psi, 1e-6)
    labels = basins.basins_at(np.array([[0.5], [1.5], [2.6]]))
    assert labels[0] != labels[1] or labels[1] != labels[2]
    assert basins.labels.min() == -1
    assert basins.labels.max() >= 5  # six standing-wave basins


def test_node_confinement_static_standing_wave():
    # dt_L must resolve the log-barrier shoulder or the explicit step can hop
    # straight over a thin node; at this resolution crossings are suppressed
    g = Grid.make(240, (0.0, 2 * np.pi), "periodic")
    x = g.coords(0)
    psi = WaveField(g, np.sin(3 * x) + 0j)
    dt = 1e-4
    params = GuidanceParams(lam=1.0, epsilon=1e-12, drift_cap=2.0 * np.sqrt(2.0 / dt))
    res = run_ensemble(
        500, DensitySampler(DensityField(g, np.abs(psi.values) ** 2)), psi, params, dt, 1.0,
        master_seed=41, basins=node_basins(1e-6),
    )
    assert np.mean(res.crossings == 0) >= 0.99


# -- checkpoints and metadata ----------------------------------------------------

def test_checkpoints_captured_at_requested_times():
    g, psi = gaussian_setup()
    params = GuidanceParams(lam=1.0)
    res = run_ensemble(
        64, PointSampler([0.0]), psi, params, 1e-2, 1.0,
        master_seed=3, checkpoint_times=(0.0, 0.5, 1.0),
    )
    assert [t for t, _ in res.checkpoints] == [0.0, 0.5, 1.0]
    assert np.all(res.checkpoints[0][1] == 0.0)
    assert np.array_equal(res.checkpoints[-1][1], res.final_positions)


def test_checkpoint_alignment_validated():
    g, psi = gaussian_setup()
    with pytest.raises(ValueError):
        run_ensemble(
            4, PointSampler([0.0]), psi, GuidanceParams(lam=1.0), 1e-2, 1.0,
            checkpoint_times=(0.345,),
        )


def test_histogram_metadata():
    g, psi = gaussian_setup()
    res = run_ensemble(
        128, PointSampler([0.0]), psi, GuidanceParams(lam=2.0), 1e-2, 0.5, master_seed=9
    )
    assert res.metadata["lam"] == 2.0
    assert res.metadata["steps"] == 50
    assert abs(res.histogram.total() - 1.0) < 1e-9
