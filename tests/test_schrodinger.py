import numpy as np
import pytest

from psiwalk import (
    DoubleGaussianParams,
    Grid,
    HamiltonianSpec,
    UnsupportedPropagatorError,
    WaveField,
    eigenbasis,
    evolve,
    make_double_gaussian,
    make_packet,
    make_superposition,
)

from _oracles import energy_expectation, free_packet_sigma


def harmonic_setup(n=256, half_width=8.0, omega=1.0):
    g = Grid.make(n, (-half_width, half_width), "periodic")
    x = g.coords(0)
    h = HamiltonianSpec(potential=0.5 * omega**2 * x**2)
    return g, x, h


def measured_sigma(psi):
    x = psi.grid.coords(0)
    rho = np.abs(psi.values) ** 2
    rho = rho / (rho.sum() * psi.grid.cell_volume)
    mean = np.sum(x * rho) * psi.grid.cell_volume
    return np.sqrt(np.sum((x - mean) ** 2 * rho) * psi.grid.cell_volume)


def test_ground_state_stationary():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2))
    rho0 = np.abs(psi.values) ** 2
    psi = evolve(psi, h, 1.0, 1e-3, snapshot_stride=1000)[-1]
    assert np.max(np.abs(np.abs(psi.values) ** 2 - rho0)) < 1e-6
    assert psi.time == pytest.approx(1.0)


def test_norm_preserved_per_step():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-((x - 1.3) ** 2) / 2 + 0.7j * x))
    n0 = psi.norm_sq()
    psi = evolve(psi, h, 1e-3, 1e-3)[-1]
    assert abs(psi.norm_sq() - n0) / n0 < 1e-12


def test_free_packet_dispersion():
    # initial |psi|^2 std 1 (packet width sqrt(2)); sigma(t) from the analytic law
    g = Grid.make(1024, (-40.0, 40.0), "periodic")
    h = HamiltonianSpec()
    psi = make_packet(g, [0.0], np.sqrt(2.0))
    assert measured_sigma(psi) == pytest.approx(1.0, rel=1e-3)
    snaps = evolve(psi, h, 2.0, 1e-3, snapshot_stride=2000)
    expected = free_packet_sigma(1.0, 2.0)
    assert expected == pytest.approx(np.sqrt(2.0))
    assert measured_sigma(snaps[-1]) == pytest.approx(expected, rel=0.01)


def test_nonperiodic_grid_rejected():
    g = Grid.make(64, (-4.0, 4.0), "reflecting")
    psi = WaveField(g, np.exp(-g.coords(0) ** 2))
    with pytest.raises(UnsupportedPropagatorError):
        evolve(psi, HamiltonianSpec(), 1e-3, 1e-3)


def test_evolve_zero_horizon_returns_input():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2))
    snaps = evolve(psi, h, 0.0, 1e-3)
    assert len(snaps) == 1 and snaps[0] is psi


def test_evolve_stride_equals_steps():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2))
    snaps = evolve(psi, h, 0.05, 1e-3, snapshot_stride=50)
    assert len(snaps) == 2
    assert snaps[-1].time == pytest.approx(0.05)


def test_evolve_snapshot_count():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2))
    snaps = evolve(psi, h, 0.01, 1e-3, snapshot_stride=4)
    # 10 steps, stride 4 -> ceil(10/4)+1 = 4 snapshots, final included
    assert len(snaps) == 4
    assert snaps[-1].time == pytest.approx(0.01)


def test_evolve_rejects_nondividing_dt():
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2))
    with pytest.raises(ValueError):
        evolve(psi, h, 0.0105, 1e-3)


def test_evolve_takes_t_final_as_an_absolute_time():
    # a packet at t = 1 stepped to 1.5 ran 150 steps and ended at 2.5, while
    # fp_evolve and run_ensemble end at 1.5
    g, x, h = harmonic_setup()
    psi = WaveField(g, np.exp(-x**2 / 2), 1.0)
    snaps = evolve(psi, h, 1.5, 0.01, snapshot_stride=10)
    assert [s.time for s in snaps] == pytest.approx([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    from_zero = evolve(WaveField(g, psi.values, 0.0), h, 0.5, 0.01, snapshot_stride=10)
    assert np.array_equal(snaps[-1].values, from_zero[-1].values)
    (same,) = evolve(psi, h, 1.0, 0.01)
    assert same is psi
    with pytest.raises(ValueError, match="precedes the initial time"):
        evolve(psi, h, 0.5, 0.01)


def test_coherent_state_center_oscillates():
    g, x, h = harmonic_setup(n=512, half_width=10.0)
    psi = make_packet(g, [1.0], 1.0)
    dt = 1e-3
    snaps = evolve(psi, h, 6.283, dt, snapshot_stride=20)
    centers = []
    for s in snaps:
        rho = np.abs(s.values) ** 2
        rho /= rho.sum() * g.cell_volume
        centers.append(np.sum(x * rho) * g.cell_volume)
    centers = np.array(centers)
    amplitude = 0.5 * (centers.max() - centers.min())
    assert amplitude == pytest.approx(1.0, rel=0.01)
    times = np.array([s.time for s in snaps])
    assert np.max(np.abs(centers - np.cos(times))) < 0.01


def test_energy_conserved():
    g, x, h = harmonic_setup()
    psi = make_packet(g, [1.0], 1.0)
    e0 = energy_expectation(psi, h)
    snaps = evolve(psi, h, 10.0, 1e-3, snapshot_stride=10000)
    e1 = energy_expectation(snaps[-1], h)
    assert abs(e1 - e0) / abs(e0) < 1e-6


def test_second_order_convergence_in_dt():
    g, x, h = harmonic_setup()
    psi0 = make_packet(g, [1.0], 1.0)

    def final_state(dt):
        return evolve(psi0, h, 0.5, dt, snapshot_stride=10**9)[-1].values

    ref = final_state(0.5 / 400)
    err_coarse = np.max(np.abs(final_state(0.05) - ref))
    err_fine = np.max(np.abs(final_state(0.025) - ref))
    assert 2.5 < err_coarse / err_fine < 6.0


def test_double_gaussian_values():
    # dx = 0.05 puts both x=0 and x=b on grid nodes
    g = Grid.make(400, (-10.0, 10.0), "periodic")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=3.0))
    x = g.coords(0)

    def density_at(x0):
        i = np.argmin(np.abs(x - x0))
        assert abs(x[i] - x0) < 1e-9
        return np.abs(psi.values[i]) ** 2

    # |Psi(0)|^2 = 4 e^-9, |Psi(b)|^2 = (1 + e^-18)^2
    assert density_at(0.0) == pytest.approx(4.936392163467182e-4, abs=1e-7)
    assert density_at(3.0) == pytest.approx(1.0000000304599597, abs=1e-7)


def test_double_gaussian_symmetry():
    g = Grid.make(256, (-10.0, 10.0), "reflecting")
    psi = make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=2.0))
    assert np.array_equal(psi.values, psi.values[::-1])


def test_double_gaussian_extent_check():
    g = Grid.make(64, (-5.0, 5.0), "reflecting")
    with pytest.raises(ValueError):
        make_double_gaussian(g, DoubleGaussianParams(a=1.0, b=3.0))


def test_double_gaussian_param_validation():
    with pytest.raises(ValueError):
        DoubleGaussianParams(a=-1.0, b=2.0)


def test_packet_zero_momentum_real_positive():
    g = Grid.make(128, (-8.0, 8.0), "periodic")
    psi = make_packet(g, [0.0], 1.0)
    assert np.allclose(psi.values.imag, 0.0)
    assert np.all(psi.values.real > 0)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_packet_momentum_moment():
    g = Grid.make(512, (-20.0, 20.0), "periodic")
    k0 = 2.0
    psi = make_packet(g, [0.0], 1.0, [k0])
    psik = np.fft.fft(psi.values)
    k = 2 * np.pi * np.fft.fftfreq(512, d=g.spacing[0])
    mean_k = np.sum(k * np.abs(psik) ** 2) / np.sum(np.abs(psik) ** 2)
    assert mean_k == pytest.approx(k0, rel=0.01)


def test_packet_rejects_bad_width():
    g = Grid.make(64, (-4.0, 4.0), "periodic")
    with pytest.raises(ValueError):
        make_packet(g, [0.0], 0.0)


def test_superposition_ground_state_matches_hermite():
    g, x, h = harmonic_setup(n=256, half_width=10.0)
    psi = make_superposition(g, h, [(1.0, 0)])
    exact = np.exp(-x**2 / 2) / np.pi**0.25
    assert np.max(np.abs(psi.values.real - exact)) < 1e-6
    assert np.max(np.abs(psi.values.imag)) < 1e-12


def test_eigenbasis_energies():
    g, x, h = harmonic_setup(n=256, half_width=10.0)
    energies, _ = eigenbasis(g, h, count=4)
    assert np.allclose(energies, [0.5, 1.5, 2.5, 3.5], atol=1e-8)


def test_computed_eigenstate_is_stationary():
    g, x, h = harmonic_setup(n=256, half_width=10.0)
    psi = make_superposition(g, h, [(1.0, 2)])
    rho0 = np.abs(psi.values) ** 2
    snaps = evolve(psi, h, 0.2, 1e-3, snapshot_stride=200)
    assert np.max(np.abs(np.abs(snaps[-1].values) ** 2 - rho0)) < 1e-8


def test_superposition_validates_indices():
    g, x, h = harmonic_setup(n=64, half_width=6.0)
    with pytest.raises(ValueError):
        make_superposition(g, h, [])
    with pytest.raises(ValueError):
        make_superposition(g, h, [(1.0, -2)])


def test_2d_ground_state_stationary():
    g = Grid.make((64, 64), ((-7.0, 7.0),) * 2, "periodic")
    xs, ys = g.meshgrid()
    h = HamiltonianSpec(potential=0.5 * (xs**2 + ys**2))
    psi = WaveField(g, np.exp(-(xs**2 + ys**2) / 2))
    rho0 = np.abs(psi.values) ** 2
    n0 = psi.norm_sq()
    snaps = evolve(psi, h, 0.2, 1e-3, snapshot_stride=200)
    assert np.max(np.abs(np.abs(snaps[-1].values) ** 2 - rho0)) < 1e-7
    assert abs(snaps[-1].norm_sq() - n0) / n0 < 1e-12


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(hbar=0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=-1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(potential=np.array([np.inf, 1.0]))
