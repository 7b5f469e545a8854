"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own solvers: plain quadrature and
closed-form results only, so test expectations cannot inherit a solver bug.
"""

import numpy as np


def gaussian_squared_integral(width: float) -> float:
    """integral of |exp(-x^2 / (2 w^2))|^2 dx = w * sqrt(pi)."""
    return width * np.sqrt(np.pi)


def free_packet_sigma(sigma0: float, t: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Std of |psi(t)|^2 for a free Gaussian with initial position std sigma0."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def energy_expectation(psi, h) -> float:
    """<H> of a wave field on a periodic grid, kinetic part evaluated spectrally."""
    grid = psi.grid
    psik = np.fft.fftn(psi.values)
    k2_over_m = np.zeros(grid.points)
    for axis in range(grid.dims):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.points[axis], d=grid.spacing[axis])
        shape = [1] * grid.dims
        shape[axis] = grid.points[axis]
        k2_over_m = k2_over_m + (k**2 / h.mass).reshape(shape)
    kinetic = 0.5 * h.hbar**2 * np.sum(k2_over_m * np.abs(psik) ** 2) / psik.size
    kinetic = float(kinetic) * grid.cell_volume
    rho = np.abs(psi.values) ** 2
    potential = 0.0 if h.potential is None else float(np.sum(h.potential * rho)) * grid.cell_volume
    return (kinetic + potential) / psi.norm_sq()


def double_gaussian_density(x, a, b):
    return (np.exp(-((x - b) ** 2) / (2 * a * a)) + np.exp(-((x + b) ** 2) / (2 * a * a))) ** 2


def mfpt_quadrature(a, b, lam, x0, theta, wall, n=800001) -> float:
    """Mean first-passage time of dX = lam d/dx ln rho dt + sqrt(2 lam) dW
    from x0 to theta, reflecting wall at -wall, by the standard double
    integral  T = (1/lam) int_{x0}^{theta} dy rho(y)^{-1} int_{-wall}^{y} rho(z) dz."""
    x = np.linspace(-wall, theta, n)
    rho = double_gaussian_density(x, a, b)
    dx = x[1] - x[0]
    cum = np.cumsum(rho) * dx - rho * dx / 2
    integrand = np.where(x >= x0, cum / rho, 0.0)
    return float(np.trapezoid(integrand, x)) / lam


# Converged values (n up to 3.2e6 agrees to 6 decimals):
MFPT_FULL_CROSSING = {
    2.5: 220.807316,   # a=1, lam=1, x0=-b, target +b, wall b+6.5
    3.0: 2677.620870,  # a=1, lam=1, x0=-b, target +b, wall b+6.5
}
