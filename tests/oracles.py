"""Independent reference computations the tests freeze expected values from.

Everything here deliberately avoids the library's own code paths: dense
matrices instead of stencils, series instead of libm erf, quadrature
instead of the closed form.
"""

import math

import numpy as np
from scipy.integrate import quad

from nlsmarket.grid import BoundaryPolicy, second_difference


def dense_second_difference(n: int, ds: float, policy: BoundaryPolicy) -> np.ndarray:
    """Explicit (n, n) matrix of the second-difference operator."""
    a = np.zeros((n, n))
    for k in range(1, n - 1):
        a[k, k - 1] = 1.0
        a[k, k] = -2.0
        a[k, k + 1] = 1.0
    if policy is BoundaryPolicy.PERIODIC:
        a[0, -1] = 1.0
        a[0, 0] = -2.0
        a[0, 1] = 1.0
        a[-1, -2] = 1.0
        a[-1, -1] = -2.0
        a[-1, 0] = 1.0
    elif policy is BoundaryPolicy.ZERO_FLUX:
        a[0, 0] = -2.0
        a[0, 1] = 2.0
        a[-1, -2] = 2.0
        a[-1, -1] = -2.0
    return a / ds**2


def roll_second_difference(field: np.ndarray, ds: float) -> np.ndarray:
    """Periodic second difference from np.roll, in the stencil's operation order.

    The library's periodic branch must reproduce this bit for bit.
    """
    inv_ds2 = 1.0 / ds**2
    return (np.roll(field, -1) - 2.0 * field + np.roll(field, 1)) * inv_ds2


def coupled_rhs_oracle(t, sigma, psi, w, grid, m, r, c):
    """The coupled market derivative assembled field by field.

    Moduli come from np.abs(.)**2, each line gets its own stencil call,
    and the kernels, potential and Hebbian rule are written out here, so
    the library's flat right-hand side is checked against a second
    assembly of the same equations. Returns (d_sigma, d_psi, d_w).
    """
    abs_sigma2 = np.abs(sigma) ** 2
    abs_psi2 = np.abs(psi) ** 2
    half_s2 = 0.5 * grid.nodes**2
    d = np.sum(grid.nodes * abs_sigma2) * grid.ds - 2.0 * np.sin(60.0 * t)
    g = np.exp(-((d * (1.0 - m)) ** 2))
    v = np.sum(w * g)
    lap_sigma = second_difference(sigma, grid, BoundaryPolicy.PERIODIC)
    lap_psi = second_difference(psi, grid, BoundaryPolicy.PERIODIC)
    d_sigma = 1j * (half_s2 * abs_psi2 * lap_sigma - v * abs_sigma2 * sigma)
    d_psi = 1j * (half_s2 * abs_sigma2 * lap_psi - abs_psi2 * psi - r * psi)
    d_w = -w + c * np.abs(sigma) * g * np.abs(psi)
    return d_sigma, d_psi, d_w


def erf_series(x: float) -> float:
    """Maclaurin series for erf, summed to convergence (|x| small)."""
    terms = []
    k = 0
    while True:
        term = (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
        terms.append(term)
        if abs(term) < 1e-20:
            break
        k += 1
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


def call_price_quadrature(spot, strike, rate, sigma, tau) -> float:
    """Discounted risk-neutral expectation of the call payoff by quadrature."""
    drift = (rate - 0.5 * sigma**2) * tau
    vol = sigma * math.sqrt(tau)
    z_low = (math.log(strike / spot) - drift) / vol

    def integrand(z):
        return (spot * math.exp(drift + vol * z) - strike) * math.exp(-0.5 * z * z)

    value, _ = quad(integrand, z_low, 40.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return math.exp(-rate * tau) * value / math.sqrt(2.0 * math.pi)


def heat_kernel(x: np.ndarray, t: float) -> np.ndarray:
    """Spreading Gaussian for diffusion coefficient 1/2 from exp(-x^2/2)."""
    return (1.0 + t) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + t)))
