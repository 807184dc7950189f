"""Independent reference computations the tests freeze expected values from.

Everything here deliberately avoids the library's own code paths: dense
matrices instead of stencils, series instead of libm erf, quadrature
instead of the closed form.
"""

import math

import numpy as np


def dense_second_difference(n: int, ds: float) -> np.ndarray:
    """Explicit (n, n) matrix of the periodic second-difference operator."""
    a = np.zeros((n, n))
    for k in range(n):
        a[k, k - 1] = 1.0
        a[k, k] = -2.0
        a[k, (k + 1) % n] = 1.0
    return a / ds**2


def roll_second_difference(field: np.ndarray) -> np.ndarray:
    """Periodic undivided second difference from np.roll, in the stencil's
    operation order.

    The library's periodic branch must reproduce this bit for bit.
    """
    return np.roll(field, -1) - 2.0 * field + np.roll(field, 1)


def coupled_rhs_oracle(t, sigma, psi, w, grid, m, r, c, laps=None):
    """The coupled market derivative assembled field by field.

    Moduli come from np.abs(.)**2, each line's Laplacian is the dense
    second-difference matrix applied to it, and the kernels, potential and
    Hebbian rule are written out here, so the library's flat right-hand
    side is checked against a second assembly of the same equations.
    ``laps`` = (Lap sigma, Lap psi), when given, replaces the two matrix
    products, e.g. with exact second derivatives. Returns (d_sigma, d_psi, d_w).
    """
    abs_sigma2 = np.abs(sigma) ** 2
    abs_psi2 = np.abs(psi) ** 2
    half_s2 = 0.5 * grid.nodes**2
    d = np.sum(grid.nodes * abs_sigma2) * grid.ds - 2.0 * np.sin(60.0 * t)
    g = np.exp(-((d * (1.0 - m)) ** 2))
    v = np.sum(w * g)
    if laps is None:
        dense = dense_second_difference(grid.n, grid.ds)
        laps = dense @ sigma, dense @ psi
    lap_sigma, lap_psi = laps
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
    """Discounted risk-neutral expectation of the call payoff by quadrature.

    The one oracle that needs scipy, so it imports it here: the rest of
    this module loads without scipy.
    """
    from scipy.integrate import quad

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


def uniform_start_psi(times, r: float) -> np.ndarray:
    """psi_k(t) = exp(-i (1 + r) t), the price line of every node.

    From the paper's start values (sigma = 1/4 and psi = 1 on every line)
    both fields stay uniform across the lines, so each Laplacian is zero,
    V is real and both moduli are constant: psi' = -i (|psi|^2 + r) psi
    with |psi| = 1.
    """
    return np.exp(-1j * (1.0 + r) * np.asarray(times, dtype=float))


def contract_draws(n, s0, s1, seed):
    """w(0), 1 - m and Y of a config, drawn as the manifest's PRNG contract says."""
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-1.0, 1.0, n)
    one_minus_m = 1.0 - rng.uniform(-1.0, 1.0, n)
    y_tgt = np.sum(np.linspace(s0, s1, n)) * (s1 - s0) / (n - 1) / 16.0
    return w0, one_minus_m, y_tgt


# samples of the kernels g_i per forcing period; 4096 agree to 1.1e-16
FORCING_SAMPLES = 1024


def uniform_start_reduction(n, s0, s1, c, seed, times):
    """(w, sigma) of the coupled model from the paper's start values.

    With |sigma|^2 = 1/16 and |psi| = 1 held exactly, the model reduces to
    the linear (n + 1)-dimensional system

        w_i' = -w_i + (c / 4) g_i(t),   phi' = -(1/16) sum_i w_i g_i(t),

    g_i(t) = exp(-((Y - 2 sin 60t)(1 - m_i))^2), Y = (1/16) sum_k s_k ds,
    and sigma = (1/4) exp(i phi). It is solved in closed form. The g_i are
    analytic with period pi/30, so the FFT of FORCING_SAMPLES samples over
    one period gives their Fourier coefficients g_ik to round-off (the
    trapezoid rule on a periodic analytic function). Duhamel's formula then
    gives

        w_i(t) = A_i e^-t + sum_k a_ik e^(i 60k t),   a_ik = (c/4) g_ik / (1 + i 60k),

    and phi is the integral of a finite sum of exponentials. w(0) and m are
    drawn from the PRNG contract as written in the run manifest, not by the
    library's init_state. Returns w at ``times``, shape (len(times), n), and
    sigma, shape (len(times),).
    """
    w0, one_minus_m, y_tgt = contract_draws(n, s0, s1, seed)

    size = FORCING_SAMPLES
    freq = 60.0 * np.fft.fftfreq(size, 1.0 / size)  # 60k, the mean first
    tau = np.arange(size) * (math.pi / 30.0 / size)
    x = (y_tgt - 2.0 * np.sin(60.0 * tau))[:, None] * one_minus_m
    g = np.exp(-(x * x))  # (size, n)
    g_hat = np.fft.fft(g, axis=0) / size
    a = 0.25 * c * g_hat / (1.0 + 1j * freq)[:, None]  # the periodic part of w
    amp = w0 - a.sum(axis=0).real  # A_i, the transient's amplitude
    # sum_i w_i g_i = e^-t sum_i A_i g_i + a periodic product with coefficients p_k;
    # phi integrates the first to sum_k b_k (e^((i 60k - 1) t) - 1), the
    # second to p_0 t + sum_(k != 0) q_k (e^(i 60k t) - 1)
    p_hat = np.fft.fft(np.sum(np.fft.ifft(a, axis=0).real * size * g, axis=1)) / size
    b = (g_hat @ amp) / (1j * freq - 1.0)
    q = np.zeros(size, dtype=complex)
    q[1:] = p_hat[1:] / (1j * freq[1:])

    t = np.asarray(times, dtype=float)
    decay = np.exp(-t)
    e = np.exp(1j * np.outer(t, freq))
    w = np.outer(decay, amp) + (e @ a).real
    integral = (decay * (e @ b) + e @ q - b.sum() - q.sum()).real + p_hat[0].real * t
    return w, 0.25 * np.exp(-1j * integral / 16.0)


def oracle_errors(rec):
    """Largest deviation of each recorded field from the exact solution."""
    cfg = rec.config
    w, sigma = uniform_start_reduction(cfg.n, cfg.s0, cfg.s1, cfg.c, cfg.seed, rec.times)
    return {
        "psi": np.max(np.abs(rec.psi - uniform_start_psi(rec.times, cfg.r)[:, None])),
        "sigma_sq": np.max(np.abs(rec.sigma_pdf - 1.0 / 16.0)),
        "w": np.max(np.abs(rec.w - w)),
        "sigma": np.max(np.abs(rec.sigma - sigma[:, None])),
    }
