"""Spatial order of the coupled semi-discretization, by a manufactured solution.

rhs_mms(t, y) = coupled_rhs(t, y) + S(t) has the closed-form fields below
as its exact solution y_e, with S(t) = dy_e/dt - F(t, y_e). F assembles
the model with the exact second derivative in place of the stencil but
keeps the model's discrete sums (the first moment and V; see
coupled_rhs_oracle). The integrated error is then the truncation error of
the Laplacian coupling alone and falls as ds**2 (Roache 2002, J. Fluids
Eng. 124:4).

The periodic wrap joins node n-1 to node 0 at distance ds, so the ring's
period is n ds, not s1 - s0. The fields are Fourier sums in 2 pi k / n,
and each grid spans [s0, s0 + PERIOD (n - 1) / n], so that n ds = PERIOD
and every grid samples the same periodic fields.
"""

import math

import numpy as np

from nlsmarket.grid import make_grid
from nlsmarket.integrator import StepControl, cash_karp_step, integrate_adaptive
from nlsmarket.market import ModelConfig, coupled_rhs, init_state, pack_state

from oracles import coupled_rhs_oracle

PERIOD = 10.0
T_END = 0.01
# Fourier coefficients {m: a_m} of the fields' spatial shapes
SIGMA_MODES = {0: 0.25, 1: 0.05, -2: 0.02}
PSI_MODES = {0: 1.0, 1: 0.1, 3: 0.05}


def fourier(modes, theta):
    """sum_m a_m exp(i m theta) and its exact second derivative in s."""
    waves = {m: a * np.exp(1j * m * theta) for m, a in modes.items()}
    return (sum(waves.values()),
            sum(-((2.0 * np.pi * m / PERIOD) ** 2) * wave for m, wave in waves.items()))


def manufactured(t, n, r):
    """Fields (sigma, psi, w) at the n nodes, their time derivatives, and the
    exact second derivatives in s of sigma and psi.

    sigma = exp(-i t) A(theta), psi = exp(-i (1 + r) t) B(theta) and
    w = cos(theta + t) / 2, with A and B the Fourier sums above.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    shape_a, a_ss = fourier(SIGMA_MODES, theta)
    shape_b, b_ss = fourier(PSI_MODES, theta)
    phase_a, phase_b = np.exp(-1j * t), np.exp(-1j * (1.0 + r) * t)
    sigma, psi, w = phase_a * shape_a, phase_b * shape_b, 0.5 * np.cos(theta + t)
    rates = (-1j * sigma, -1j * (1.0 + r) * psi, -0.5 * np.sin(theta + t))
    return (sigma, psi, w), rates, (phase_a * a_ss, phase_b * b_ss)


def mms_problem(n):
    """(rhs_mms, exact, grid) on n nodes; exact(t) is the packed y_e(t)."""
    cfg = ModelConfig(n=n, s1=10.0 + PERIOD * (n - 1) / n)
    grid = make_grid(cfg.s0, cfg.s1, n)
    _, m = init_state(cfg)

    def rhs_mms(t, y):
        fields, rates, laps = manufactured(t, n, cfg.r)
        model = coupled_rhs_oracle(t, *fields, grid, m, cfg.r, cfg.c, laps=laps)
        source = pack_state(*(rate - f for rate, f in zip(rates, model)))
        return coupled_rhs(t, y, grid, (1.0 - m) ** 2, cfg) + source

    return rhs_mms, lambda t: pack_state(*manufactured(t, n, cfg.r)[0]), grid


def mms_error(n, tol):
    """(max |y(T_END) - y_e(T_END)|, ds) for rhs_mms on n nodes at tolerance tol."""
    rhs_mms, exact, grid = mms_problem(n)
    ctl = StepControl(abs_tol=tol, rel_tol=tol)
    y, _ = integrate_adaptive(rhs_mms, 0.0, T_END, exact(0.0), ctl)
    return float(np.max(np.abs(y - exact(T_END)))), grid.ds


def slopes(hs, values):
    """The log-log slope of values against hs between each neighbouring pair."""
    return [math.log(v0 / v1) / math.log(h0 / h1)
            for h0, h1, v0, v1 in zip(hs, hs[1:], values, values[1:])]


def test_coupled_semi_discretization_is_second_order_in_space():
    runs = [mms_error(n, 1e-9) for n in (16, 32, 64)]
    orders = slopes([ds for _, ds in runs], [e for e, _ in runs])
    # measured 1.889 and 2.077, errors 3.818e-3, 1.031e-3 and 2.444e-4
    assert all(1.85 <= p <= 2.15 for p in orders), orders
    assert runs[-1][0] < 2.7e-4  # 10% over the measured finest error
    # the time error is negligible at tol 1e-9: a 100x tighter tolerance
    # moves the finest error by 1.4e-7 relative (measured)
    tighter, _ = mms_error(64, 1e-11)
    assert abs(tighter - runs[-1][0]) < 1e-5 * runs[-1][0]


def test_one_cash_karp_step_has_fifth_order_local_error():
    # One step of h from y_e(0) on the coarsest grid, against the
    # semi-discrete solution: a tol-1e-13 integrate_adaptive over the same
    # h, at most h/10 per step, which a 100x tighter tolerance moves by at
    # most 7e-16 (measured). The stencil's largest rate is about 2000 here,
    # so the asymptotic range needs h well under 1e-3: at h = 5e-4 the
    # local error's slope still reads 6.96, and below 6.25e-5 it meets
    # round-off.
    rhs_mms, exact, _ = mms_problem(16)
    y0 = exact(0.0)
    hs = (2.5e-4, 1.25e-4, 6.25e-5)
    estimates, local_errors = [], []
    for h in hs:
        y5, err = cash_karp_step(rhs_mms, 0.0, y0, h)
        semi_discrete, _ = integrate_adaptive(rhs_mms, 0.0, h, y0,
                                              StepControl(abs_tol=1e-13, rel_tol=1e-13))
        estimates.append(float(np.max(np.abs(err))))
        local_errors.append(float(np.max(np.abs(y5 - semi_discrete))))
    # measured 4.94 and 4.97 for the embedded estimate (the 4th-order
    # solution's local error, h**5) and 6.06 and 6.04 for the propagated
    # 5th-order solution (h**6); the gates allow 0.2 either way, which
    # still tells each order from its neighbours
    assert all(4.8 <= p <= 5.2 for p in slopes(hs, estimates)), estimates
    assert all(5.8 <= p <= 6.2 for p in slopes(hs, local_errors)), local_errors
    # measured 1.9e-10 / 6.0e-11 at the largest h and 2.0e-13 / 1.4e-14 at
    # the smallest: the propagated solution is the more accurate one
    assert all(e < est for e, est in zip(local_errors, estimates))
