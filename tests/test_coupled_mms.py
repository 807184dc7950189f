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

from nlsmarket import (
    ModelConfig,
    StepControl,
    coupled_rhs,
    init_state,
    integrate_adaptive,
    make_grid,
)
from nlsmarket.market import pack_state

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


def mms_error(n, tol):
    """(max |y(T_END) - y_e(T_END)|, ds) for rhs_mms on n nodes at tolerance tol."""
    cfg = ModelConfig(n=n, s1=10.0 + PERIOD * (n - 1) / n)
    grid = make_grid(cfg.s0, cfg.s1, n)
    _, m = init_state(cfg)

    def rhs_mms(t, y):
        fields, rates, laps = manufactured(t, n, cfg.r)
        model = coupled_rhs_oracle(t, *fields, grid, m, cfg.r, cfg.c, laps=laps)
        source = pack_state(*(rate - f for rate, f in zip(rates, model)))
        return coupled_rhs(t, y, grid, 1.0 - m, cfg) + source

    ctl = StepControl(abs_tol=tol, rel_tol=tol)
    y0 = pack_state(*manufactured(0.0, n, cfg.r)[0])
    y, _ = integrate_adaptive(rhs_mms, 0.0, T_END, y0, ctl)
    return float(np.max(np.abs(y - pack_state(*manufactured(T_END, n, cfg.r)[0])))), grid.ds


def test_coupled_semi_discretization_is_second_order_in_space():
    runs = [mms_error(n, 1e-9) for n in (16, 32, 64)]
    orders = [math.log(e0 / e1) / math.log(d0 / d1)
              for (e0, d0), (e1, d1) in zip(runs, runs[1:])]
    # measured 1.889 and 2.077, errors 3.818e-3, 1.031e-3 and 2.444e-4
    assert all(1.85 <= p <= 2.15 for p in orders), orders
    assert runs[-1][0] < 2.7e-4  # 10% over the measured finest error
    # the time error is negligible at tol 1e-9: a 100x tighter tolerance
    # moves the finest error by 1.4e-7 relative (measured)
    tighter, _ = mms_error(64, 1e-11)
    assert abs(tighter - runs[-1][0]) < 1e-5 * runs[-1][0]
