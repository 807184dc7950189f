"""The coupled model against its exact reduction from the paper's start values.

From sigma = 1/4 and psi = 1 on every line the fields stay uniform, so the
model has a closed form for psi and |sigma|^2 and reduces to a linear
(n + 1)-dimensional system for w and arg sigma, which oracles.py solves in
closed form too; two tests check that solution by quadrature. Every gate
below is its measured value times the stated headroom.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsmarket.integrator import StepControl
from nlsmarket.market import ModelConfig, run_simulation

from oracles import contract_draws, oracle_errors, uniform_start_reduction


def paper_run(days, tol=1e-6):
    control = StepControl(abs_tol=tol, rel_tol=tol)
    return run_simulation(ModelConfig(t_end=days, control=control))


@pytest.fixture(scope="module")
def paper_20d_errors():
    return oracle_errors(paper_run(20.0))


def duhamel_w(t, w0, one_minus_m, y_tgt, c):
    """w_i(t) = w_i(0) e^-t + (c/4) int_0^t e^-(t - tau) g_i(tau) dtau by quad,
    one forcing period (pi/30 d) at a time."""
    edges = np.append(np.arange(0.0, t, math.pi / 30.0), t)

    def integrand(tau):
        x = (y_tgt - 2.0 * math.sin(60.0 * tau)) * one_minus_m
        return math.exp(-(t - tau) - x * x)

    integral = math.fsum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=100)[0]
                         for a, b in zip(edges[:-1], edges[1:]))
    return w0 * math.exp(-t) + 0.25 * c * integral


def test_reduction_matches_duhamel_quadrature():
    # the reduction's w against Duhamel's formula by quad on every node of
    # the paper config; measured 5.55e-17 (node 23 at t = 1)
    cfg = ModelConfig()
    times = np.array([1.0, 4.0, 10.0])
    w, _ = uniform_start_reduction(cfg.n, cfg.s0, cfg.s1, cfg.c, cfg.seed, times)
    w0, one_minus_m, y_tgt = contract_draws(cfg.n, cfg.s0, cfg.s1, cfg.seed)
    exact = [[duhamel_w(t, w0[i], one_minus_m[i], y_tgt, cfg.c) for i in range(cfg.n)]
             for t in times]
    assert np.max(np.abs(w - exact)) < 5e-11  # 9e5x; quad runs at epsrel 1e-13


def test_reduction_phase_matches_gauss_legendre():
    # sigma = (1/4) e^(i phi) with phi = -(1/16) int_0^t sum_i w_i g_i, the
    # integral by Gauss-Legendre at 40 nodes per forcing period (pi/30 d),
    # with w from the reduction and g_i formed here, not from the Fourier
    # sums that assemble phi; measured 1.73e-18 in sigma on the paper config
    cfg = ModelConfig()
    times = np.array([1.0, 4.0, 10.0])
    _, sigma = uniform_start_reduction(cfg.n, cfg.s0, cfg.s1, cfg.c, cfg.seed, times)
    edges = np.union1d(np.arange(0.0, times[-1], math.pi / 30.0), times)
    x, weights = np.polynomial.legendre.leggauss(40)
    half = np.diff(edges) / 2.0
    nodes = (edges[:-1, None] + half[:, None] * (1.0 + x)).ravel()
    w, _ = uniform_start_reduction(cfg.n, cfg.s0, cfg.s1, cfg.c, cfg.seed, nodes)
    _, one_minus_m, y_tgt = contract_draws(cfg.n, cfg.s0, cfg.s1, cfg.seed)
    g = np.exp(-(((y_tgt - 2.0 * np.sin(60.0 * nodes))[:, None] * one_minus_m) ** 2))
    panels = half * (np.sum(w * g, axis=1).reshape(half.size, -1) @ weights)
    phi = -np.cumsum(panels)[np.searchsorted(edges, times) - 1] / 16.0
    # 58x; a component of sigma, up to 1/4 in size, rounds at 5.6e-17
    assert np.max(np.abs(sigma - 0.25 * np.exp(1j * phi))) < 1e-16


def test_reduction_loads_without_scipy():
    # a fresh interpreter in which scipy cannot be imported loads the oracle
    # module and evaluates the reduction, bit for bit as here
    code = ("import sys; sys.modules['scipy'] = None; import oracles; "
            "w, sigma = oracles.uniform_start_reduction(3, 10.0, 20.0, 1.0, 7, [0.5, 2.0]); "
            "print(repr((w.tolist(), sigma.tolist())))")
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    w, sigma = uniform_start_reduction(3, 10.0, 20.0, 1.0, 7, [0.5, 2.0])
    assert done.stdout.strip() == repr((w.tolist(), sigma.tolist()))


def test_paper_run_matches_the_exact_solution(paper_20d_errors):
    # measured at 20 d, tol 1e-6: psi 1.22e-7, |sigma|^2 1.43e-11,
    # w 5.40e-6, sigma 6.26e-7
    errors = paper_20d_errors
    assert errors["psi"] < 3e-7  # 2.5x
    assert errors["sigma_sq"] < 5e-11  # 3.5x
    assert errors["w"] < 1e-5  # 1.85x
    assert errors["sigma"] < 1.5e-6  # 2.4x


def test_psi_error_falls_with_the_tolerance(paper_20d_errors):
    # measured at 20 d: 1.22e-7 at tol 1e-6, 9.64e-10 at tol 1e-8, 126x
    coarse = paper_20d_errors["psi"]
    fine = oracle_errors(paper_run(20.0, tol=1e-8))["psi"]
    assert coarse / fine > 50.0  # 2.5x


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 40),
    s0=st.floats(0.5, 20.0),
    width=st.floats(0.5, 20.0),
    r=st.floats(0.0, 0.01),
    c=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    days=st.floats(10.0, 30.0),
)
# the worst corner found: 1.64e-4 against the sigma gate of 2e-4
@example(n=20, s0=0.5, width=2.0, r=0.01, c=0.0, seed=20020, days=10.0)
def test_any_uniform_start_matches_the_exact_solution(n, s0, width, r, c, seed, days):
    cfg = ModelConfig(n=n, s0=s0, s1=s0 + width, r=r, c=c, seed=seed, t_end=days)
    rec = run_simulation(cfg)
    assert rec.times[-1] == rec.config.t_end
    # worst over 200 uniform draws of these ranges and 36 corner cases
    # (small Y = (1/16) sum_k s_k ds, where the kernels switch fastest:
    # s0 = 0.5, width 0.5-2, n = 3-40, c = 0 and 3, 10 and 30 d) at tol
    # 1e-6: psi 2.91e-5, |sigma|^2 8.57e-9, w 1.12e-4, sigma 1.64e-4 (a
    # corner with c = 0)
    errors = oracle_errors(rec)
    assert errors["psi"] < 1e-4  # 3.4x
    assert errors["sigma_sq"] < 7.5e-8  # 8.8x
    assert errors["w"] < 3e-4  # 2.7x
    assert errors["sigma"] < 2e-4  # 1.2x
