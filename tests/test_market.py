import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsmarket.errors import ConfigError, StepBudgetError, StiffnessError
from nlsmarket.grid import make_grid
from nlsmarket.integrator import StepControl, _scaled_error_norm, cash_karp_step
from nlsmarket.market import (
    ModelConfig,
    _snapshot_times,
    coupled_rhs,
    gaussian_kernels,
    hebbian_rhs,
    init_state,
    pack_state,
    potential,
    run_simulation,
    target_output,
    target_signal,
    unpack_state,
)

from oracles import coupled_rhs_oracle


def small_config(**kw):
    base = dict(n=8, t_end=2.0, snapshot_stride=1.0, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def rhs_of(t, state, grid, one_minus_m_sq, cfg):
    """The flat coupled_rhs on a packed (sigma, psi, w), unpacked again."""
    return unpack_state(coupled_rhs(t, pack_state(*state), grid, one_minus_m_sq, cfg), cfg.n)


def density(sigma):
    return np.abs(np.asarray(sigma, dtype=complex)) ** 2


def test_target_signal_values():
    assert target_signal(0.0) == 0.0
    assert target_signal(np.pi / 120.0) == pytest.approx(2.0, rel=1e-15)
    assert abs(target_signal(np.pi / 60.0)) < 1e-12


def test_target_signal_matches_numpy_sin_at_snapshot_times():
    # the paper run's 361 snapshot times, each the exact float the driver uses
    times = np.array(_snapshot_times(360.0, 1.0))
    assert times.size == 361
    expected = 2.0 * np.sin(60.0 * times)
    assert np.array_equal([target_signal(t) for t in times], expected)


def test_target_output_examples():
    grid = make_grid(10.0, 20.0, 30)
    assert target_output(density(np.zeros(30)), grid) == 0.0

    flat = np.full(30, 0.25)
    # independent direct summation
    expected = sum(0.25**2 * s for s in grid.nodes) * grid.ds
    assert expected == pytest.approx(9.698275862068966, rel=1e-12)
    assert target_output(density(flat), grid) == pytest.approx(expected, rel=1e-13)

    lone = np.zeros(30)
    lone[4] = 1.0
    assert target_output(density(lone), grid) == pytest.approx(grid.nodes[4] * grid.ds, rel=1e-13)


def test_gaussian_kernels_match_the_squared_product_form():
    # exp(-d^2 (1 - m)^2) against exp(-(d (1 - m))^2) over d in [-20, 20] and
    # m in [-1, 1). Nodes [-1, 0, 1] with ds = 1 put d = a exactly at t = 0.
    # The exponent's rounding enters exp(-x) as a relative x * 2^-52 error,
    # so the kernels below exp(-15) are held by the absolute 1e-20 instead.
    grid = make_grid(-1.0, 1.0, 3)
    rng = np.random.default_rng(13)
    m = np.concatenate([np.linspace(-1.0, 1.0, 2000, endpoint=False),
                        rng.uniform(-1.0, 1.0, 2000)])

    def kernels(d, one_minus_m_sq):
        sigma_sq = np.array([max(-d, 0.0), 0.0, max(d, 0.0)])
        return gaussian_kernels(0.0, sigma_sq, grid, one_minus_m_sq)

    for d in np.concatenate([np.linspace(-20.0, 20.0, 401), rng.uniform(-20.0, 20.0, 400)]):
        want = np.exp(-((d * (1.0 - m)) ** 2))
        assert np.allclose(kernels(d, (1.0 - m) ** 2), want, rtol=1e-14, atol=1e-20)
    # exactly one at d = 0 and at m = 1
    assert np.all(kernels(0.0, (1.0 - m) ** 2) == 1.0)
    for d in (-20.0, -1e-3, 7.5, 20.0):
        assert kernels(d, np.zeros(1))[0] == 1.0


def test_potential_examples():
    assert potential(np.zeros(4), np.full(4, 0.3)) == 0.0
    assert potential(np.array([1.0, -1.0]), np.array([0.5, 0.5])) == 0.0
    rng = np.random.default_rng(17)
    w = rng.normal(size=50)
    g = rng.uniform(0.0, 1.0, size=50)
    naive = sum(wi * gi for wi, gi in zip(w, g))
    assert potential(w, g) == pytest.approx(naive, rel=1e-15)
    with pytest.raises(ValueError):
        potential(np.zeros(3), np.zeros(4))


def test_hebbian_examples():
    w = np.array([0.5, -0.25, 0.1])
    sigma_abs = np.full(3, 0.3)
    psi_abs = np.full(3, 1.2)
    g = np.array([0.9, 0.8, 0.7])

    assert np.array_equal(hebbian_rhs(w, sigma_abs, psi_abs, g, 0.0), -w)

    assert np.all(hebbian_rhs(np.zeros(3), sigma_abs, psi_abs, g, 2.0) > 0.0)

    c = 1.7
    fixed = c * 0.3 * g * 1.2
    assert np.allclose(hebbian_rhs(fixed, sigma_abs, psi_abs, g, c), 0.0, atol=1e-15)


def test_hebbian_rhs_matches_the_product_of_moduli():
    # against c |sigma| g |psi| - w in the paper's factor order, at the
    # model's amplitudes (|sigma| <= 0.25, psi ~ 1, |w| <= 1). The two terms
    # can cancel, so the 1e-15 is relative to their size, not to the result.
    rng = np.random.default_rng(19)
    n = 30
    for trial in range(200):
        sigma = 0.25 * rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.uniform(-1.0, 1.0, n) if trial % 2 else np.zeros(n)
        g = rng.uniform(0.0, 1.0, n)
        c = rng.uniform(0.0, 2.0)
        product = c * np.abs(sigma) * g * np.abs(psi)
        got = hebbian_rhs(w, np.abs(sigma), np.abs(psi), g, c)
        assert np.all(np.abs(got - (product - w)) <= 1e-15 * (product + np.abs(w)))
        # no learning, or no volatility, leaves the pure decay -w exactly
        assert np.array_equal(hebbian_rhs(w, np.abs(sigma), np.abs(psi), g, 0.0), -w)
        assert np.array_equal(hebbian_rhs(w, np.zeros(n), np.abs(psi), g, c), -w)


def test_coupled_rhs_fixed_point():
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    zeros = np.zeros(cfg.n)
    d_sigma, d_psi, d_w = rhs_of(0.3, (zeros, zeros, zeros), grid, np.ones(cfg.n), cfg)
    assert np.all(d_sigma == 0.0)
    assert np.all(d_psi == 0.0)
    assert np.all(d_w == 0.0)


def test_coupled_rhs_modulus_preserving_when_psi_zero():
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    rng = np.random.default_rng(23)
    one_minus_m_sq = (1.0 - rng.uniform(-1, 1, cfg.n)) ** 2
    sigma = rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
    state = (sigma, np.zeros(cfg.n), rng.normal(size=cfg.n))
    d_sigma, _, _ = rhs_of(0.1, state, grid, one_minus_m_sq, cfg)
    # phase rotation only: d|sigma|^2/dt = 2 Re(conj(sigma) dsigma) = 0
    assert np.allclose((np.conj(sigma) * d_sigma).real, 0.0, atol=1e-12)


def test_coupled_rhs_matches_single_node_oracle_at_start_values():
    cfg = small_config(n=30)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    y0, m = init_state(cfg)
    sigma, psi, w = unpack_state(y0, cfg.n)
    t = 0.0
    d_sigma, d_psi, d_w = unpack_state(coupled_rhs(t, y0, grid, (1.0 - m) ** 2, cfg), cfg.n)

    # hand-assembled: spatially constant fields kill both diffusion terms
    d_oracle = sum(grid.nodes[k] * 0.25**2 * grid.ds for k in range(cfg.n)) - 2.0 * np.sin(
        60.0 * t
    )
    g_oracle = np.array([np.exp(-((d_oracle * (1.0 - m_i)) ** 2)) for m_i in m])
    v_oracle = float(np.sum(w * g_oracle))

    assert np.allclose(np.abs(d_sigma), abs(v_oracle) * 0.25**3, rtol=1e-12)
    assert np.allclose(np.abs(d_psi), 1.0 + cfg.r, rtol=1e-12)
    assert np.allclose(d_w, -w + cfg.c * 0.25 * g_oracle * 1.0, rtol=1e-12)
    # pure phase rotations
    assert np.allclose((np.conj(sigma) * d_sigma).real, 0.0, atol=1e-14)
    assert np.allclose((np.conj(psi) * d_psi).real, 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 8, 30])
def test_flat_rhs_matches_field_by_field_oracle(n):
    cfg = small_config(n=n, r=0.01, c=1.3)
    grid = make_grid(cfg.s0, cfg.s1, n)
    rng = np.random.default_rng(n)
    m = rng.uniform(-1, 1, n)
    for t in (0.0, 0.0123, 1.7, 359.9):
        # amplitudes near the model's operating point keep the kernels off underflow
        sigma = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.uniform(-1, 1, n)
        d = rhs_of(t, (sigma, psi, w), grid, (1.0 - m) ** 2, cfg)
        oracle = coupled_rhs_oracle(t, sigma, psi, w, grid, m, cfg.r, cfg.c)
        for got, want in zip(d, oracle):  # sigma, psi, w
            assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_flat_rhs_neither_mutates_nor_aliases_its_state():
    cfg = small_config(n=8)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    rng = np.random.default_rng(5)
    one_minus_m_sq = (1.0 - rng.uniform(-1, 1, cfg.n)) ** 2
    y = rng.normal(size=5 * cfg.n)
    before = y.copy()
    y.setflags(write=False)  # any write into the state raises
    out = coupled_rhs(0.4, y, grid, one_minus_m_sq, cfg)
    assert np.array_equal(y, before)
    assert out.shape == y.shape
    assert not np.shares_memory(out, y)


def test_endpoint_derivatives_agree_under_wrap():
    cfg = small_config(n=12)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    y0, m = init_state(cfg)
    d_sigma, d_psi, _ = unpack_state(coupled_rhs(0.0, y0, grid, (1.0 - m) ** 2, cfg), cfg.n)
    # spatially constant state: the repeatable-BC residual is exactly zero
    assert d_sigma[0] == d_sigma[-1]
    assert d_psi[0] == d_psi[-1]


def test_init_state_values_and_seeding():
    cfg = small_config(n=30, seed=42)
    y0, m = init_state(cfg)
    # PRNG_SPEC: w is the first uniform(-1, 1) draw of the seed, m the second
    rng = np.random.default_rng(42)
    w = rng.uniform(-1.0, 1.0, 30)
    assert np.array_equal(m, rng.uniform(-1.0, 1.0, 30))
    assert np.array_equal(y0, pack_state(np.full(30, 0.25), np.full(30, 1.0), w))
    assert np.all(np.abs(m) <= 1.0)

    again, m_again = init_state(cfg)
    assert np.array_equal(y0, again)
    assert np.array_equal(m, m_again)

    other, m_other = init_state(dataclasses.replace(cfg, seed=43))
    assert not np.array_equal(y0, other)
    assert not np.array_equal(m, m_other)


def assert_draws_match_default_rng(seed, n):
    """init_state's w and m are default_rng(seed)'s first two uniform(-1, 1)
    draws of n, compared as uint64 bit patterns."""
    y0, m = init_state(ModelConfig(n=n, seed=seed))
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, n)
    assert np.array_equal(unpack_state(y0, n)[2].view(np.uint64), w.view(np.uint64))
    assert np.array_equal(m.view(np.uint64), rng.uniform(-1.0, 1.0, n).view(np.uint64))


@pytest.mark.parametrize("n", [3, 30, 257])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**200 + 7])
def test_init_state_draws_are_default_rng_bit_for_bit(seed, n):
    assert_draws_match_default_rng(seed, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**128 - 1))
def test_init_state_draws_are_default_rng_for_any_seed(seed):
    assert_draws_match_default_rng(seed, 8)


def test_pack_state_roundtrip():
    rng = np.random.default_rng(31)
    n = 7
    state = (
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n),
    )
    y = pack_state(*state)
    assert y.shape == (5 * n,)
    for back, original in zip(unpack_state(y, n), state):  # sigma, psi, w
        assert np.array_equal(back, original)
        assert not np.shares_memory(back, y)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(r=-0.1)
    with pytest.raises(ConfigError):
        ModelConfig(c=-1.0)
    with pytest.raises(ConfigError, match=r"need at least 3 lines, got n=2"):
        ModelConfig(n=2)
    with pytest.raises(ConfigError, match=r"s1 > s0, got \[10\.0, 5\.0\]"):
        ModelConfig(s0=10.0, s1=5.0)
    with pytest.raises(ConfigError):
        ModelConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(snapshot_stride=0.0)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        ModelConfig(seed=-1)


def test_output_size_is_bounded_before_integrating():
    # the default run and a dense 0.05-day stride stay far below the cap
    ModelConfig()
    ModelConfig(t_end=10.0, snapshot_stride=0.05)
    with pytest.raises(ConfigError, match="output cell limit"):
        ModelConfig(t_end=1e12, snapshot_stride=1.0)
    with pytest.raises(ConfigError, match="output cell limit"):
        ModelConfig(t_end=1e308, snapshot_stride=1e-300)  # the ratio overflows to inf
    # the count scales with the number of lines
    ModelConfig(n=3, t_end=1e6, snapshot_stride=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(n=30, t_end=1e6, snapshot_stride=1.0)


def test_config_checks_its_grid_last():
    # make_grid runs after the other checks: a huge n meets the cap before it
    # is allocated, and a config that breaks a grid rule and another rule
    # reports the other
    with pytest.raises(ConfigError, match="output cell limit"):
        ModelConfig(n=10**15, t_end=0.0)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        ModelConfig(n=2, seed=-1)


def test_zero_horizon_records_only_the_initial_snapshot():
    rec = run_simulation(small_config(t_end=0.0))
    assert rec.times.shape == (1,)
    assert rec.times[0] == 0.0
    assert np.all(rec.sigma_pdf == 0.0625)
    assert np.all(np.abs(rec.psi) ** 2 == 1.0)
    assert rec.times[-1] == rec.config.t_end


def test_snapshot_times_are_stride_multiples():
    rec = run_simulation(small_config(t_end=2.5, snapshot_stride=1.0))
    assert np.array_equal(rec.times, [0.0, 1.0, 2.0, 2.5])


def test_record_is_seed_deterministic():
    rec_a = run_simulation(small_config(t_end=3.0))
    rec_b = run_simulation(small_config(t_end=3.0))
    assert np.array_equal(rec_a.times, rec_b.times)
    assert np.array_equal(rec_a.sigma, rec_b.sigma)
    assert np.array_equal(rec_a.psi, rec_b.psi)
    assert np.array_equal(rec_a.w, rec_b.w)
    assert np.array_equal(rec_a.g, rec_b.g)
    assert rec_a.stats == rec_b.stats


def test_constant_fields_keep_their_moduli():
    cfg = small_config(n=16, t_end=5.0)
    rec = run_simulation(cfg)
    tol = cfg.control.abs_tol
    assert np.max(np.abs(rec.sigma_pdf - 0.0625)) < 100.0 * tol
    assert np.max(np.abs(np.abs(rec.psi) ** 2 - 1.0)) < 100.0 * tol


def test_kernel_range_and_weight_bound_along_run():
    cfg = small_config(n=12, t_end=8.0, seed=11)
    rec = run_simulation(cfg)
    assert np.all(rec.g > 0.0) and np.all(rec.g <= 1.0)

    sup_product = 0.0
    w0 = np.abs(rec.w[0])
    for j in range(len(rec.times)):
        sup_product = max(
            sup_product,
            float(np.max(np.abs(rec.sigma[j])) * np.max(np.abs(rec.psi[j]))),
        )
        bound = np.maximum(w0, cfg.c * sup_product) + 1e-9
        assert np.all(np.abs(rec.w[j]) <= bound)


def test_nonfinite_state_aborts_with_node_and_time():
    # a non-finite derivative is returned as computed; the step built on it
    # has an infinite error norm, so the driver rejects it
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    sigma = np.full(cfg.n, 0.25 + 0.0j)
    sigma[3] = np.inf
    state = (sigma, np.ones(cfg.n), np.zeros(cfg.n))
    y = pack_state(*state)
    rhs = lambda t, y: coupled_rhs(t, y, grid, np.ones(cfg.n), cfg)
    # the errstate integrate_adaptive sets around every step and its norm
    with np.errstate(over="ignore", invalid="ignore"):
        d_sigma, _, _ = rhs_of(1.25, state, grid, np.ones(cfg.n), cfg)
        _, err = cash_karp_step(rhs, 1.25, y, 1e-3)
        norm = _scaled_error_norm(err, y, cfg.control)
    assert not np.isfinite(d_sigma[3])
    assert norm == float("inf")


def test_finite_derivative_whose_sum_overflows_is_returned():
    # every dw_i = 1e308 is finite, but their sum overflows
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    one_minus_m_sq = (1.0 - np.full(cfg.n, -1.0)) ** 2  # g_i = exp(-16) keeps V finite
    state = (np.zeros(cfg.n), np.zeros(cfg.n), np.full(cfg.n, -1e308))
    # the errstate integrate_adaptive sets around every rhs call
    with np.errstate(over="ignore", invalid="ignore"):
        d_sigma, d_psi, d_w = rhs_of(np.pi / 120.0, state, grid, one_minus_m_sq, cfg)
    assert np.all(d_w == 1e308)
    assert np.all(d_sigma == 0.0) and np.all(d_psi == 0.0)


def test_uniform_start_stays_uniform_across_lines():
    # With the paper's start values (sigma = 0.25, psi = 1 on every line) the
    # coupling is the same on every line and each Laplacian is exactly zero,
    # so both densities stay exactly flat in price (see the README model
    # summary); the weights enter those equations only through the scalar V.
    rec = run_simulation(ModelConfig(t_end=2.0))
    assert rec.times[-1] == rec.config.t_end and len(rec.times) == 3
    for pdf in (rec.sigma_pdf, np.abs(rec.psi) ** 2):
        spread = pdf.max(axis=1) - pdf.min(axis=1)
        assert np.all(spread == 0.0)
    assert not np.array_equal(rec.psi[-1], rec.psi[0])  # the fields did evolve


def test_budget_failure_attaches_partial_record():
    cfg = small_config(
        t_end=5.0,
        control=StepControl(abs_tol=1e-6, rel_tol=1e-6, max_steps=25),
    )
    with pytest.raises(StepBudgetError) as exc:
        run_simulation(cfg)
    rec = exc.value.record
    assert rec is not None
    assert rec.times[-1] < cfg.t_end
    assert len(rec.times) >= 1
    assert rec.stats.accepted + rec.stats.rejected == 25


def test_budget_spent_exactly_at_a_snapshot():
    # the first segment of a two-day run takes the steps of a one-day run, so
    # a budget of exactly that many runs out as the second segment begins
    one_day = run_simulation(small_config(t_end=1.0)).stats
    spent = one_day.accepted + one_day.rejected
    cfg = small_config(control=StepControl(abs_tol=1e-6, rel_tol=1e-6, max_steps=spent))
    with pytest.raises(StepBudgetError, match=rf"^step budget of {spent} exhausted at t=1\.0$") as exc:
        run_simulation(cfg)
    rec = exc.value.record
    assert rec.times[-1] < cfg.t_end
    assert len(rec.times) == 2
    assert rec.stats.accepted + rec.stats.rejected == spent
    # a budget of exactly the two-day run's steps suffices
    two_days = run_simulation(small_config()).stats
    cfg = small_config(control=StepControl(abs_tol=1e-6, rel_tol=1e-6,
                                           max_steps=two_days.accepted + two_days.rejected))
    assert run_simulation(cfg).times[-1] == cfg.t_end


def test_stiffness_failure_mid_run_carries_the_run_stats(stiff_third_segment):
    # segments 1 and 2 land; segment 3's first attempt is rejected at h_min
    cfg = ModelConfig(n=8, t_end=5.0)
    with pytest.raises(StiffnessError, match=r"^error norm .* not satisfiable at h_min=.* \(t=2\.0\)$") as exc:
        run_simulation(cfg)
    err = exc.value
    assert err.t == 2.0
    assert np.array_equal(err.record.times, [0.0, 1.0, 2.0])
    assert err.stats is err.record.stats
    # the two-day run's steps plus the one failed attempt
    two_days = run_simulation(ModelConfig(n=8, t_end=2.0)).stats
    assert (err.stats.accepted, err.stats.rejected) == (two_days.accepted, two_days.rejected + 1)


def test_partial_record_rows_agree():
    # a budget failure some segments in: every array holds the filled rows only
    cfg = ModelConfig(t_end=20.0, control=StepControl(abs_tol=1e-6, rel_tol=1e-6, max_steps=300))
    with pytest.raises(StepBudgetError) as exc:
        run_simulation(cfg)
    rec = exc.value.record
    rows = len(rec.times)
    assert 1 < rows < len(_snapshot_times(cfg.t_end, cfg.snapshot_stride))
    assert np.array_equal(rec.times, np.arange(rows, dtype=float))
    for block in (rec.sigma, rec.psi, rec.w, rec.g):
        assert block.shape == (rows, cfg.n)
    # the uniform start's exact solution: |sigma|^2 = 1/16 and psi = exp(-i(1+r)t)
    assert np.max(np.abs(rec.sigma_pdf - 0.0625)) < 1e-9  # measured 1.4e-11
    psi_exact = np.exp(-1j * (1.0 + cfg.r) * rec.times)[:, None]
    assert np.max(np.abs(rec.psi - psi_exact)) < 1e-6  # measured 3.0e-8
    # the budget does not alter the steps, so the rows are the unbounded run's
    full = run_simulation(ModelConfig(t_end=20.0))
    for name in ("sigma", "psi", "w", "g"):
        assert np.array_equal(getattr(rec, name), getattr(full, name)[:rows])
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    _, m = init_state(cfg)
    one_minus_m_sq = (1.0 - m) ** 2
    # the kernels come from the very density rows that volatility_pdf.csv holds
    g = [gaussian_kernels(t, pdf, grid, one_minus_m_sq)
         for t, pdf in zip(rec.times, rec.sigma_pdf)]
    assert np.array_equal(rec.g, g)
