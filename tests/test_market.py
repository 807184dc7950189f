import dataclasses

import numpy as np
import pytest

from nlsmarket import (
    BoundaryPolicy,
    ConfigError,
    KernelParams,
    MarketState,
    ModelConfig,
    StepBudgetError,
    StepControl,
    coupled_rhs,
    gaussian_kernels,
    hebbian_rhs,
    init_state,
    make_grid,
    potential,
    run_simulation,
    target_output,
    target_signal,
)
from nlsmarket.market import _snapshot_times, modulus_sq, pack_state, unpack_state

from oracles import coupled_rhs_oracle, dense_second_difference


def small_config(**kw):
    base = dict(n=8, t_end=2.0, snapshot_stride=1.0, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def state_of(sigma, psi, w, t=0.0):
    return MarketState(
        sigma=np.asarray(sigma, dtype=complex),
        psi=np.asarray(psi, dtype=complex),
        w=np.asarray(w, dtype=float),
        t=t,
    )


def rhs_of(t, state, grid, params, cfg):
    """The flat coupled_rhs on a packed MarketState, unpacked again."""
    return unpack_state(coupled_rhs(t, pack_state(state), grid, params, cfg), cfg.n, t)


def density(state):
    return np.abs(state.sigma) ** 2


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
    zero = state_of(np.zeros(30), np.ones(30), np.zeros(30))
    assert target_output(density(zero), grid) == 0.0

    flat = state_of(np.full(30, 0.25), np.ones(30), np.zeros(30))
    # independent direct summation
    expected = sum(0.25**2 * s for s in grid.nodes) * grid.ds
    assert expected == pytest.approx(9.698275862068966, rel=1e-12)
    assert target_output(density(flat), grid) == pytest.approx(expected, rel=1e-13)

    lone = np.zeros(30)
    lone[4] = 1.0
    single = state_of(lone, np.ones(30), np.zeros(30))
    assert target_output(density(single), grid) == pytest.approx(grid.nodes[4] * grid.ds, rel=1e-13)


def test_gaussian_kernel_examples():
    grid = make_grid(10.0, 20.0, 5)
    params = KernelParams(m=np.array([0.0, 0.5, 1.0, -0.5, 0.9]))

    # sigma = 0 at t = 0 gives d = 0, so every kernel is exactly one
    zero = state_of(np.zeros(5), np.ones(5), np.zeros(5))
    assert np.all(gaussian_kernels(0.0, density(zero), grid, params) == 1.0)

    # build d = 1 by putting all the density on one node
    j = 2
    amp = 1.0 / np.sqrt(grid.nodes[j] * grid.ds)
    sigma = np.zeros(5)
    sigma[j] = amp
    one = state_of(sigma, np.ones(5), np.zeros(5))
    assert target_output(density(one), grid) == pytest.approx(1.0, rel=1e-12)
    g = gaussian_kernels(0.0, density(one), grid, params)
    assert g[0] == pytest.approx(np.exp(-1.0), rel=1e-12)  # m = 0
    assert g[2] == pytest.approx(1.0, rel=1e-14)  # m = 1 kills the exponent
    assert np.all((g > 0.0) & (g <= 1.0))


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
    st = state_of(np.full(3, 0.3), np.full(3, 1.2), w)
    g = np.array([0.9, 0.8, 0.7])

    assert np.array_equal(hebbian_rhs(st.w, st.sigma, st.psi, g, 0.0), -w)

    st0 = state_of(np.full(3, 0.3), np.full(3, 1.2), np.zeros(3))
    assert np.all(hebbian_rhs(st0.w, st0.sigma, st0.psi, g, 2.0) > 0.0)

    c = 1.7
    fixed = c * 0.3 * g * 1.2
    st_fix = state_of(np.full(3, 0.3), np.full(3, 1.2), fixed)
    assert np.allclose(hebbian_rhs(st_fix.w, st_fix.sigma, st_fix.psi, g, c), 0.0, atol=1e-15)


def test_coupled_rhs_fixed_point():
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    params = KernelParams(m=np.zeros(cfg.n))
    st = state_of(np.zeros(cfg.n), np.zeros(cfg.n), np.zeros(cfg.n))
    d = rhs_of(0.3, st, grid, params, cfg)
    assert np.all(d.sigma == 0.0)
    assert np.all(d.psi == 0.0)
    assert np.all(d.w == 0.0)


def test_coupled_rhs_modulus_preserving_when_psi_zero():
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    rng = np.random.default_rng(23)
    params = KernelParams(m=rng.uniform(-1, 1, cfg.n))
    sigma = rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
    st = state_of(sigma, np.zeros(cfg.n), rng.normal(size=cfg.n))
    d = rhs_of(0.1, st, grid, params, cfg)
    # phase rotation only: d|sigma|^2/dt = 2 Re(conj(sigma) dsigma) = 0
    assert np.allclose((np.conj(sigma) * d.sigma).real, 0.0, atol=1e-12)


def test_coupled_rhs_matches_single_node_oracle_at_start_values():
    cfg = small_config(n=30)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    state, params = init_state(cfg)
    t = 0.0
    d = rhs_of(t, state, grid, params, cfg)

    # hand-assembled: spatially constant fields kill both diffusion terms
    d_oracle = sum(grid.nodes[k] * 0.25**2 * grid.ds for k in range(cfg.n)) - 2.0 * np.sin(
        60.0 * t
    )
    g_oracle = np.array([np.exp(-((d_oracle * (1.0 - m)) ** 2)) for m in params.m])
    v_oracle = float(np.sum(state.w * g_oracle))

    assert np.allclose(np.abs(d.sigma), abs(v_oracle) * 0.25**3, rtol=1e-12)
    assert np.allclose(np.abs(d.psi), 1.0 + cfg.r, rtol=1e-12)
    assert np.allclose(d.w, -state.w + cfg.c * 0.25 * g_oracle * 1.0, rtol=1e-12)
    # pure phase rotations
    assert np.allclose((np.conj(state.sigma) * d.sigma).real, 0.0, atol=1e-14)
    assert np.allclose((np.conj(state.psi) * d.psi).real, 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 8, 30])
def test_flat_rhs_matches_field_by_field_oracle(n):
    cfg = small_config(n=n, r=0.01, c=1.3)
    grid = make_grid(cfg.s0, cfg.s1, n)
    rng = np.random.default_rng(n)
    params = KernelParams(m=rng.uniform(-1, 1, n))
    for t in (0.0, 0.0123, 1.7, 359.9):
        # amplitudes near the model's operating point keep the kernels off underflow
        sigma = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.uniform(-1, 1, n)
        d = rhs_of(t, state_of(sigma, psi, w, t), grid, params, cfg)
        d_sigma, d_psi, d_w = coupled_rhs_oracle(t, sigma, psi, w, grid, params.m, cfg.r, cfg.c)
        assert np.allclose(d.sigma, d_sigma, rtol=1e-13, atol=0)
        assert np.allclose(d.psi, d_psi, rtol=1e-13, atol=0)
        assert np.allclose(d.w, d_w, rtol=1e-13, atol=0)


def test_flat_rhs_neither_mutates_nor_aliases_its_state():
    cfg = small_config(n=8)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    rng = np.random.default_rng(5)
    params = KernelParams(m=rng.uniform(-1, 1, cfg.n))
    y = rng.normal(size=5 * cfg.n)
    before = y.copy()
    y.setflags(write=False)  # any write into the state raises
    out = coupled_rhs(0.4, y, grid, params, cfg)
    assert np.array_equal(y, before)
    assert out.shape == y.shape
    assert not np.shares_memory(out, y)


def test_modulus_sq_is_re2_plus_im2():
    z = np.array([[3.0 + 4.0j, -1.5 + 0.0j], [0.0 - 2.0j, 1e-3 + 1e3j]])
    assert np.array_equal(modulus_sq(z), z.real**2 + z.imag**2)
    assert np.array_equal(modulus_sq(z[1]), [4.0, 1e-6 + 1e6])
    assert np.allclose(modulus_sq(z), np.abs(z) ** 2, rtol=1e-15)


def test_endpoint_derivatives_agree_under_wrap():
    cfg = small_config(n=12)
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    state, params = init_state(cfg)
    d = rhs_of(0.0, state, grid, params, cfg)
    # spatially constant state: the repeatable-BC residual is exactly zero
    assert d.sigma[0] == d.sigma[-1]
    assert d.psi[0] == d.psi[-1]


def test_wrap_stencil_wiring():
    grid = make_grid(0.0, 1.0, 6)
    dense = dense_second_difference(6, grid.ds, BoundaryPolicy.PERIODIC)
    scale = 1.0 / grid.ds**2
    assert dense[0, 5] == scale and dense[0, 0] == -2.0 * scale and dense[0, 1] == scale
    assert dense[5, 4] == scale and dense[5, 5] == -2.0 * scale and dense[5, 0] == scale
    # the library operator realizes exactly those rows
    from nlsmarket import second_difference

    for k in (0, 5):
        basis = np.zeros(6)
        basis[k] = 1.0
        assert np.allclose(second_difference(basis, grid, BoundaryPolicy.PERIODIC), dense[:, k])


def test_init_state_values_and_seeding():
    cfg = small_config(n=30, seed=42)
    state, params = init_state(cfg)
    assert np.all(state.sigma == 0.25 + 0.0j)
    assert np.all(state.psi == 1.0 + 0.0j)
    assert state.t == 0.0
    assert np.all(np.abs(params.m) <= 1.0)

    again, params_again = init_state(cfg)
    assert np.array_equal(state.w, again.w)
    assert np.array_equal(params.m, params_again.m)

    other, params_other = init_state(dataclasses.replace(cfg, seed=43))
    assert not np.array_equal(state.w, other.w)
    assert not np.array_equal(params.m, params_other.m)


def test_pack_state_roundtrip():
    rng = np.random.default_rng(31)
    n = 7
    st = state_of(
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n),
        t=1.5,
    )
    y = pack_state(st)
    assert y.shape == (5 * n,)
    back = unpack_state(y, n, 1.5)
    assert np.array_equal(back.sigma, st.sigma)
    assert np.array_equal(back.psi, st.psi)
    assert np.array_equal(back.w, st.w)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(r=-0.1)
    with pytest.raises(ConfigError):
        ModelConfig(c=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(n=2)
    with pytest.raises(ConfigError):
        ModelConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(snapshot_stride=0.0)


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


def test_zero_horizon_records_only_the_initial_snapshot():
    rec = run_simulation(small_config(t_end=0.0))
    assert rec.times.shape == (1,)
    assert rec.times[0] == 0.0
    assert np.all(rec.sigma_pdf == 0.0625)
    assert np.all(rec.psi_pdf == 1.0)
    assert rec.completed


def test_snapshot_times_are_stride_multiples():
    rec = run_simulation(small_config(t_end=2.5, snapshot_stride=1.0))
    assert np.array_equal(rec.times, [0.0, 1.0, 2.0, 2.5])


def test_decoupled_weights_decay_exponentially():
    cfg = small_config(n=10, c=0.0, t_end=5.0)
    rec = run_simulation(cfg)
    w0 = rec.w[0]
    for j, t in enumerate(rec.times):
        assert np.max(np.abs(rec.w[j] - w0 * np.exp(-t))) < 50.0 * cfg.control.abs_tol


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
    assert np.max(np.abs(rec.psi_pdf - 1.0)) < 100.0 * tol
    # recorded masses follow
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    expected_mass_sigma = 0.0625 * cfg.n * grid.ds
    assert np.max(np.abs(rec.mass_sigma - expected_mass_sigma)) < 100.0 * tol * cfg.n


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
    from nlsmarket import NonFiniteError

    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    params = KernelParams(m=np.zeros(cfg.n))
    sigma = np.full(cfg.n, 0.25 + 0.0j)
    sigma[3] = np.inf
    st = state_of(sigma, np.ones(cfg.n), np.zeros(cfg.n))
    # the errstate cash_karp_step sets around every rhs call
    with pytest.raises(NonFiniteError) as exc, np.errstate(over="ignore", invalid="ignore"):
        rhs_of(1.25, st, grid, params, cfg)
    assert exc.value.node is not None
    assert exc.value.t == 1.25


def test_finite_derivative_whose_sum_overflows_is_returned():
    # every dw_i = 1e308 is finite, but their sum overflows
    cfg = small_config()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    params = KernelParams(m=np.full(cfg.n, -1.0))  # g_i = exp(-16) keeps V finite
    st = state_of(np.zeros(cfg.n), np.zeros(cfg.n), np.full(cfg.n, -1e308))
    # the errstate cash_karp_step sets around every rhs call
    with np.errstate(over="ignore", invalid="ignore"):
        d = rhs_of(np.pi / 120.0, st, grid, params, cfg)
    assert np.all(d.w == 1e308)
    assert np.all(d.sigma == 0.0) and np.all(d.psi == 0.0)


def test_uniform_start_stays_uniform_across_lines():
    # With the paper's start values (sigma = 0.25, psi = 1 on every line) the
    # coupling is the same on every line and each Laplacian is exactly zero,
    # so both densities stay exactly flat in price (see the README model
    # summary); the weights enter those equations only through the scalar V.
    rec = run_simulation(ModelConfig(t_end=2.0))
    assert rec.completed and len(rec.times) == 3
    for pdf in (rec.sigma_pdf, rec.psi_pdf):
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
    assert not rec.completed
    assert len(rec.times) >= 1
    assert rec.stats.accepted + rec.stats.rejected == 25
