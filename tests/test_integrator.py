import numpy as np
import pytest

from nlsmarket import (
    ConfigError,
    ModelConfig,
    NonFiniteError,
    OdeSystem,
    StepBudgetError,
    StepControl,
    StiffnessError,
    cash_karp_step,
    coupled_rhs,
    init_state,
    integrate_adaptive,
    make_grid,
)
from nlsmarket.integrator import ERROR_WEIGHTS, STAGE_COEFFS, STAGE_TIMES, WEIGHTS_5TH
from nlsmarket.market import pack_state

EXP = OdeSystem(1, lambda t, y: y)
ROTATION = OdeSystem(2, lambda t, y: np.array([-y[1], y[0]]))


def test_stationary_system_step():
    sys0 = OdeSystem(3, lambda t, y: np.zeros(3))
    y0 = np.array([1.0, -2.0, 0.5])
    y5, err = cash_karp_step(sys0, 0.0, y0, 0.7)
    assert np.array_equal(y5, y0)
    assert np.all(err == 0.0)


def test_exponential_single_step():
    y5, err = cash_karp_step(EXP, 0.0, np.array([1.0]), 0.1)
    assert abs(y5[0] - np.exp(0.1)) < 1e-9
    # embedded 4th/5th difference for this step, frozen from the tableau
    assert abs(err[0]) == pytest.approx(2.0852e-9, rel=1e-3)
    # err estimates the 4th-order solution's local error
    y4 = y5[0] - err[0]
    assert abs(y4 - np.exp(0.1)) < 5e-9


def test_rotation_single_step():
    y5, _ = cash_karp_step(ROTATION, 0.0, np.array([1.0, 0.0]), 0.1)
    assert abs(y5[0] - np.cos(0.1)) < 1e-9
    assert abs(y5[1] - np.sin(0.1)) < 1e-9


def test_step_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        cash_karp_step(EXP, 0.0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        cash_karp_step(EXP, 0.0, np.array([1.0, 2.0]), 0.1)


def test_adaptive_exponential():
    ctl = StepControl(abs_tol=1e-8, rel_tol=1e-8)
    y, stats = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl)
    assert abs(y[0] - np.e) < 1e-7
    assert stats.rhs_evaluations == 6 * (stats.accepted + stats.rejected)


def test_zero_rhs_is_exact():
    sys0 = OdeSystem(2, lambda t, y: np.zeros(2))
    y0 = np.array([3.0, -1.0])
    ctl = StepControl(abs_tol=1e-10, rel_tol=1e-10)
    y, stats = integrate_adaptive(sys0, 0.0, 7.0, y0, ctl)
    assert np.array_equal(y, y0)
    assert stats.rejected == 0


def test_global_error_decreases_with_tolerance():
    # h_max must not bind or the loose runs collapse onto the same step size
    errors = []
    for tol in (1e-4, 1e-6, 1e-8):
        ctl = StepControl(abs_tol=tol, rel_tol=tol, h_max=1.0)
        y, _ = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl)
        errors.append(abs(y[0] - np.e))
    assert errors[0] > errors[1] > errors[2]


def test_fixed_step_order_is_fifth():
    errors = []
    for h in (0.1, 0.05, 0.025):
        ctl = StepControl(abs_tol=1e-4, rel_tol=1e-4, h_init=h, h_min=h, h_max=h)
        y, _ = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl)
        errors.append(abs(y[0] - np.e))
    for coarse, fine in zip(errors, errors[1:]):
        assert 24.0 <= coarse / fine <= 40.0


def test_observer_times_increase_and_end_at_t1():
    times = []
    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-6)
    integrate_adaptive(EXP, 0.0, 2.0, np.array([1.0]), ctl, observer=lambda t, y: times.append(t))
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == 2.0


def test_determinism_bitwise():
    def run():
        traj = []
        ctl = StepControl(abs_tol=1e-7, rel_tol=1e-7)
        y, stats = integrate_adaptive(
            ROTATION, 0.0, 10.0, np.array([1.0, 0.0]), ctl,
            observer=lambda t, y: traj.append((t, y[0], y[1])),
        )
        return y, stats, traj

    y_a, stats_a, traj_a = run()
    y_b, stats_b, traj_b = run()
    assert np.array_equal(y_a, y_b)
    assert stats_a == stats_b
    assert traj_a == traj_b


def test_rotation_radius_drift():
    # quadratic-invariant drift tracks the tolerance; the measured constant
    # for this pair and controller is about 115x tol, frozen here with slack
    for tol in (1e-6, 1e-8):
        worst = 0.0
        ctl = StepControl(abs_tol=tol, rel_tol=tol, h_min=1e-12)

        def watch(t, y):
            nonlocal worst
            worst = max(worst, abs(y[0] ** 2 + y[1] ** 2 - 1.0))

        integrate_adaptive(ROTATION, 0.0, 100.0, np.array([1.0, 0.0]), ctl, observer=watch)
        assert worst < 150.0 * tol


def test_step_budget_error_carries_stats():
    ctl = StepControl(abs_tol=1e-10, rel_tol=1e-10, max_steps=5)
    with pytest.raises(StepBudgetError) as exc:
        integrate_adaptive(EXP, 0.0, 50.0, np.array([1.0]), ctl)
    assert exc.value.stats is not None
    assert exc.value.stats.accepted + exc.value.stats.rejected == 5


def test_stiffness_error_at_h_min():
    # a fixed, too-large step for a fast decay can never satisfy the tolerance
    fast = OdeSystem(1, lambda t, y: -1e4 * y)
    ctl = StepControl(abs_tol=1e-12, rel_tol=1e-12, h_init=0.5, h_min=0.5, h_max=0.5)
    with pytest.raises(StiffnessError) as exc:
        integrate_adaptive(fast, 0.0, 10.0, np.array([1.0]), ctl)
    assert exc.value.t is not None


def test_nonfinite_rhs_fails_as_stiffness():
    def bad(t, y):
        raise NonFiniteError("boom", t=t, node=0)

    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-6, h_init=1e-3, h_min=1e-3, h_max=1e-3)
    with pytest.raises(StiffnessError):
        integrate_adaptive(OdeSystem(1, bad), 0.0, 1.0, np.array([1.0]), ctl)


def test_nonfinite_rhs_values_fail_as_stiffness():
    overflow = OdeSystem(1, lambda t, y: np.array([np.inf]))
    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-6, h_init=1e-3, h_min=1e-3, h_max=1e-3)
    with pytest.raises(StiffnessError):
        integrate_adaptive(overflow, 0.0, 1.0, np.array([1.0]), ctl)


def test_nonfinite_rhs_output_surfaces_in_single_step():
    overflow = OdeSystem(1, lambda t, y: np.array([np.inf]))
    y5, err = cash_karp_step(overflow, 0.0, np.array([1.0]), 0.1)
    assert not np.all(np.isfinite(y5)) or not np.all(np.isfinite(err))


def test_control_validation():
    with pytest.raises(ConfigError):
        StepControl(abs_tol=0.0, rel_tol=1e-6)
    with pytest.raises(ConfigError):
        StepControl(abs_tol=1e-6, rel_tol=1e-6, h_min=1e-2, h_init=1e-3)
    with pytest.raises(ConfigError):
        StepControl(abs_tol=1e-6, rel_tol=1e-6, safety=1.5)
    with pytest.raises(ConfigError):
        integrate_adaptive(EXP, 1.0, 0.0, np.array([1.0]), StepControl(abs_tol=1e-6, rel_tol=1e-6))


def allocating_cash_karp_step(system, t, y, h):
    """Reference step that allocates every stage state as y + h * (a_i . k)."""
    k = np.empty((6, system.dimension))
    k[0] = system.rhs(t, y)
    for i in range(1, 6):
        k[i] = system.rhs(t + STAGE_TIMES[i] * h, y + h * (STAGE_COEFFS[i] @ k[:i]))
    return y + h * (WEIGHTS_5TH @ k), h * (ERROR_WEIGHTS @ k)


@pytest.mark.parametrize("h", [1e-3, 0.05])
def test_step_matches_allocating_oracle_bit_for_bit(h):
    cfg = ModelConfig()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    state, params = init_state(cfg)

    def rhs(t, y):
        return coupled_rhs(t, y, grid, params, cfg)

    system = OdeSystem(5 * cfg.n, rhs)
    y0 = pack_state(state)
    # the initial fields are uniform; a perturbed state also exercises the stencil
    rough = y0 + 1e-2 * np.random.default_rng(1).normal(size=y0.size)
    for y in (y0, rough):
        y5, err = cash_karp_step(system, 0.25, y, h)
        ref_y5, ref_err = allocating_cash_karp_step(system, 0.25, y, h)
        assert np.array_equal(y5, ref_y5)
        assert np.array_equal(err, ref_err)
