import warnings

import numpy as np
import pytest

import nlsmarket.integrator as integrator
import nlsmarket.market as market
from nlsmarket.errors import ConfigError, StepBudgetError, StiffnessError
from nlsmarket.grid import make_grid
from nlsmarket.integrator import (
    ERROR_WEIGHTS,
    LANDING_SLACK,
    STAGE_COEFFS,
    STAGE_TIMES,
    TABLEAU,
    WEIGHTS_5TH,
    StepControl,
    _scaled_error_norm,
    cash_karp_step,
    integrate_adaptive,
    integrate_members,
)
from nlsmarket.ladder import complex_system, nls_rhs, pack_complex
from nlsmarket.market import ModelConfig, coupled_rhs, init_state, run_simulation

EXP = lambda t, y: y
ROTATION = lambda t, y: np.array([-y[1], y[0]])


def test_stationary_system_step():
    sys0 = lambda t, y: np.zeros(3)
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
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            cash_karp_step(EXP, 0.0, np.array([1.0]), h)
    # an rhs whose result is not shaped like the state breaks the Rhs
    # contract; a length-1 or scalar result would broadcast over a stage row
    for result in (np.zeros(3), np.zeros(1), 0.0):
        with pytest.raises(ValueError):
            cash_karp_step(lambda t, y: result, 0.0, np.array([1.0, 2.0]), 0.1)
    # the driver takes the state length from y0, which must be a vector
    with pytest.raises(ValueError):
        integrate_adaptive(EXP, 0.0, 1.0, np.ones((2, 2)), StepControl(abs_tol=1e-6, rel_tol=1e-6))


def test_adaptive_exponential():
    ctl = StepControl(abs_tol=1e-8, rel_tol=1e-8)
    y, stats = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl)
    assert abs(y[0] - np.e) < 1e-7
    assert stats.rhs_evaluations == 6 * (stats.accepted + stats.rejected)


def test_rhs_evaluations_count_every_call():
    # a first step far too large for the tolerance is rejected, and the
    # rejected attempts' evaluations are counted with the accepted ones'
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -50.0 * y

    ctl = StepControl(abs_tol=1e-8, rel_tol=1e-8, h_init=0.5, h_max=0.5)
    _, stats = integrate_adaptive(rhs, 0.0, 1.0, np.array([1.0]), ctl)
    assert stats.rejected > 0
    assert stats.rhs_evaluations == len(calls)


def test_zero_rhs_is_exact():
    sys0 = lambda t, y: np.zeros(2)
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
    fast = lambda t, y: -1e4 * y
    ctl = StepControl(abs_tol=1e-12, rel_tol=1e-12, h_init=0.5, h_min=0.5, h_max=0.5)
    with pytest.raises(StiffnessError) as exc:
        integrate_adaptive(fast, 0.0, 10.0, np.array([1.0]), ctl)
    assert exc.value.t is not None


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_rhs_fails_as_stiffness(value):
    # a non-finite derivative is rejected by the error norm, down to h_min
    bad = lambda t, y: np.full_like(y, value)
    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-6, h_init=1e-3, h_min=1e-3, h_max=1e-3)
    with pytest.raises(StiffnessError):
        integrate_adaptive(bad, 0.0, 1.0, np.array([1.0]), ctl)


def test_nonfinite_rhs_output_surfaces_in_single_step():
    overflow = lambda t, y: np.array([np.inf])
    # a bare step follows its caller's errstate, here pytest's warnings as errors
    with pytest.warns(RuntimeWarning):
        cash_karp_step(overflow, 0.0, np.array([1.0]), 0.1)
    # the errstate integrate_adaptive sets around the whole integration
    with np.errstate(over="ignore", invalid="ignore"):
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


def allocating_cash_karp_step(rhs, t, y, h):
    """Reference step that allocates every stage state as [1, h a_i] @ [y, k_0..k_i-1]
    and (y5, err) as one product of the rows [1, h b] and [0, h (b - b_hat)] with [y, k]."""
    rows = [y, rhs(t, y)]
    for i in range(1, 6):
        stage = np.concatenate(([1.0], h * STAGE_COEFFS[i])) @ np.array(rows)
        rows.append(rhs(t + STAGE_TIMES[i] * h, stage))
    weights = np.array([np.concatenate(([1.0], h * WEIGHTS_5TH)),
                        np.concatenate(([0.0], h * ERROR_WEIGHTS))])
    y5, err = weights @ np.array(rows)
    return y5, err


def market_system_and_state():
    cfg = ModelConfig()
    grid = make_grid(cfg.s0, cfg.s1, cfg.n)
    y0, m = init_state(cfg)

    def rhs(t, y):
        return coupled_rhs(t, y, grid, (1.0 - m) ** 2, cfg)

    return rhs, y0


def nls_system_and_state():
    # the ladder's soliton stage: d = 1,602, where np.dot and np.matmul could
    # pick different kernels for the stage sums
    grid = make_grid(-20.0, 20.0, 801)
    rhs = complex_system(lambda f: nls_rhs(f, grid, -1.0))
    return rhs, pack_complex(1.0 / np.cosh(grid.nodes))


@pytest.mark.parametrize("h", [1e-3, 0.05])
def test_step_matches_allocating_oracle_bit_for_bit(h):
    for rhs, y0 in (market_system_and_state(), nls_system_and_state()):
        # a uniform initial field leaves the stencil idle; a perturbed state does not
        rough = y0 + 1e-2 * np.random.default_rng(1).normal(size=y0.size)
        for y in (y0, rough):
            y5, err = cash_karp_step(rhs, 0.25, y, h)
            ref_y5, ref_err = allocating_cash_karp_step(rhs, 0.25, y, h)
            assert np.array_equal(y5, ref_y5)
            assert np.array_equal(err, ref_err)


def test_cash_karp_tableau_order_conditions():
    c = np.array(STAGE_TIMES)
    for a, c_i in zip(STAGE_COEFFS, c):
        assert a.sum() == pytest.approx(c_i, abs=1e-15)
    # quadrature conditions: b integrates t^(q-1) exactly up to q = 5, b_hat up to q = 4
    b_hat = WEIGHTS_5TH - ERROR_WEIGHTS
    for q in range(1, 6):
        assert WEIGHTS_5TH @ c ** (q - 1) == pytest.approx(1.0 / q, abs=1e-15)
    for q in range(1, 5):
        assert b_hat @ c ** (q - 1) == pytest.approx(1.0 / q, abs=1e-15)
    assert ERROR_WEIGHTS.sum() == pytest.approx(0.0, abs=1e-16)
    # the matrix over [y, k0..k5] holds the same numbers, bit for bit
    assert TABLEAU.shape == (8, 7)
    for i, a in enumerate(STAGE_COEFFS):
        expected = np.zeros(7)
        expected[0] = 1.0
        expected[1:1 + a.size] = a
        assert np.array_equal(TABLEAU[i], expected)
    assert np.array_equal(TABLEAU[6], np.concatenate(([1.0], WEIGHTS_5TH)))
    assert np.array_equal(TABLEAU[7], np.concatenate(([0.0], ERROR_WEIGHTS)))


def test_scaled_error_norm_is_the_max_formula():
    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-5)
    rng = np.random.default_rng(7)
    for size in (1, 150, 1602):
        err = rng.normal(scale=1e-6, size=size)
        y = rng.normal(size=size)
        expected = float(np.max(np.abs(err) / (ctl.abs_tol + ctl.rel_tol * np.abs(y))))
        assert _scaled_error_norm(err, y, ctl) == expected
        for bad in (np.nan, np.inf, -np.inf):
            broken = err.copy()
            broken[size // 2] = bad
            with np.errstate(invalid="ignore"):
                assert _scaled_error_norm(broken, y, ctl) == float("inf")


def cubic_decay(t, y):
    # y' = -1e6 y^3: a step of h = 0.5 from y = 1 overflows to inf, then NaN,
    # inside the stages
    return -1e6 * y**3


def saturating_decay(t, y):
    # y' = -50 y, saturating at +-1e306 outside |y| <= 2: a step of h = 1 from
    # y = 1 leaves every stage finite, but its error over the tolerance scale
    # overflows in the error norm
    return np.where(np.abs(y) <= 2.0, -50.0 * y, -1e306 * np.sign(y))


@pytest.mark.parametrize(
    "rhs, h_init, exact",
    [(cubic_decay, 0.5, (1.0 + 2e6) ** -0.5), (saturating_decay, 1.0, np.exp(-50.0))],
    ids=["rhs-overflow", "norm-overflow"],
)
def test_overflowing_large_step_is_rejected_without_warnings(rhs, h_init, exact):
    huge = []

    def watched(t, y):
        dy = rhs(t, y)
        if not np.all(np.abs(dy) < 1e300):
            huge.append(t)
        return dy

    ctl = StepControl(abs_tol=1e-8, rel_tol=1e-8, h_init=h_init, h_max=h_init)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, stats = integrate_adaptive(watched, 0.0, 1.0, np.array([1.0]), ctl)
    assert huge and stats.rejected >= 1
    assert y[0] == pytest.approx(exact, rel=1e-6, abs=1e-7)


def record_attempts(monkeypatch):
    """(t, h) of every step attempted from now on, accepted or not."""
    attempts = []
    original = integrator.cash_karp_step

    def recording(rhs, t, y, h):
        attempts.append((t, h))
        return original(rhs, t, y, h)

    monkeypatch.setattr(integrator, "cash_karp_step", recording)
    return attempts


def test_fixed_step_lands_on_t1_without_a_residue_step():
    # ten steps of 0.1 sum to 0.9999999999999999; the tenth lands on 1.0
    # instead of leaving a 1.1e-16 step behind
    ctl = StepControl(abs_tol=1e-4, rel_tol=1e-4, h_init=0.1, h_min=0.1, h_max=0.1)
    times = []
    _, stats = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl,
                                  observer=lambda t, y: times.append(t))
    assert stats.accepted == 10 and stats.rejected == 0
    assert stats.min_h_used >= ctl.h_min
    assert stats.max_h_used <= ctl.h_max * (1.0 + LANDING_SLACK)
    assert times[-1] == 1.0


def test_step_after_a_rejection_never_grows(monkeypatch):
    # sharp periodic pulses: the steps grow between pulses and are rejected
    # on meeting the next one
    pulses = lambda t, y: 10.0 * np.exp(-((np.sin(3.0 * t) / 0.02) ** 2)) - y
    attempts = record_attempts(monkeypatch)
    ctl = StepControl(abs_tol=1e-7, rel_tol=1e-7)
    _, stats = integrate_adaptive(pulses, 0.0, 5.0, np.array([1.0]), ctl)
    assert len(attempts) == stats.accepted + stats.rejected
    checked = 0
    for (t_a, h_a), (t_b, h_b), (t_c, h_c) in zip(attempts, attempts[1:], attempts[2:]):
        if t_b == t_a and t_c > t_b:
            # attempt a was rejected and b, accepted, was the first after it
            assert h_b < h_a
            assert h_c <= h_b * (1.0 + LANDING_SLACK)
            checked += 1
    assert checked >= 5


def test_next_h_is_the_last_proposal_before_landing():
    # steps capped by h_max = 0.3 over [0, 1]: 0.3, 0.3, 0.3 and a landing
    # step of 0.1, whose own proposal is not carried
    ctl = StepControl(abs_tol=1e-4, rel_tol=1e-4, h_init=0.3, h_max=0.3)
    _, stats = integrate_adaptive(EXP, 0.0, 1.0, np.array([1.0]), ctl)
    assert stats.accepted == 4 and stats.min_h_used == pytest.approx(0.1)
    assert stats.next_h == 0.3


def test_next_h_is_the_starting_step_when_every_step_lands():
    ctl = StepControl(abs_tol=1e-6, rel_tol=1e-6, h_init=1e-3, h_max=0.5)
    _, stats = integrate_adaptive(EXP, 0.0, 1e-3, np.array([1.0]), ctl)
    assert stats.accepted == 1
    assert stats.next_h == 1e-3


def test_snapshot_segments_start_from_the_carried_step(monkeypatch):
    starts = []
    original = market.integrate_adaptive

    def recording(rhs, t0, t1, y0, ctl):
        y, stats = original(rhs, t0, t1, y0, ctl)
        starts.append((ctl.h_init, stats.next_h))
        return y, stats

    monkeypatch.setattr(market, "integrate_adaptive", recording)
    rec = run_simulation(ModelConfig(t_end=3.0))
    assert len(starts) == 3
    assert starts[0][0] == rec.config.control.h_init
    for (_, carried), (h_init, _) in zip(starts, starts[1:]):
        assert h_init == carried
    assert rec.stats.next_h == starts[-1][1]


class CountingNumpy:
    """numpy, counting the errstate contexts entered through it."""

    errstates = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def errstate(self, **kwargs):
        self.errstates += 1
        return np.errstate(**kwargs)


def test_one_errstate_per_integration(monkeypatch):
    # the floating-point policy is set once per integrate_adaptive call, not
    # again by every step it attempts
    calls = []
    original = market.integrate_adaptive

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    counting_np = CountingNumpy()
    monkeypatch.setattr(integrator, "np", counting_np)
    monkeypatch.setattr(market, "integrate_adaptive", counting)
    rec = run_simulation(ModelConfig(n=8, t_end=2.0))
    assert rec.stats.accepted + rec.stats.rejected > len(calls) > 0
    assert counting_np.errstates == len(calls)


@pytest.mark.parametrize("seed", range(1, 9))
def test_dense_snapshot_run_takes_ten_steps_per_segment(seed):
    # 0.05-day snapshots over 10 days: h_max = 0.005 bounds every step, and
    # the carried step lets every segment but the first, which ramps up from
    # h_init in 11 steps, take exactly 10 of them, whatever the seed
    rec = run_simulation(ModelConfig(t_end=10.0, snapshot_stride=0.05, seed=seed))
    assert rec.stats.accepted == 2_001 and rec.stats.rejected == 0
    assert rec.stats.rhs_evaluations == 12_006


# Member driver: each member is its own integrate_adaptive run, bit for bit.
# Small systems whose stacked right-hand side is the row-wise one exactly:
# the ladder's soliton on a 31-node grid, and a non-autonomous logistic
# equation y' = y (t - y), whose stage times matter.
SMALL_GRID = make_grid(-10.0, 10.0, 31)
SMALL_NLS = complex_system(lambda f: nls_rhs(f, SMALL_GRID, -1.0))
SECH = pack_complex(1.0 / np.cosh(SMALL_GRID.nodes))
LOGISTIC = lambda t, y: y * (np.asarray(t)[..., None] - y)


def control(tol, **kwargs):
    return StepControl(abs_tol=tol, rel_tol=tol, **kwargs)


def plain_runs(rhs, t1, y0s, controls):
    """integrate_adaptive of every member on its own: (y, stats, the start
    time of every attempt)."""
    runs = []
    for y0, ctl in zip(y0s, controls):
        times = []

        def recording(t, y):
            times.append(t)
            return rhs(t, y)

        y, stats = integrate_adaptive(recording, 0.0, t1, y0, ctl)
        runs.append((y, stats, times[::len(STAGE_TIMES)]))
    return runs


MEMBER_CASES = {
    # the loose member lands first and leaves the stack
    "tolerances-land-apart": (SMALL_NLS, 2.0, [SECH, SECH], [control(1e-4), control(1e-9)]),
    # from different starts, the first member's first attempt is rejected
    # while the second member's is accepted
    "reject-beside-accept": (LOGISTIC, 1.5, [np.array([0.5, 1.0]), np.array([2.0, 0.1])],
                             [control(1e-9, h_init=0.5), control(1e-6)]),
    "one-member": (SMALL_NLS, 2.0, [SECH], [control(1e-6)]),
}


@pytest.mark.parametrize("case", sorted(MEMBER_CASES))
def test_members_match_their_plain_runs_bit_for_bit(case, monkeypatch):
    rhs, t1, y0s, controls = MEMBER_CASES[case]
    runs = plain_runs(rhs, t1, y0s, controls)
    counts = [stats.accepted + stats.rejected for _, stats, _ in runs]
    if case == "tolerances-land-apart":
        assert counts[0] < counts[1]
    if case == "reject-beside-accept":
        # the second attempt starts where the first did only after a rejection
        assert runs[0][2][1] == 0.0 < runs[1][2][1]

    stack_sizes = []

    def stacked(t, y):
        assert t.shape == (len(y),)
        stack_sizes.append(len(y))
        return rhs(t, y)

    counting_np = CountingNumpy()
    monkeypatch.setattr(integrator, "np", counting_np)
    finals, stats = integrate_members(stacked, 0.0, t1, y0s, controls)
    assert counting_np.errstates == 1
    assert finals.shape == (len(y0s), len(y0s[0]))
    for (y, plain_stats, _), y_member, member_stats in zip(runs, finals, stats):
        assert y_member.tobytes() == y.tobytes()
        assert member_stats == plain_stats
    # one rhs call per stage on the members still running: a member leaves
    # the stack when it lands
    assert stack_sizes == [sum(c > i for c in counts) for i in range(max(counts))
                           for _ in STAGE_TIMES]


FAILING_MEMBERS = {
    # the second member's budget runs out while the first keeps stepping
    "budget": (StepBudgetError, [control(1e-6), control(1e-9, max_steps=3)]),
    # the second member fails at its first attempt, before the first
    # member's budget runs out at its sixth
    "h_min": (StiffnessError,
              [control(1e-6, max_steps=5), control(1e-12, h_init=1.0, h_min=1.0)]),
}


@pytest.mark.parametrize("case", sorted(FAILING_MEMBERS))
def test_first_failing_member_raises_its_plain_error(case):
    error, controls = FAILING_MEMBERS[case]
    with pytest.raises(error) as plain:
        integrate_adaptive(SMALL_NLS, 0.0, 2.0, SECH, controls[1])
    with pytest.raises(error) as member:
        integrate_members(SMALL_NLS, 0.0, 2.0, [SECH, SECH], controls)
    assert str(member.value) == str(plain.value)
    assert member.value.t == plain.value.t
    assert member.value.stats == plain.value.stats


def test_members_reject_a_result_not_shaped_like_the_stack():
    controls = [control(1e-6), control(1e-8)]
    # a row, a column or a flat stack would broadcast over the stage rows
    for bad in (lambda t, y: y[0], lambda t, y: y[:, :1], lambda t, y: y.ravel()):
        with pytest.raises(ValueError, match="rhs result of shape"):
            integrate_members(bad, 0.0, 1.0, [SECH, SECH], controls)
    # one start state per control
    with pytest.raises(ValueError, match="one 1-D start state per control"):
        integrate_members(SMALL_NLS, 0.0, 1.0, [SECH], controls)
