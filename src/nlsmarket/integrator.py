"""Embedded Cash-Karp Runge-Kutta 4/5 integrator with adaptive step size.

The propagated solution is the 5th-order one; the difference to the
embedded 4th-order solution drives the step controller. Every stage
state, and the pair (y5, err), is one matrix product of the tableau's rows
scaled by h with the rows [y, k0, ..., k5] of one step. States are flat
real vectors; complex fields are carried as interleaved (Re, Im) pairs by
the callers (see ladder.pack_complex). integrate_adaptive runs one
integration; integrate_members runs several of one right-hand side in
lockstep, each bit for bit its own integrate_adaptive run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    StepBudgetError,
    StiffnessError,
    reject_non_finite,
)

# Cash-Karp tableau: six stages, 5th-order weights plus embedded 4th-order
# weights for the local error estimate.
STAGE_TIMES = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
STAGE_COEFFS = (
    np.array(()),
    np.array((1 / 5,)),
    np.array((3 / 40, 9 / 40)),
    np.array((3 / 10, -9 / 10, 6 / 5)),
    np.array((-11 / 54, 5 / 2, -70 / 27, 35 / 27)),
    np.array((1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096)),
)
WEIGHTS_5TH = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
WEIGHTS_4TH = np.array(
    [2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]
)
ERROR_WEIGHTS = WEIGHTS_5TH - WEIGHTS_4TH


def _tableau_matrix() -> np.ndarray:
    """The tableau as weights of the rows [y, k0, ..., k5] of one step.

    Row i < 6 is [1, a_i] and gives stage i's state, row 6 is [1, b] and
    gives y5, and row 7 is [0, b - b_hat] and gives err. Only the k
    columns scale with h.
    """
    matrix = np.zeros((8, 7))
    matrix[:7, 0] = 1.0
    for i, a in enumerate(STAGE_COEFFS):
        matrix[i, 1:1 + a.size] = a
    matrix[6, 1:] = WEIGHTS_5TH
    matrix[7, 1:] = ERROR_WEIGHTS
    return matrix


TABLEAU = _tableau_matrix()

# per-decision step-size change limits, to keep the controller from
# oscillating on stiff right-hand sides
MAX_GROWTH = 5.0
MAX_SHRINK = 0.1
# PI control of accepted steps as in DOPRI5 (Hairer, Norsett & Wanner,
# Solving ODEs II, IV.2): exponent BETA on the previous accepted error norm,
# floored at ERR_PREV_FLOOR (DOPRI5's FACOLD), which is also its start value
BETA = 0.04
ERR_PREV_FLOOR = 1e-4
# a step within this relative margin of the distance to t1 lands on t1
LANDING_SLACK = 1e-9


# The right-hand side of a first-order ODE system y' = rhs(t, y). It must be
# pure and deterministic and return a fresh vector of the same length as its
# state argument, which it must neither keep nor mutate: the stepper passes
# one stage buffer that it overwrites for every stage.
Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size control parameters.

    ``h_init`` is the first step attempted by one integrate_adaptive call;
    a caller that chains calls may pass on the previous call's
    ``StepStats.next_h`` instead. ``h_max = None`` resolves to
    (t1 - t0) / 10 at integration time. ``safety`` scales every step-size
    proposal of the controller (see integrate_adaptive).
    """

    abs_tol: float
    rel_tol: float
    h_init: float = 1e-3
    h_min: float = 1e-10
    h_max: Optional[float] = None
    safety: float = 0.9
    max_steps: int = 10_000_000

    def __post_init__(self):
        reject_non_finite(self)
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if not 0 < self.h_min <= self.h_init:
            raise ConfigError("need 0 < h_min <= h_init")
        if self.h_max is not None and self.h_init > self.h_max:
            raise ConfigError("need h_init <= h_max")
        if not 0 < self.safety < 1:
            raise ConfigError("safety factor must lie in (0, 1)")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")


@dataclass
class StepStats:
    """Counters accumulated over one integration.

    ``next_h`` is the step the controller proposed after the last accepted
    step that did not land on t1, or the starting step if there was none:
    the step to start a following integration with.
    """

    accepted: int = 0
    rejected: int = 0
    min_h_used: float = float("inf")
    max_h_used: float = 0.0
    next_h: float = 0.0

    @property
    def rhs_evaluations(self) -> int:
        """One evaluation per stage of every attempted step."""
        return len(STAGE_TIMES) * (self.accepted + self.rejected)

    def merge(self, other: "StepStats") -> None:
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.min_h_used = min(self.min_h_used, other.min_h_used)
        self.max_h_used = max(self.max_h_used, other.max_h_used)
        self.next_h = other.next_h


def _evaluate(rhs: Rhs, t: float, y: np.ndarray) -> np.ndarray:
    """rhs(t, y), or ValueError if the result's shape is not y's (no broadcast)."""
    f = rhs(t, y)
    if getattr(f, "shape", None) != y.shape:
        raise ValueError(f"rhs result of shape {np.shape(f)} for a state of shape {y.shape}")
    return f


def cash_karp_step(rhs: Rhs, t: float, y: np.ndarray, h: float):
    """Advance one step of size h of y' = rhs(t, y) (see Rhs).

    Returns (y5, err): the 5th-order solution and the component-wise
    difference between the 5th- and 4th-order solutions. A non-finite rhs
    output propagates into ``err`` and signals step failure to the caller;
    an rhs result not shaped like y raises ValueError. A direct call runs
    under its caller's errstate; integrate_adaptive, its only caller in the
    package, silences overflow and invalid for the whole integration.
    """
    if not 0 < h < math.inf:
        raise ConfigError(f"step size must be positive and finite, got {h}")
    y = np.asarray(y, dtype=float)
    coef = h * TABLEAU
    coef[:, 0] = TABLEAU[:, 0]
    rows = np.empty((7, len(y)))  # [y, k0, ..., k5]
    rows[0] = y
    yi = np.empty(len(y))  # stage state, rebuilt in place per stage
    rows[1] = _evaluate(rhs, t, y)
    for i in range(1, 6):
        np.dot(coef[i, :i + 1], rows[:i + 1], out=yi)
        rows[i + 1] = _evaluate(rhs, t + STAGE_TIMES[i] * h, yi)
    y5, err = coef[6:] @ rows
    return y5, err


def _scaled_error_norm(err: np.ndarray, y: np.ndarray, ctl: StepControl) -> float:
    """max_k |err_k| / (abs_tol + rel_tol |y_k|), or inf if that is not finite.

    Callers suppress the invalid-operation warning of a NaN in ``err``. The
    one buffer holds the scale and then |err_k / scale_k|, which is
    |err_k| / scale_k bit for bit because the scale is positive.
    """
    ratio = np.abs(y)
    ratio *= ctl.rel_tol
    ratio += ctl.abs_tol
    np.divide(err, ratio, out=ratio)
    np.abs(ratio, out=ratio)
    norm = float(np.maximum.reduce(ratio))
    return norm if math.isfinite(norm) else float("inf")


class _Member:
    """The step policy of one integration from t0 to t1 under ctl.

    It holds the integration's time t, its step, its PI memory, its
    StepStats and its budget. Both drivers take every step through it:
    ``attempt`` gives the size of the next attempt and ``judge`` accepts
    or rejects that attempt from its result, by the rules that
    integrate_adaptive states.
    """

    __slots__ = ("ctl", "t1", "h_max", "t", "h", "h_attempt", "final", "err_prev",
                 "after_reject", "stats")

    def __init__(self, t0: float, t1: float, ctl: StepControl):
        if not t1 > t0:
            raise ConfigError(f"need t1 > t0, got [{t0}, {t1}]")
        h_max = ctl.h_max if ctl.h_max is not None else (t1 - t0) / 10.0
        self.h_max = max(h_max, ctl.h_min)
        self.h = min(max(ctl.h_init, ctl.h_min), self.h_max)
        self.stats = StepStats(next_h=self.h)
        self.ctl, self.t1, self.t = ctl, t1, t0
        self.err_prev = ERR_PREV_FLOOR
        self.after_reject = False

    def attempt(self) -> float:
        """The size of the next attempt, landing on t1 if it reaches it;
        StepBudgetError once max_steps attempts are spent."""
        stats = self.stats
        if stats.accepted + stats.rejected >= self.ctl.max_steps:
            raise StepBudgetError(self.ctl.max_steps, self.t, stats)
        remaining = self.t1 - self.t
        self.final = self.h * (1.0 + LANDING_SLACK) >= remaining
        self.h_attempt = remaining if self.final else self.h
        return self.h_attempt

    def judge(self, y: np.ndarray, y5: np.ndarray, err: np.ndarray) -> bool:
        """Accept (True) or reject the attempt from y that gave (y5, err),
        and propose the next step; StiffnessError if it was rejected at h_min."""
        ctl, stats, h_attempt = self.ctl, self.stats, self.h_attempt
        errnorm = _scaled_error_norm(err, y, ctl)
        if not np.isfinite(y5).all():
            errnorm = float("inf")

        if errnorm <= 1.0:
            stats.accepted += 1
            stats.min_h_used = min(stats.min_h_used, h_attempt)
            stats.max_h_used = max(stats.max_h_used, h_attempt)
            self.t = self.t1 if self.final else self.t + h_attempt
            factor = (ctl.safety * max(errnorm, 1e-300) ** (0.75 * BETA - 0.2)
                      * self.err_prev**BETA)
            factor = min(max(factor, MAX_SHRINK), 1.0 if self.after_reject else MAX_GROWTH)
            self.err_prev = max(errnorm, ERR_PREV_FLOOR)
            self.after_reject = False
            self.h = min(max(h_attempt * factor, ctl.h_min), self.h_max)
            if not self.final:
                stats.next_h = self.h
            return True

        stats.rejected += 1
        if h_attempt <= ctl.h_min:
            raise StiffnessError(
                f"error norm {errnorm:.3g} not satisfiable at h_min={ctl.h_min} (t={self.t})",
                t=self.t,
                stats=stats,
            )
        factor = max(ctl.safety * (1.0 / errnorm) ** 0.2, MAX_SHRINK)
        self.after_reject = True
        self.h = min(max(h_attempt * factor, ctl.h_min), self.h_max)
        return False


def integrate_adaptive(
    rhs: Rhs,
    t0: float,
    t1: float,
    y0: np.ndarray,
    ctl: StepControl,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
):
    """Integrate y' = rhs(t, y) (see Rhs) from t0 to t1, adapting the step size.

    A step is accepted when its error norm e = max_k |err_k| / (abs_tol +
    rel_tol |y_k|) is at most 1. The next step is then

        h * clamp(safety * e**-(1/5 - 3 BETA/4) * e_prev**BETA, MAX_SHRINK, cap)

    (DOPRI5's PI control), where e_prev is the error norm of the previous
    accepted step of this call, floored at ERR_PREV_FLOOR, and
    ERR_PREV_FLOOR before the first one. ``cap`` is 1 on the first accepted
    step after a rejected attempt, so that step does not grow, and
    MAX_GROWTH otherwise. After a rejected attempt the next one is
    h * max(safety * e**(-1/5), MAX_SHRINK). Every proposal is clamped to
    [h_min, h_max].

    A step of h with h * (1 + LANDING_SLACK) >= t1 - t is stretched or
    truncated to t1 - t and lands exactly on t1, so no float residue of a
    step is left over; a landing step may therefore exceed h_max by at
    most LANDING_SLACK relative. ``observer(t, y)`` fires at every
    accepted step. ``stats.next_h`` returns the controller's proposal
    after the last accepted step that did not land (see StepStats).

    Returns (y_final, stats). Raises StepBudgetError when max_steps is
    exhausted and StiffnessError when a step at h_min is still rejected.
    A step whose error estimate or result is not finite is rejected. The
    rhs and the observer run with overflow and invalid-operation warnings
    off, because a step that overflows is rejected by its error norm.
    integrate_members runs several such integrations of one rhs together.
    """
    member = _Member(t0, t1, ctl)
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"start state must be a 1-D vector, got shape {y.shape}")

    with np.errstate(over="ignore", invalid="ignore"):
        while member.t < t1:
            y5, err = cash_karp_step(rhs, member.t, y, member.attempt())
            if member.judge(y, y5, err):
                y = y5
                if observer is not None:
                    observer(member.t, y.copy())

    return y, member.stats


# The right-hand side of integrate_members: rhs(t, y) takes a vector t of
# k stage times and a (k, d) stack y of k stage states, one row per running
# member, and returns the (k, d) stack of their derivatives. Row j of the
# result must be the Rhs of row j alone, at time t[j]; the Rhs contract
# holds for the stack as a whole.
StackRhs = Callable[[np.ndarray, np.ndarray], np.ndarray]


def integrate_members(
    rhs: StackRhs,
    t0: float,
    t1: float,
    y0s: Sequence[np.ndarray],
    controls: Sequence[StepControl],
):
    """Integrate one system from several starts or controls together, t0 to t1.

    Member m starts from y0s[m] under controls[m]. It has its own t, step,
    PI memory, StepStats and budget, and takes every step through the one
    step policy of integrate_adaptive. Each Cash-Karp stage calls rhs once,
    on the stack of the running members' stage states (see StackRhs); each
    member forms its own stage states, y5 and err from its own rows with
    the products of cash_karp_step. So member m is, bit for bit, the
    integrate_adaptive run of rhs on row m from y0s[m] under controls[m].
    A member leaves the stack when it lands on t1.

    Returns (ys, stats): the (k, d) array of final states and each
    member's StepStats. The first member to fail raises the
    StepBudgetError or StiffnessError of its own integrate_adaptive run.
    An rhs result not shaped like the stack raises ValueError. The rhs runs
    under the errstate of integrate_adaptive, set once per call. There is
    no observer.
    """
    members = [_Member(t0, t1, ctl) for ctl in controls]
    finals = np.array(y0s, dtype=float)
    if finals.ndim != 2 or len(finals) != len(members):
        raise ValueError(
            f"need one 1-D start state per control, got shape {finals.shape} "
            f"for {len(members)} controls")
    # row j of rows holds [y, k0, ..., k5] of the running member live[j], the
    # rows of cash_karp_step; a member's rows are dropped when it lands
    live = list(range(len(members)))
    rows = np.empty((len(members), 7, finals.shape[1]))
    rows[:, 0] = finals

    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            steps = np.array([members[m].attempt() for m in live])
            coefs = steps[:, None, None] * TABLEAU  # each member's coef of cash_karp_step
            coefs[:, :, 0] = TABLEAU[:, 0]
            times = np.array([members[m].t for m in live])
            stage_times = times + np.multiply.outer(STAGE_TIMES, steps)
            stage = rows[:, 0].copy()  # the stack of stage states, rebuilt per stage
            rows[:, 1] = _evaluate(rhs, times, stage)
            for i in range(1, 6):
                for j, coef in enumerate(coefs):
                    np.dot(coef[i, :i + 1], rows[j, :i + 1], out=stage[j])
                rows[:, i + 1] = _evaluate(rhs, stage_times[i], stage)

            keep = []
            for j, (m, coef) in enumerate(zip(live, coefs)):
                y5, err = coef[6:] @ rows[j]
                if members[m].judge(rows[j, 0], y5, err):
                    rows[j, 0] = y5
                if members[m].t < t1:
                    keep.append(j)
                else:
                    finals[m] = y5
            if len(keep) < len(live):
                live = [live[j] for j in keep]
                rows = rows[keep]

    return finals, [member.stats for member in members]
