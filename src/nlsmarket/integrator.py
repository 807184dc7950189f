"""Embedded Cash-Karp Runge-Kutta 4/5 integrator with adaptive step size.

The propagated solution is the 5th-order one; the difference to the
embedded 4th-order solution drives the step controller. Every stage
state, and the pair (y5, err), is one matrix product of the tableau's rows
scaled by h with the rows [y, k0, ..., k5] of one step. States are flat
real vectors; complex fields are carried as interleaved (Re, Im) pairs by
the callers (see ladder.pack_complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    """
    if not t1 > t0:
        raise ConfigError(f"need t1 > t0, got [{t0}, {t1}]")
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"start state must be a 1-D vector, got shape {y.shape}")

    stats = StepStats()
    h_max = ctl.h_max if ctl.h_max is not None else (t1 - t0) / 10.0
    h_max = max(h_max, ctl.h_min)
    h = min(max(ctl.h_init, ctl.h_min), h_max)
    stats.next_h = h
    t = t0
    err_prev = ERR_PREV_FLOOR
    after_reject = False

    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1:
            if stats.accepted + stats.rejected >= ctl.max_steps:
                raise StepBudgetError(ctl.max_steps, t, stats)
            remaining = t1 - t
            final = h * (1.0 + LANDING_SLACK) >= remaining
            h_attempt = remaining if final else h
            y5, err = cash_karp_step(rhs, t, y, h_attempt)
            errnorm = _scaled_error_norm(err, y, ctl)
            if not np.isfinite(y5).all():
                errnorm = float("inf")

            if errnorm <= 1.0:
                stats.accepted += 1
                stats.min_h_used = min(stats.min_h_used, h_attempt)
                stats.max_h_used = max(stats.max_h_used, h_attempt)
                t = t1 if final else t + h_attempt
                y = y5
                if observer is not None:
                    observer(t, y.copy())
                factor = (ctl.safety * max(errnorm, 1e-300) ** (0.75 * BETA - 0.2)
                          * err_prev**BETA)
                factor = min(max(factor, MAX_SHRINK), 1.0 if after_reject else MAX_GROWTH)
                err_prev = max(errnorm, ERR_PREV_FLOOR)
                after_reject = False
                h = min(max(h_attempt * factor, ctl.h_min), h_max)
                if not final:
                    stats.next_h = h
            else:
                stats.rejected += 1
                if h_attempt <= ctl.h_min:
                    raise StiffnessError(
                        f"error norm {errnorm:.3g} not satisfiable at h_min={ctl.h_min} (t={t})",
                        t=t,
                        stats=stats,
                    )
                factor = max(ctl.safety * (1.0 / errnorm) ** 0.2, MAX_SHRINK)
                after_reject = True
                h = min(max(h_attempt * factor, ctl.h_min), h_max)

    return y, stats
