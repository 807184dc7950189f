"""Embedded Cash-Karp Runge-Kutta 4/5 integrator with adaptive step size.

The propagated solution is the 5th-order one; the difference to the
embedded 4th-order solution drives the step controller. States are flat
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
    NonFiniteError,
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

# per-decision step-size change limits, to keep the controller from
# oscillating on stiff right-hand sides
MAX_GROWTH = 5.0
MAX_SHRINK = 0.1


@dataclass(frozen=True)
class OdeSystem:
    """A first-order ODE system y' = rhs(t, y) of fixed dimension.

    ``rhs`` must be pure and deterministic and return a vector of the same
    length as its input state. It must neither keep nor mutate its state
    argument: the stepper passes one stage buffer that it overwrites for
    every stage.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size control parameters.

    ``h_max = None`` resolves to (t1 - t0) / 10 at integration time.
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
    """Counters accumulated over one integration."""

    accepted: int = 0
    rejected: int = 0
    min_h_used: float = float("inf")
    max_h_used: float = 0.0
    rhs_evaluations: int = 0

    def merge(self, other: "StepStats") -> None:
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.min_h_used = min(self.min_h_used, other.min_h_used)
        self.max_h_used = max(self.max_h_used, other.max_h_used)
        self.rhs_evaluations += other.rhs_evaluations


def cash_karp_step(system: OdeSystem, t: float, y: np.ndarray, h: float):
    """Advance one step of size h.

    Returns (y5, err): the 5th-order solution and the component-wise
    difference between the 5th- and 4th-order solutions. A non-finite rhs
    output propagates into ``err`` and signals step failure to the caller.
    Overflow and invalid operations inside the rhs are not reported as
    floating-point warnings.
    """
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    y = np.asarray(y, dtype=float)
    if y.shape != (system.dimension,):
        raise ValueError(f"state length {y.shape} does not match dimension {system.dimension}")
    k = np.empty((6, system.dimension))
    yi = np.empty(system.dimension)  # stage state, rebuilt in place per stage
    with np.errstate(over="ignore", invalid="ignore"):
        k[0] = system.rhs(t, y)
        for i in range(1, 6):
            # y + h * (STAGE_COEFFS[i] @ k[:i]), bit for bit, without temporaries
            np.dot(STAGE_COEFFS[i], k[:i], out=yi)
            yi *= h
            yi += y
            k[i] = system.rhs(t + STAGE_TIMES[i] * h, yi)
        y5 = y + h * np.dot(WEIGHTS_5TH, k)
        err = h * np.dot(ERROR_WEIGHTS, k)
    return y5, err


def _scaled_error_norm(err: np.ndarray, y: np.ndarray, ctl: StepControl) -> float:
    """max_k |err_k| / (abs_tol + rel_tol |y_k|), or inf if that is not finite.

    Callers suppress the invalid-operation warning of a NaN in ``err``.
    """
    scale = ctl.abs_tol + ctl.rel_tol * np.abs(y)
    norm = float((np.abs(err) / scale).max())
    return norm if math.isfinite(norm) else float("inf")


def integrate_adaptive(
    system: OdeSystem,
    t0: float,
    t1: float,
    y0: np.ndarray,
    ctl: StepControl,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
):
    """Integrate from t0 to t1, adapting the step size.

    A step is accepted when max_k |err_k| / (abs_tol + rel_tol |y_k|) <= 1.
    After every accept or reject the next step is
    h * safety * errnorm**(-1/5), limited to [MAX_SHRINK, MAX_GROWTH] times
    the attempted step and clamped to [h_min, h_max]. The final step is
    truncated to land exactly on t1. ``observer(t, y)`` fires at every
    accepted step.

    Returns (y_final, stats). Raises StepBudgetError when max_steps is
    exhausted and StiffnessError when a step at h_min is still rejected.
    A rhs that raises NonFiniteError is treated like a rejected step. The
    rhs and the observer run with overflow and invalid-operation warnings
    off, because a step that overflows is rejected by its error norm.
    """
    if not t1 > t0:
        raise ConfigError(f"need t1 > t0, got [{t0}, {t1}]")
    y = np.array(y0, dtype=float)
    if y.shape != (system.dimension,):
        raise ValueError(f"state length {y.shape} does not match dimension {system.dimension}")

    stats = StepStats()
    h_max = ctl.h_max if ctl.h_max is not None else (t1 - t0) / 10.0
    h_max = max(h_max, ctl.h_min)
    h = min(max(ctl.h_init, ctl.h_min), h_max)
    t = t0

    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1:
            if stats.accepted + stats.rejected >= ctl.max_steps:
                raise StepBudgetError(
                    f"step budget of {ctl.max_steps} exhausted at t={t}", t=t, stats=stats
                )
            remaining = t1 - t
            h_attempt = min(h, remaining)
            final = h_attempt >= remaining
            try:
                y5, err = cash_karp_step(system, t, y, h_attempt)
                stats.rhs_evaluations += 6
                errnorm = _scaled_error_norm(err, y, ctl)
                if not np.isfinite(y5).all():
                    errnorm = float("inf")
            except NonFiniteError:
                stats.rhs_evaluations += 6
                errnorm = float("inf")

            if errnorm <= 1.0:
                stats.accepted += 1
                stats.min_h_used = min(stats.min_h_used, h_attempt)
                stats.max_h_used = max(stats.max_h_used, h_attempt)
                t = t1 if final else t + h_attempt
                y = y5
                if observer is not None:
                    observer(t, y.copy())
            else:
                stats.rejected += 1
                if h_attempt <= ctl.h_min:
                    raise StiffnessError(
                        f"error norm {errnorm:.3g} not satisfiable at h_min={ctl.h_min} (t={t})",
                        t=t,
                        stats=stats,
                    )

            factor = ctl.safety * (1.0 / max(errnorm, 1e-300)) ** 0.2
            factor = min(max(factor, MAX_SHRINK), MAX_GROWTH)
            h = min(max(h_attempt * factor, ctl.h_min), h_max)

    return y, stats
