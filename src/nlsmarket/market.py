"""Coupled volatility/price wave-function model with Hebbian adaptation.

Two cubic Schrodinger lines interact through each other's squared modulus
and through a shared scalar potential V(w) = sum_i w_i g_i learned online:

    d sigma_k/dt = i [ (1/2) s_k^2 |psi_k|^2 Lap(sigma)_k - V(w) |sigma_k|^2 sigma_k ]
    d psi_k/dt   = i [ (1/2) s_k^2 |sigma_k|^2 Lap(psi)_k - |psi_k|^2 psi_k - r psi_k ]
    d w_i/dt     = -w_i + c |sigma_i| g_i |psi_i|

The kernels g_i = exp(-(d (1 - m_i))^2) compare the first moment of the
volatility density against a sinusoidal reference signal; m_i are frozen
random mixing coefficients. The Laplacian uses the periodic-wrap stencil,
which keeps the end-node time derivatives identical for equal end values.
"""

from __future__ import annotations

import cmath
import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import (
    ConfigError,
    IntegrationError,
    NonFiniteError,
    StepBudgetError,
    reject_non_finite,
)
from .grid import BoundaryPolicy, Grid, make_grid, second_difference
from .integrator import OdeSystem, StepControl, StepStats, integrate_adaptive
from .ladder import mass, pack_complex, unpack_complex

# Weight and mixing-coefficient draw order is part of the reproducibility
# contract and is echoed into run manifests.
PRNG_SPEC = (
    "numpy.random.default_rng(PCG64(seed)); draws: w[i]=uniform(-1,1) for "
    "i=0..n-1, then m[i]=uniform(-1,1) for i=0..n-1"
)

DEFAULT_RATE = 0.05 / 360.0  # per day


@dataclass(frozen=True)
class ModelConfig:
    """Model and solver parameters for one simulation run.

    Times are in days; ``r`` is the per-day risk-free rate and ``c`` the
    Hebbian learning rate. ``control`` holds the integrator tolerances and
    step bounds.
    """

    r: float = DEFAULT_RATE
    c: float = 1.0
    n: int = 30
    s0: float = 10.0
    s1: float = 20.0
    t_end: float = 360.0
    seed: int = 42
    control: StepControl = field(
        default_factory=lambda: StepControl(abs_tol=1e-6, rel_tol=1e-6)
    )
    snapshot_stride: float = 1.0

    def __post_init__(self):
        reject_non_finite(self)
        if self.r < 0:
            raise ConfigError(f"interest rate must be non-negative, got {self.r}")
        if self.c < 0:
            raise ConfigError(f"learning rate must be non-negative, got {self.c}")
        if self.n < 3:
            raise ConfigError(f"need at least 3 lines, got n={self.n}")
        if self.t_end < 0:
            raise ConfigError(f"horizon must be non-negative, got {self.t_end}")
        if self.snapshot_stride <= 0:
            raise ConfigError(f"snapshot stride must be positive, got {self.snapshot_stride}")
        if not self.s1 > self.s0:
            raise ConfigError(f"price bounds must satisfy s1 > s0, got [{self.s0}, {self.s1}]")


@dataclass
class MarketState:
    """Full coupled state: both wave functions, weights, current time."""

    sigma: np.ndarray
    psi: np.ndarray
    w: np.ndarray
    t: float


@dataclass(frozen=True)
class KernelParams:
    """Frozen mixing coefficients m_i, drawn once per run."""

    m: np.ndarray


def target_signal(t: float) -> float:
    """Reference signal y = 2 sin(60 t)."""
    return 2.0 * np.sin(60.0 * t)


def target_output(state: MarketState, grid: Grid) -> float:
    """First moment of the volatility density: sum_k s_k |sigma_k|^2 ds."""
    return float(np.sum(grid.nodes * np.abs(state.sigma) ** 2) * grid.ds)


def gaussian_kernels(
    t: float, state: MarketState, grid: Grid, params: KernelParams
) -> np.ndarray:
    """g_i = exp(-(d (1 - m_i))^2) with d = target_output - target_signal."""
    d = target_output(state, grid) - target_signal(t)
    return np.exp(-((d * (1.0 - params.m)) ** 2))


def potential(w: np.ndarray, g: np.ndarray) -> float:
    """Adaptive potential V(w) = sum_i w_i g_i."""
    w = np.asarray(w)
    g = np.asarray(g)
    if w.shape != g.shape:
        raise ValueError(f"weights {w.shape} and kernels {g.shape} differ in length")
    return float(np.dot(w, g))


def hebbian_rhs(state: MarketState, g: np.ndarray, c: float) -> np.ndarray:
    """dw_i/dt = -w_i + c |sigma_i| g_i |psi_i| (per-line moduli)."""
    return -state.w + c * np.abs(state.sigma) * g * np.abs(state.psi)


def coupled_rhs(
    t: float,
    state: MarketState,
    grid: Grid,
    params: KernelParams,
    config: ModelConfig,
) -> MarketState:
    """Assemble the full coupled derivative at time t.

    Raises NonFiniteError naming the first offending block and node if
    the derivative is not finite; the adaptive integrator treats that as a
    failed step and retries with a smaller one.
    """
    sigma, psi, w = state.sigma, state.psi, state.w
    g = gaussian_kernels(t, state, grid, params)
    v = potential(w, g)
    half_s2 = grid.half_nodes_sq
    abs_sigma2 = np.abs(sigma) ** 2
    abs_psi2 = np.abs(psi) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        lap_sigma = second_difference(sigma, grid, BoundaryPolicy.PERIODIC)
        lap_psi = second_difference(psi, grid, BoundaryPolicy.PERIODIC)
        d_sigma = 1j * (half_s2 * abs_psi2 * lap_sigma - v * abs_sigma2 * sigma)
        d_psi = 1j * (half_s2 * abs_sigma2 * lap_psi - abs_psi2 * psi - config.r * psi)
        d_w = hebbian_rhs(state, g, config.c)
        # any NaN or inf entry makes the sum non-finite; a sum that merely
        # overflowed finds no bad node below and passes
        total_finite = cmath.isfinite(d_sigma.sum() + d_psi.sum() + d_w.sum())
    if not total_finite:
        for name, vec in (("sigma", d_sigma), ("psi", d_psi), ("w", d_w)):
            finite = np.isfinite(vec)
            if not finite.all():
                node = int(np.argmin(finite))
                raise NonFiniteError(
                    f"non-finite {name} derivative at node {node}, t={t}", t=t, node=node
                )
    return MarketState(sigma=d_sigma, psi=d_psi, w=d_w, t=t)


def pack_state(state: MarketState) -> np.ndarray:
    """Flatten to [sigma interleaved, psi interleaved, w]."""
    return np.concatenate([pack_complex(state.sigma), pack_complex(state.psi), state.w])


def unpack_state(y: np.ndarray, n: int, t: float) -> MarketState:
    """Inverse of pack_state."""
    return MarketState(
        sigma=unpack_complex(y[: 2 * n]),
        psi=unpack_complex(y[2 * n : 4 * n]),
        w=np.array(y[4 * n :]),
        t=t,
    )


def init_state(config: ModelConfig) -> Tuple[MarketState, KernelParams]:
    """Seeded initial state: sigma = 0.25, psi = 1, random weights and m."""
    rng = np.random.default_rng(config.seed)
    w = rng.uniform(-1.0, 1.0, config.n)
    m = rng.uniform(-1.0, 1.0, config.n)
    sigma = np.full(config.n, 0.25 + 0.0j)
    psi = np.full(config.n, 1.0 + 0.0j)
    return MarketState(sigma=sigma, psi=psi, w=w, t=0.0), KernelParams(m=m)


@dataclass
class SimulationRecord:
    """Snapshots plus integrator statistics for one run.

    Row j of every array belongs to times[j]. ``completed`` is False when
    the record was cut short by an integration failure.
    """

    config: ModelConfig
    params: KernelParams
    times: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray
    w: np.ndarray
    g: np.ndarray
    v: np.ndarray
    mass_sigma: np.ndarray
    mass_psi: np.ndarray
    stats: StepStats
    wall_seconds: float
    completed: bool

    @property
    def sigma_pdf(self) -> np.ndarray:
        return np.abs(self.sigma) ** 2

    @property
    def psi_pdf(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _snapshot_times(t_end: float, stride: float) -> List[float]:
    times = [0.0]
    k = 1
    while k * stride < t_end - 1e-12 * max(t_end, 1.0):
        times.append(k * stride)
        k += 1
    if t_end > 0.0:
        times.append(t_end)
    return times


def run_simulation(config: ModelConfig) -> SimulationRecord:
    """Integrate the coupled model from t = 0 to t_end.

    Snapshots are taken at every multiple of snapshot_stride and at t_end
    by integrating stride segments back to back, so snapshot times are
    exact. Integration failures re-raise with the partial record attached
    as ``err.record``.
    """
    grid = make_grid(config.s0, config.s1, config.n)
    state, params = init_state(config)
    n = config.n

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return pack_state(coupled_rhs(t, unpack_state(y, n, t), grid, params, config))

    system = OdeSystem(dimension=5 * n, rhs=rhs)

    times = _snapshot_times(config.t_end, config.snapshot_stride)
    rows: List[MarketState] = []
    stats = StepStats()
    started = _time.perf_counter()

    def record_rows(completed: bool) -> SimulationRecord:
        g_rows = [gaussian_kernels(s.t, s, grid, params) for s in rows]
        return SimulationRecord(
            config=config,
            params=params,
            times=np.array([s.t for s in rows]),
            sigma=np.array([s.sigma for s in rows]),
            psi=np.array([s.psi for s in rows]),
            w=np.array([s.w for s in rows]),
            g=np.array(g_rows),
            v=np.array([potential(s.w, g) for s, g in zip(rows, g_rows)]),
            mass_sigma=np.array([mass(s.sigma, grid) for s in rows]),
            mass_psi=np.array([mass(s.psi, grid) for s in rows]),
            stats=stats,
            wall_seconds=_time.perf_counter() - started,
            completed=completed,
        )

    rows.append(state)
    y = pack_state(state)
    budget = config.control.max_steps
    try:
        for t_prev, t_next in zip(times[:-1], times[1:]):
            # the step budget covers the whole run, not one stride segment
            used = stats.accepted + stats.rejected
            if used >= budget:
                raise StepBudgetError(
                    f"step budget of {budget} exhausted at t={t_prev}", t=t_prev, stats=stats
                )
            ctl = dataclasses.replace(config.control, max_steps=budget - used)
            try:
                y, seg_stats = integrate_adaptive(system, t_prev, t_next, y, ctl)
            except IntegrationError as err:
                if err.stats is not None:
                    stats.merge(err.stats)
                if isinstance(err, StepBudgetError):
                    raise StepBudgetError(
                        f"step budget of {budget} exhausted at t={err.t}",
                        t=err.t,
                        stats=stats,
                    ) from None
                err.stats = stats
                raise
            stats.merge(seg_stats)
            state = unpack_state(y, n, t_next)
            rows.append(state)
    except IntegrationError as err:
        err.record = record_rows(completed=False)
        raise

    return record_rows(completed=True)
