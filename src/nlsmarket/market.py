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

import dataclasses
import math
import time as _time
from dataclasses import dataclass, field
from functools import cached_property
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

# Cap on snapshots x lines, the cells of each surface file: 1e7 cells is
# about 1.7 GB of CSV over all market artifacts.
MAX_OUTPUT_CELLS = 10_000_000


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
        # at most t_end / stride interior stops plus t = 0 and t_end; float
        # arithmetic, so a ratio that overflows compares as inf
        snapshots = self.t_end / self.snapshot_stride + 2.0
        if snapshots * self.n > MAX_OUTPUT_CELLS:
            raise ConfigError(
                f"about {snapshots:.3g} snapshots of n={self.n} lines exceed the "
                f"{MAX_OUTPUT_CELLS} output cell limit; raise snapshot_stride or lower t_end"
            )


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

    @cached_property
    def one_minus_m(self) -> np.ndarray:
        """1 - m_i, computed once per run (read-only)."""
        values = 1.0 - self.m
        values.setflags(write=False)
        return values


def modulus_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2 along the last axis of a C-contiguous complex array."""
    parts = z.view(np.float64)
    sq = parts * parts
    return sq[..., 0::2] + sq[..., 1::2]


def target_signal(t: float) -> float:
    """Reference signal y = 2 sin(60 t)."""
    return 2.0 * math.sin(60.0 * t)


def target_output(sigma_sq: np.ndarray, grid: Grid) -> float:
    """First moment of the volatility density |sigma_k|^2: sum_k s_k |sigma_k|^2 ds."""
    return float(np.add.reduce(grid.nodes * sigma_sq) * grid.ds)


def gaussian_kernels(
    t: float, sigma_sq: np.ndarray, grid: Grid, params: KernelParams
) -> np.ndarray:
    """g_i = exp(-(d (1 - m_i))^2) with d = target_output - target_signal."""
    d = target_output(sigma_sq, grid) - target_signal(t)
    g = d * params.one_minus_m
    g *= g
    np.negative(g, out=g)
    return np.exp(g, out=g)


def potential(w: np.ndarray, g: np.ndarray) -> float:
    """Adaptive potential V(w) = sum_i w_i g_i."""
    w = np.asarray(w)
    g = np.asarray(g)
    if w.shape != g.shape:
        raise ValueError(f"weights {w.shape} and kernels {g.shape} differ in length")
    return float(np.dot(w, g))


def hebbian_rhs(
    w: np.ndarray, sigma: np.ndarray, psi: np.ndarray, g: np.ndarray, c: float
) -> np.ndarray:
    """dw_i/dt = -w_i + c |sigma_i| g_i |psi_i| (per-line moduli)."""
    # the same sum as -w + (...), since IEEE addition commutes, one ufunc fewer
    return c * np.abs(sigma) * g * np.abs(psi) - w


def coupled_rhs(
    t: float,
    y: np.ndarray,
    grid: Grid,
    params: KernelParams,
    config: ModelConfig,
) -> np.ndarray:
    """Full coupled derivative at time t of the packed state y (see pack_state).

    sigma and psi are read as the two rows of one complex (2, n) view of
    y, so y is neither copied nor modified; the result is a fresh vector in
    the same layout. Raises NonFiniteError naming the first offending block
    and node if the derivative is not finite; the adaptive integrator
    treats that as a failed step and retries with a smaller one. Overflow
    and invalid-operation warnings are left to the caller's errstate, which
    cash_karp_step sets to ignore.
    """
    n = grid.n
    z = y[: 4 * n].view(np.complex128).reshape(2, n)
    w = y[4 * n :]
    z_sq = modulus_sq(z)
    g = gaussian_kernels(t, z_sq[0], grid, params)
    v = potential(w, g)
    out = np.empty(5 * n)
    dz = out[: 4 * n].view(np.complex128).reshape(2, n)
    # both lines at once: dz/dt = i [ (1/2) s^2 |other line|^2 Lap(z) - q z ]
    # with the cubic coefficients q = (V |sigma|^2, |psi|^2 + r)
    q = z_sq.copy()
    q[0] *= v
    q[1] += config.r
    bracket = grid.half_nodes_sq * z_sq[::-1] * second_difference(
        z, grid, BoundaryPolicy.PERIODIC
    )
    bracket -= q * z
    np.multiply(bracket, 1j, out=dz)
    out[4 * n :] = hebbian_rhs(w, z[0], z[1], g, config.c)
    # any NaN or inf entry makes the sum non-finite; a sum that merely
    # overflowed finds no bad node below and passes
    if not math.isfinite(np.add.reduce(out)):
        for name, vec in (("sigma", dz[0]), ("psi", dz[1]), ("w", out[4 * n :])):
            finite = np.isfinite(vec)
            if not finite.all():
                node = int(np.argmin(finite))
                raise NonFiniteError(
                    f"non-finite {name} derivative at node {node}, t={t}", t=t, node=node
                )
    return out


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
    mass_sigma: np.ndarray
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
        return coupled_rhs(t, y, grid, params, config)

    system = OdeSystem(dimension=5 * n, rhs=rhs)

    times = _snapshot_times(config.t_end, config.snapshot_stride)
    rows: List[MarketState] = []
    stats = StepStats()
    started = _time.perf_counter()

    def record_rows(completed: bool) -> SimulationRecord:
        return SimulationRecord(
            config=config,
            params=params,
            times=np.array([s.t for s in rows]),
            sigma=np.array([s.sigma for s in rows]),
            psi=np.array([s.psi for s in rows]),
            w=np.array([s.w for s in rows]),
            g=np.array([gaussian_kernels(s.t, modulus_sq(s.sigma), grid, params) for s in rows]),
            mass_sigma=np.array([mass(s.sigma, grid) for s in rows]),
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
