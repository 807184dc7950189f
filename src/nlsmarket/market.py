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
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import (
    ConfigError,
    IntegrationError,
    StepBudgetError,
    reject_non_finite,
)
from .grid import Grid, make_grid, second_difference
from .integrator import StepControl, StepStats, integrate_adaptive
from .ladder import pack_complex, unpack_complex

# Weight and mixing-coefficient draw order is part of the reproducibility
# contract and is echoed into run manifests. The draws are numpy's default_rng
# stream, made by _uniform_draws: a stdlib copy of numpy's SeedSequence and of
# PCG64 (O'Neill 2014, HMC-CS-2014-0905) that a test pins bit for bit to
# default_rng. So no run imports numpy.random, which raised a fresh
# interpreter's peak RSS by 6.3 MB and perfbench's market-default peak_rss_mb
# by 2.4 MB, and numpy releases, whose Generator streams NEP 19 does not
# freeze, cannot change the draws. The draws cost Python time once per run:
# about 25 us of seeding and 1 us per draw, 90 us at n = 30 against 27 us for
# default_rng (2-vCPU Xeon, Python 3.11).
PRNG_SPEC = (
    "numpy.random.default_rng(PCG64(seed)); draws: w[i]=uniform(-1,1) for "
    "i=0..n-1, then m[i]=uniform(-1,1) for i=0..n-1"
)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _seed_sequence_state(seed: int) -> List[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for an int seed:
    the seed's 32-bit words hashed into a pool of 4 words, then expanded."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]  # little-endian pairs


def _uniform_draws(seed: int, count: int, low: float, high: float) -> List[float]:
    """The first ``count`` draws of default_rng(seed).uniform(low, high): PCG64,
    a 128-bit LCG with XSL-RR output, seeded as pcg_setseq_128_srandom_r."""
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128
    draws = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        draws.append(low + (high - low) * ((word >> 11) * 2.0**-53))
    return draws

DEFAULT_RATE = 0.05 / 360.0  # per day

# Cap on snapshots x lines, the cells of each surface file: 1e7 cells is
# about 1.7 GB of CSV over all market artifacts. The CSV writer holds one
# block of snapshot rows (cli.ROW_BLOCK), not a table, so its memory does not
# grow with the run: at n = 30 its peak RSS rose by 0.2 MB at 2,000, 20,000
# and 100,000 rows, against 14.3 MB and 141.4 MB at 2,000 and 20,000 rows
# when each table was formatted whole. What grows is the record itself, one
# packed state and one row of kernels per snapshot.
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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


def target_signal(t: float) -> float:
    """Reference signal y = 2 sin(60 t)."""
    return 2.0 * math.sin(60.0 * t)


def target_output(sigma_sq: np.ndarray, grid: Grid) -> float:
    """First moment of the volatility density |sigma_k|^2: sum_k s_k |sigma_k|^2 ds."""
    return float(np.dot(grid.nodes, sigma_sq) * grid.ds)


def gaussian_kernels(
    t: float, sigma_sq: np.ndarray, grid: Grid, one_minus_m_sq: np.ndarray
) -> np.ndarray:
    """g_i = exp(-d^2 (1 - m_i)^2) with d = target_output - target_signal;
    ``one_minus_m_sq`` holds the (1 - m_i)^2 of the run's mixing coefficients.
    Up to rounding this is exp(-(d (1 - m_i))^2), except NaN for 1.0 when
    |d| > 1e154 and m_i = 1, which m drawn from [-1, 1) never meets."""
    d = target_output(sigma_sq, grid) - target_signal(t)
    g = one_minus_m_sq * -(d * d)
    return np.exp(g, out=g)


def potential(w: np.ndarray, g: np.ndarray) -> float:
    """Adaptive potential V(w) = sum_i w_i g_i."""
    return float(np.dot(w, g))


def hebbian_rhs(
    w: np.ndarray, sigma_abs: np.ndarray, psi_abs: np.ndarray, g: np.ndarray, c: float
) -> np.ndarray:
    """dw_i/dt = -w_i + c |sigma_i| g_i |psi_i|, from the moduli |sigma_i| and |psi_i|."""
    out = sigma_abs * psi_abs
    out *= c
    out *= g
    out -= w
    return out


def coupled_rhs(
    t: float,
    y: np.ndarray,
    grid: Grid,
    one_minus_m_sq: np.ndarray,
    config: ModelConfig,
) -> np.ndarray:
    """Full coupled derivative at time t of the packed state y (see pack_state);
    ``one_minus_m_sq`` holds (1 - m_i)^2 (see gaussian_kernels).

    sigma and psi are read as the two rows of one complex (2, n) view of
    y, so y is neither copied nor modified; the result is a fresh vector in
    the same layout. A non-finite derivative is returned as computed; the
    step built on it has an infinite error norm and is rejected. Overflow
    and invalid-operation warnings are left to the caller's errstate, which
    cash_karp_step sets to ignore.
    """
    n = grid.n
    z = y[: 4 * n].view(np.complex128).reshape(2, n)
    w = y[4 * n :]
    z_abs = np.abs(z)
    z_sq = z_abs ** 2
    g = gaussian_kernels(t, z_sq[0], grid, one_minus_m_sq)
    v = potential(w, g)
    out = np.empty(5 * n)
    dz = out[: 4 * n].view(np.complex128).reshape(2, n)
    # both lines at once: dz/dt = i [ s^2/(2 ds^2) |other line|^2 D(z) - q z ] with
    # D the undivided stencil and the cubic coefficients q = (V |sigma|^2, |psi|^2 + r)
    q = z_sq.copy()
    q[0] *= v
    q[1] += config.r
    bracket = grid.half_nodes_sq_per_ds2 * z_sq[::-1] * second_difference(z, grid)
    bracket -= q * z
    np.multiply(bracket, 1j, out=dz)
    out[4 * n :] = hebbian_rhs(w, z_abs[0], z_abs[1], g, config.c)
    return out


def pack_state(sigma: np.ndarray, psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Flatten to [sigma interleaved, psi interleaved, w]."""
    return np.concatenate([pack_complex(sigma), pack_complex(psi), w])


def unpack_state(y: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of pack_state: fresh (sigma, psi, w)."""
    return unpack_complex(y[: 2 * n]), unpack_complex(y[2 * n : 4 * n]), np.array(y[4 * n :])


def init_state(config: ModelConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded packed start state (sigma = 0.25, psi = 1, random weights w)
    and the mixing coefficients m, drawn after w (see PRNG_SPEC)."""
    draws = _uniform_draws(config.seed, 2 * config.n, -1.0, 1.0)
    w = np.array(draws[: config.n])
    m = np.array(draws[config.n :])
    sigma = np.full(config.n, 0.25 + 0.0j)
    psi = np.full(config.n, 1.0 + 0.0j)
    return pack_state(sigma, psi, w), m


@dataclass
class SimulationRecord:
    """Snapshots plus integrator statistics for one run.

    Row j of every array belongs to times[j]. ``sigma``, ``psi`` and ``w``
    are views of one snapshot store whose rows are packed states (see
    pack_state). ``completed`` is False when the record was cut short by an
    integration failure.
    """

    config: ModelConfig
    times: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray
    w: np.ndarray
    g: np.ndarray
    stats: StepStats
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
    by integrating stride segments back to back, one integrate_adaptive
    call each, so snapshot times are exact. Each segment's end state is
    written into the next row of one preallocated snapshot store. Each
    segment after the first starts from the step its predecessor's
    controller proposed (``StepStats.next_h``); ``control.h_init`` applies
    to the first segment only. Integration failures re-raise with the
    partial record attached as ``err.record``.
    """
    grid = make_grid(config.s0, config.s1, config.n)
    y0, m = init_state(config)
    one_minus_m_sq = (1.0 - m) ** 2
    n = config.n

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return coupled_rhs(t, y, grid, one_minus_m_sq, config)

    times = _snapshot_times(config.t_end, config.snapshot_stride)
    store = np.empty((len(times), 5 * n))
    store[0] = y0
    filled = 1
    stats = StepStats(next_h=config.control.h_init)

    def record(completed: bool) -> SimulationRecord:
        rows = store[:filled]
        fields = rows[:, : 4 * n].view(np.complex128)
        sigma = fields[:, :n]
        return SimulationRecord(
            config=config,
            times=np.array(times[:filled]),
            sigma=sigma,
            psi=fields[:, n:],
            w=rows[:, 4 * n :],
            g=np.array([gaussian_kernels(t, np.abs(s) ** 2, grid, one_minus_m_sq)
                        for t, s in zip(times, sigma)]),
            stats=stats,
            completed=completed,
        )

    budget = config.control.max_steps
    try:
        for t_prev, t_next in zip(times[:-1], times[1:]):
            # the step budget covers the whole run, not one stride segment
            used = stats.accepted + stats.rejected
            if used >= budget:
                raise StepBudgetError(budget, t_prev, stats)
            ctl = dataclasses.replace(config.control, max_steps=budget - used,
                                      h_init=stats.next_h)
            try:
                y, seg_stats = integrate_adaptive(rhs, t_prev, t_next, store[filled - 1], ctl)
            except IntegrationError as err:
                stats.merge(err.stats)
                if isinstance(err, StepBudgetError):
                    raise StepBudgetError(budget, err.t, stats) from None
                err.stats = stats
                raise
            stats.merge(seg_stats)
            store[filled] = y
            filled += 1
    except IntegrationError as err:
        err.record = record(completed=False)
        raise

    return record(completed=True)
