"""Method-of-lines right-hand sides for the verification ladder.

Four semi-discrete systems of increasing difficulty share one integrator,
each on a grid of its own size: plain diffusion, diffusion with a potential,
the linear Schrodinger equation, and the cubic nonlinear Schrodinger
equation. Mass and energy diagnostics live here as well.

All builders return the explicit time derivative dpsi/dt, so the same
real-vector integrator serves every stage. Complex fields cross the
integrator boundary as interleaved (Re, Im) pairs; the layout is fixed to
[Re f0, Im f0, Re f1, Im f1, ...] so that recorded states are reproducible
bit-exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import Grid, second_difference
from .integrator import Rhs


def pack_complex(field: np.ndarray) -> np.ndarray:
    """Interleave a complex field into [Re f0, Im f0, Re f1, Im f1, ...].

    The result is a fresh array that shares no memory with ``field``.
    """
    return np.array(field, dtype=np.complex128, order="C").view(np.float64)


def unpack_complex(vec: np.ndarray) -> np.ndarray:
    """Inverse of pack_complex; the result shares no memory with ``vec``."""
    return np.array(vec, dtype=np.float64, order="C").view(np.complex128)


# The right-hand sides below keep each expression's operation order and
# reuse the fresh array of the first operation, so their results match the
# plain expression bit for bit without a temporary per operator. The
# potential V is a constant: multiplying by the float is the same IEEE
# operation on every node as multiplying by np.full(grid.n, V).


def heat_rhs(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Diffusion with coefficient one half: (1/2) d2f/dx2."""
    out = second_difference(field, grid)
    out *= grid.half_per_ds2
    return out


def heat_potential_rhs(field: np.ndarray, grid: Grid, v: float) -> np.ndarray:
    """Diffusion plus a multiplicative potential term: (1/2) d2f/dx2 + V f."""
    out = heat_rhs(field, grid)
    out += v * field
    return out


def linear_schrodinger_rhs(field: np.ndarray, grid: Grid, v: float) -> np.ndarray:
    """df/dt = i [ (1/2) d2f/dx2 - V f ]."""
    field = np.asarray(field, dtype=complex)
    out = heat_rhs(field, grid)
    out -= v * field
    out *= 1j
    return out


def nls_rhs(field: np.ndarray, grid: Grid, v: float) -> np.ndarray:
    """df/dt = i [ (1/2) d2f/dx2 - V |f|^2 f ] (cubic nonlinearity)."""
    field = np.asarray(field, dtype=complex)
    cubic = np.abs(field)
    cubic **= 2
    cubic *= v
    out = heat_rhs(field, grid)
    out -= cubic * field
    out *= 1j
    return out


def mass(field: np.ndarray, grid: Grid) -> float:
    """Riemann-sum mass: sum |f_k|^2 ds. Non-negative; zero iff f is zero."""
    field = np.asarray(field)
    return float(np.sum(np.abs(field) ** 2) * grid.ds)


def energy(field: np.ndarray, grid: Grid, v: float) -> float:
    """Discrete Hamiltonian: sum[ (1/2)|df/dx|^2 + (V/2)|f|^4 ] ds.

    df/dx uses centered differences with the periodic wrap at the ends.
    """
    field = np.asarray(field, dtype=complex)
    if field.shape != (grid.n,):
        raise ValueError(f"field length {field.shape} does not match grid n={grid.n}")
    padded = field.take(grid.wrap_index)
    dpsi = (padded[2:] - padded[:-2]) / (2.0 * grid.ds)
    dens = 0.5 * np.abs(dpsi) ** 2 + 0.5 * v * np.abs(field) ** 4
    return float(np.sum(dens) * grid.ds)


def complex_system(fn: Callable[[np.ndarray], np.ndarray]) -> Rhs:
    """Wrap an autonomous complex-field map into an Rhs on the packed real state.

    The packed state, a contiguous float64 vector as the integrator passes
    it, is handed to ``fn`` as its complex128 view, and the map's
    complex128 result comes back as its float64 view, so a call copies
    nothing. A (k, 2n) stack of packed states, as integrate_members passes
    it, is handed over as its (k, n) view in the same way. That relies on the Rhs contract, which ``fn`` must keep as
    well: it neither keeps nor mutates its argument (the view shares the
    integrator's stage buffer) and returns a fresh array.
    """

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return fn(y.view(np.complex128)).view(np.float64)

    return rhs
