"""Uniform stock-price grid and its periodic second-difference (Laplacian) stencil."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n nodes s_k over [s0, s1], spacing ds, built by make_grid with the
    stencil coefficients half_per_ds2 = 0.5 / ds**2 (the ladder's heat term) and
    half_nodes_sq_per_ds2 = s_k**2 * half_per_ds2 (the market's); its arrays are read-only."""

    n: int
    ds: float
    nodes: np.ndarray
    half_per_ds2: float
    half_nodes_sq_per_ds2: np.ndarray

    @cached_property
    def wrap_index(self) -> np.ndarray:
        """Periodic padding index [n-1, 0, 1, ..., n-1, 0] (read-only)."""
        index = np.arange(-1, self.n + 1) % self.n
        index.setflags(write=False)
        return index


def make_grid(s0: float, s1: float, n: int) -> Grid:
    """Build a uniform grid with spacing ds = (s1 - s0) / (n - 1).

    The grid rules of configs and ladder grids alike: ConfigError unless n >= 3, s1 > s0, and
    the stencil coefficients 0.5 / ds**2 and every s_k**2 * (0.5 / ds**2) are finite.
    """
    if n < 3:
        raise ConfigError(f"need at least 3 lines, got n={n}")
    if not s1 > s0:
        raise ConfigError(f"price bounds must satisfy s1 > s0, got [{s0}, {s1}]")
    ds = (s1 - s0) / (n - 1)
    with np.errstate(all="ignore"):
        nodes = np.linspace(float(s0), float(s1), int(n))
        try:
            half_per_ds2 = 0.5 / ds**2
        except (OverflowError, ZeroDivisionError):  # ds**2 left the float range: refused
            half_per_ds2 = np.inf
        half_nodes_sq_per_ds2 = nodes**2 * half_per_ds2
    if not np.isfinite(half_nodes_sq_per_ds2).all():
        raise ConfigError(
            f"price bounds [{s0}, {s1}] at n={n} give a non-finite stencil coefficient")
    nodes.setflags(write=False)
    half_nodes_sq_per_ds2.setflags(write=False)
    return Grid(int(n), ds, nodes, half_per_ds2, half_nodes_sq_per_ds2)


def second_difference(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic undivided second difference f[k+1] - 2 f[k] + f[k-1].

    Callers apply the 1/ds**2 as the grid's stored half_per_ds2 or half_nodes_sq_per_ds2.
    Neighbour indices wrap modulo n. For equal end values this makes the
    time derivative at both ends identical by construction, which is how
    the repeatable boundary condition of the coupled market model is
    realized. Acts along the last axis, whose length must be grid.n, so a
    stack of fields is differenced in one call. Works on real or complex
    fields.
    """
    field = np.asarray(field)
    if field.shape[-1:] != (grid.n,):
        raise ValueError(f"field length {field.shape} does not match grid n={grid.n}")
    # one wrap-padded copy [f[-1], f..., f[0]] gives both neighbours as slices
    padded = field.take(grid.wrap_index, axis=-1)
    # f[k+1] - 2 f[k] + f[k-1] in that order, in one buffer
    out = padded[..., 2:] - 2.0 * field
    out += padded[..., :-2]
    return out
