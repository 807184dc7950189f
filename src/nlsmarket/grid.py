"""Uniform stock-price grid and its periodic second-difference (Laplacian) stencil."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of n nodes over the price interval [s0, s1]."""

    n: int
    ds: float
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)

    @cached_property
    def half_nodes_sq_per_ds2(self) -> np.ndarray:
        """s_k**2 / (2 ds**2) at every node, computed once per grid (read-only)."""
        values = self.nodes**2 * (0.5 / self.ds**2)
        values.setflags(write=False)
        return values

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
        try:  # formed as heat_rhs and Grid.half_nodes_sq_per_ds2 form them
            finite = np.isfinite(nodes**2 * (0.5 / ds**2)).all()
        except (OverflowError, ZeroDivisionError):
            finite = False
    if not finite:
        raise ConfigError(
            f"price bounds [{s0}, {s1}] at n={n} give a non-finite stencil coefficient")
    return Grid(n=int(n), ds=ds, nodes=nodes)


def second_difference(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic undivided second difference f[k+1] - 2 f[k] + f[k-1].

    Callers own the 1/ds**2 and fold it into the coefficient they apply.
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
