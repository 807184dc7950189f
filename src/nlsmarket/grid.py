"""Uniform stock-price grid and second-difference (Laplacian) stencils."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError


class BoundaryPolicy(Enum):
    """End-node treatment for the second-difference stencil.

    PERIODIC wraps the neighbour indices modulo n. For equal end values
    this makes the time derivative at both ends identical by construction,
    which is how the repeatable boundary condition of the coupled market
    model is realized. FIXED_VALUE pins the end nodes (their stencil rows
    are zero, so whatever the initial profile put there stays). ZERO_FLUX
    mirrors the adjacent interior node into a ghost node, enforcing a
    vanishing first derivative at the wall.
    """

    PERIODIC = "periodic"
    FIXED_VALUE = "fixed-value"
    ZERO_FLUX = "zero-flux"


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of n nodes over the price interval [s0, s1]."""

    s0: float
    s1: float
    n: int
    ds: float
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)

    @cached_property
    def half_nodes_sq(self) -> np.ndarray:
        """s_k**2 / 2 at every node, computed once per grid (read-only)."""
        values = 0.5 * self.nodes**2
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

    Raises ConfigError for n < 3 or a non-increasing interval.
    """
    if n < 3:
        raise ConfigError(f"grid needs at least 3 nodes, got n={n}")
    if not s1 > s0:
        raise ConfigError(f"grid interval must satisfy s1 > s0, got [{s0}, {s1}]")
    ds = (s1 - s0) / (n - 1)
    nodes = np.linspace(float(s0), float(s1), int(n))
    return Grid(s0=float(s0), s1=float(s1), n=int(n), ds=ds, nodes=nodes)


def second_difference(field: np.ndarray, grid: Grid, policy: BoundaryPolicy) -> np.ndarray:
    """Centered second difference (f[k+1] - 2 f[k] + f[k-1]) / ds**2.

    Acts along the last axis, whose length must be grid.n, so a stack of
    fields is differenced in one call. Interior nodes always use the
    three-point stencil; the two end nodes follow ``policy``. Works on real
    or complex fields.
    """
    field = np.asarray(field)
    if field.shape[-1:] != (grid.n,):
        raise ValueError(f"field length {field.shape} does not match grid n={grid.n}")
    inv_ds2 = 1.0 / grid.ds**2
    if policy is BoundaryPolicy.PERIODIC:
        # one wrap-padded copy [f[-1], f..., f[0]] gives both neighbours as slices
        padded = field.take(grid.wrap_index, axis=-1)
        return (padded[..., 2:] - 2.0 * field + padded[..., :-2]) * inv_ds2
    out = np.zeros(field.shape, dtype=np.result_type(field, np.float64))
    out[..., 1:-1] = (field[..., 2:] - 2.0 * field[..., 1:-1] + field[..., :-2]) * inv_ds2
    if policy is BoundaryPolicy.ZERO_FLUX:
        # ghost nodes mirror the first interior neighbour
        out[..., 0] = 2.0 * (field[..., 1] - field[..., 0]) * inv_ds2
        out[..., -1] = 2.0 * (field[..., -2] - field[..., -1]) * inv_ds2
    return out
