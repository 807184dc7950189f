import dataclasses

import numpy as np
import pytest

from nlsmarket.errors import ConfigError
from nlsmarket.grid import make_grid, second_difference

from oracles import dense_second_difference, roll_second_difference


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        make_grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        make_grid(1.0, 1.0, 10)
    with pytest.raises(ConfigError):
        make_grid(2.0, 1.0, 10)
    # 0.5 / ds**2 or s_k**2 * (0.5 / ds**2) not finite
    for s0, s1 in [(0.0, 1e-300), (0.0, 1e160), (-1e200, 1e200), (0.0, 1e-160),
                   (-1e308, 1e308)]:
        with pytest.raises(ConfigError, match=r"n=30 give a non-finite stencil coefficient"):
            make_grid(s0, s1, 30)
    assert np.isfinite(make_grid(1e150, 2e150, 30).half_nodes_sq_per_ds2).all()


def test_make_grid_thirty_lines():
    g = make_grid(10.0, 20.0, 30)
    assert g.ds == pytest.approx(10.0 / 29.0, rel=1e-15)
    assert g.nodes[0] == 10.0
    assert g.nodes[29] == 20.0
    spacing = np.diff(g.nodes)
    assert np.all(spacing > 0)
    assert np.allclose(spacing, g.ds, rtol=1e-13)
    # the stencil coefficients that heat_rhs and coupled_rhs apply, stored read-only
    assert g.half_per_ds2 == 0.5 / g.ds**2
    expected = g.nodes**2 * (0.5 / g.ds**2)
    assert g.half_nodes_sq_per_ds2.tobytes() == expected.tobytes()
    for name in ("nodes", "half_nodes_sq_per_ds2"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.half_per_ds2 = 1.0


def test_make_grid_unit_spacing():
    g = make_grid(0.0, 29.0, 30)
    assert g.ds == 1.0
    assert np.array_equal(g.nodes, np.arange(30.0))


def test_constant_field_periodic_is_annihilated():
    g = make_grid(0.0, 1.0, 17)
    f = np.full(17, 3.7 + 0.0j)
    assert np.all(second_difference(f, g) == 0.0)


def test_spike_fixed_value_ends():
    # equal end values give both ends the same derivative: each wraps to
    # the other end and sees the spike as its other neighbour
    g = make_grid(0.0, 2.0, 3)  # ds = 1
    out = second_difference(np.array([0.0, 1.0, 0.0]), g)
    assert out[1] == -2.0
    assert out[0] == out[2] == 1.0


def test_periodic_sine_matches_dense_eigenvalue():
    # a whole number of waves over the wrap period n is an eigenvector of
    # the undivided stencil, the unit-spacing matrix
    n = 64
    g = make_grid(0.0, float(n - 1), n)
    k = np.arange(n)
    f = np.sin(2.0 * np.pi * k / n)
    out = second_difference(f, g)
    dense = dense_second_difference(n, 1.0)
    assert np.allclose(out, dense @ f, atol=1e-13)
    lam = -4.0 * np.sin(np.pi / n) ** 2
    assert np.allclose(out, lam * f, atol=1e-12)


# the case ids name the stencil under test
@pytest.mark.parametrize("n", range(3, 13), ids=lambda n: f"{n}-periodic")
def test_matches_dense_matrix_oracle(n):
    rng = np.random.default_rng(100 + n)
    g = make_grid(-1.0, 2.0, n)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    # the undivided stencil is the unit-spacing matrix whatever the grid's ds
    dense = dense_second_difference(n, 1.0)
    assert np.allclose(second_difference(f, g), dense @ f, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 30, 401])
def test_periodic_matches_roll_oracle_bit_for_bit(n, kind):
    rng = np.random.default_rng(n)
    g = make_grid(10.0, 20.0, n)
    f = rng.normal(size=n)
    if kind == "complex":
        f = f + 1j * rng.normal(size=n)
    out = second_difference(f, g)
    assert np.array_equal(out, roll_second_difference(f))


@pytest.mark.parametrize("kind", ["real", "complex"], ids=lambda kind: f"periodic-{kind}")
def test_stacked_block_matches_row_by_row_bit_for_bit(kind):
    rng = np.random.default_rng(29)
    n = 30
    g = make_grid(10.0, 20.0, n)
    block = rng.normal(size=(2, n))
    if kind == "complex":
        block = block + 1j * rng.normal(size=(2, n))
    out = second_difference(block, g)
    assert out.shape == (2, n)
    for row in range(2):
        assert np.array_equal(out[row], second_difference(block[row], g))


@pytest.mark.parametrize("shape", [29, (2, 29), (30, 2)],
                         ids=["short-row", "short-block", "nodes-down-rows"])
def test_length_mismatch_rejected(shape):
    g = make_grid(10.0, 20.0, 30)
    with pytest.raises(ValueError):
        second_difference(np.zeros(shape), g)


def test_periodic_row_sum_telescopes_to_zero():
    rng = np.random.default_rng(7)
    for n in (3, 8, 33, 100):
        g = make_grid(0.0, 1.0, n)
        f = rng.normal(size=n)
        total = np.sum(second_difference(f, g))
        roundoff = 1e-12 * n * np.abs(f).max()
        assert abs(total) <= roundoff


def test_periodic_operator_is_symmetric():
    rng = np.random.default_rng(11)
    g = make_grid(0.0, 5.0, 40)
    for _ in range(50):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        lhs = np.dot(a, second_difference(b, g))
        rhs = np.dot(second_difference(a, g), b)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)



def test_zero_flux_mirrors_ghost_nodes():
    # for a field even about an end node the wrapped neighbour is that
    # node's mirror image, so the periodic stencil there is the zero-flux
    # ghost-node value 2 (f[1] - f[0])
    g = make_grid(0.0, 3.0, 4)  # ds = 1
    f = np.array([1.0, 4.0, 9.0, 4.0])  # even about node 0
    assert second_difference(f, g)[0] == 2.0 * (4.0 - 1.0)
    f = np.array([4.0, 9.0, 4.0, 1.0])  # even about node 3
    assert second_difference(f, g)[-1] == 2.0 * (4.0 - 1.0)
