import numpy as np
import pytest
from scipy.linalg import expm

from nlsmarket.cli import _integrate_field
from nlsmarket.grid import make_grid
from nlsmarket.ladder import (
    complex_system,
    energy,
    heat_potential_rhs,
    heat_rhs,
    linear_schrodinger_rhs,
    mass,
    nls_rhs,
    pack_complex,
    unpack_complex,
)

from oracles import dense_second_difference, heat_kernel, roll_second_difference


def test_pack_unpack_layout():
    f = np.array([1.0 + 2.0j, -3.0 + 0.5j])
    packed = pack_complex(f)
    assert np.array_equal(packed, [1.0, 2.0, -3.0, 0.5])
    assert np.array_equal(unpack_complex(packed), f)

    # results never alias their inputs
    packed[0] = 99.0
    assert f[0] == 1.0 + 2.0j
    vec = np.array([1.0, 2.0, -3.0, 0.5])
    unpacked = unpack_complex(vec)
    unpacked[0] = 7.0
    assert np.array_equal(vec, [1.0, 2.0, -3.0, 0.5])

    # non-contiguous input round-trips
    g = np.arange(6) + 1j * np.arange(6, 12)
    strided = g[::2]
    assert np.array_equal(pack_complex(strided), [0.0, 6.0, 2.0, 8.0, 4.0, 10.0])
    assert np.array_equal(unpack_complex(pack_complex(strided)), strided)
    assert np.array_equal(unpack_complex(pack_complex(g)[::2]), [0 + 1j, 2 + 3j, 4 + 5j])


def test_heat_rhs_trivial_cases():
    g = make_grid(0.0, 2.0, 3)  # ds = 1
    assert np.all(heat_rhs(np.full(3, 2.0), g) == 0.0)
    spike = heat_rhs(np.array([0.0, 1.0, 0.0]), g)
    assert spike[1] == -1.0
    # the ends wrap: each sees the spike as one of its two neighbours
    assert spike[0] == spike[2] == 0.5


def test_heat_solution_vs_analytic_kernel():
    # At n = 201 the second-order stencil floor dominates: the exact
    # semi-discrete flow (dense expm oracle) already sits 2.21e-4 from the
    # continuum kernel, so the solver is checked both against the
    # semi-discrete oracle (tight) and against the kernel (frozen floor).
    grid = make_grid(-10.0, 10.0, 201)
    x = grid.nodes
    u0 = np.exp(-(x**2) / 2.0).astype(complex)
    u1, _ = _integrate_field(lambda f: heat_rhs(f, grid), u0, 1.0, 1e-8)

    dense = 0.5 * dense_second_difference(grid.n, grid.ds)
    semi_discrete = expm(dense) @ u0.real
    assert np.max(np.abs(u1.real - semi_discrete)) < 5e-7

    floor = np.max(np.abs(u1.real - heat_kernel(x, 1.0)))
    assert 2.15e-4 < floor < 2.28e-4


def test_heat_decay_is_monotone():
    grid = make_grid(-5.0, 5.0, 101)
    rng = np.random.default_rng(3)
    u0 = np.abs(rng.normal(size=101)) + 0.1
    peaks = [np.max(np.abs(u0))]
    _integrate_field(
        lambda f: heat_rhs(f, grid), u0.astype(complex), 0.5, 1e-8,
        observer=lambda t, y: peaks.append(np.max(np.abs(unpack_complex(y)))),
    )
    for prev, cur in zip(peaks, peaks[1:]):
        assert cur <= prev + 1e-12  # roundoff slack only


def test_heat_potential_constant_field():
    grid = make_grid(-3.0, 3.0, 41)
    f = np.full(41, 2.0 + 0.0j)
    out = heat_potential_rhs(f, grid, 0.7)
    assert np.allclose(out, 0.7 * 2.0, atol=1e-13)


def test_linear_schrodinger_zero_field():
    grid = make_grid(-3.0, 3.0, 21)
    out = linear_schrodinger_rhs(np.zeros(21, dtype=complex), grid, 1.0)
    assert np.all(out == 0.0)


def test_linear_schrodinger_is_linear():
    grid = make_grid(-3.0, 3.0, 33)
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = rng.normal(size=33) + 1j * rng.normal(size=33)
        h = rng.normal(size=33) + 1j * rng.normal(size=33)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs = linear_schrodinger_rhs(a * f + b * h, grid, 2.0)
        rhs = a * linear_schrodinger_rhs(f, grid, 2.0) + b * linear_schrodinger_rhs(
            h, grid, 2.0
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_plane_wave_modulus_is_stationary():
    # an integer harmonic of the wrap period n*ds is an exact eigenmode of
    # the discrete operator, so it only rotates in phase
    n = 128
    grid = make_grid(0.0, float(n - 1), n)
    q = 2.0 * np.pi * 3.0 / (n * grid.ds)
    psi0 = np.exp(1j * q * grid.nodes)
    psi1, _ = _integrate_field(lambda f: linear_schrodinger_rhs(f, grid, 0.0), psi0, 1.0,
                               1e-8)
    assert np.max(np.abs(np.abs(psi1) - 1.0)) < 1e-7
    # analytic phase of the semi-discrete mode
    lam = -(4.0 / grid.ds**2) * np.sin(q * grid.ds / 2.0) ** 2
    expected = psi0 * np.exp(0.5j * lam * 1.0)
    assert np.max(np.abs(psi1 - expected)) < 1e-6


def test_nls_zero_field():
    grid = make_grid(-3.0, 3.0, 21)
    out = nls_rhs(np.zeros(21, dtype=complex), grid, -1.0)
    assert np.all(out == 0.0)


def test_nls_small_amplitude_reduces_to_linear():
    # cubic term scales as |f|^2, so at 1e-6 amplitude it is 1e-12 relative
    n = 200
    grid = make_grid(0.0, float(n - 1), n)
    q = 2.0 * np.pi * 80.0 / (n * grid.ds)
    f = 1e-6 * np.exp(1j * q * grid.nodes)
    full = nls_rhs(f, grid, -1.0)
    diffusion = linear_schrodinger_rhs(f, grid, 0.0)
    rel = np.max(np.abs(full - diffusion)) / np.max(np.abs(diffusion))
    assert rel < 1e-12


def test_soliton_modulus_and_invariants():
    # sech is the continuum soliton; on this grid the semi-discrete flow
    # keeps |psi| within a frozen 1.86e-3 floor of it (spatial error, not
    # integrator error) while mass and energy stay conserved
    grid = make_grid(-20.0, 20.0, 401)
    psi0 = (1.0 / np.cosh(grid.nodes)).astype(complex)
    v = -1.0
    mass0 = mass(psi0, grid)
    h0 = energy(psi0, grid, v)
    psi1, _ = _integrate_field(lambda f: nls_rhs(f, grid, v), psi0, 5.0, 1e-8)

    dev = np.max(np.abs(np.abs(psi1) - np.abs(psi0)))
    assert 1.7e-3 < dev < 2.0e-3

    assert abs(mass(psi1, grid) - mass0) < 1e-6
    assert abs(energy(psi1, grid, v) - h0) / abs(h0) < 1e-3


def test_mass_examples():
    grid = make_grid(0.0, 1.0, 11)
    assert mass(np.zeros(11, dtype=complex), grid) == 0.0
    ones = np.ones(11, dtype=complex)
    assert mass(ones, grid) == pytest.approx(11.0 / 10.0, rel=1e-15)

    wide = make_grid(-20.0, 20.0, 801)
    sech = 1.0 / np.cosh(wide.nodes)
    assert mass(sech, wide) == pytest.approx(2.0, abs=1e-3)


def test_energy_examples():
    grid = make_grid(0.0, 1.0, 11)
    assert energy(np.zeros(11, dtype=complex), grid, 0.0) == 0.0

    n = 256
    g = make_grid(0.0, float(n - 1), n)
    length = n * g.ds
    q = 2.0 * np.pi * 2.0 / length
    wave = np.exp(1j * q * g.nodes)
    # centered first difference carries a sin(q ds)/(q ds) factor
    expected = 0.5 * (np.sin(q * g.ds) / g.ds) ** 2 * length
    assert energy(wave, g, 0.0) == pytest.approx(expected, rel=1e-12)
    assert energy(wave, g, 0.0) == pytest.approx(0.5 * q**2 * length, rel=1e-2)

    # the wrap-padded difference is the np.roll formula bit for bit
    field = random_field(64, 9)
    g = make_grid(-3.0, 5.0, 64)
    dpsi = (np.roll(field, -1) - np.roll(field, 1)) / (2.0 * g.ds)
    dens = 0.5 * np.abs(dpsi) ** 2 + 0.5 * 0.7 * np.abs(field) ** 4
    assert energy(field, g, 0.7) == float(np.sum(dens) * g.ds)


def test_energy_rejects_a_field_off_the_grid():
    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="does not match grid n=11"):
        energy(np.zeros(12, dtype=complex), grid, 0.0)


def test_energy_nonperiodic_boundary_rule():
    grid = make_grid(0.0, 1.0, 5)  # ds = 0.25
    f = grid.nodes.astype(complex)  # df/dx = 1 at the interior nodes
    got = energy(f, grid, 0.0)
    # a field whose ends differ still takes the wrapped centered difference
    # at both ends, (f[1] - f[-1]) / (2 ds) = (f[0] - f[-2]) / (2 ds) = -1.5,
    # not the one-sided slope 1
    dens = 0.5 * np.array([1.5**2, 1.0, 1.0, 1.0, 1.5**2])
    assert got == pytest.approx(np.sum(dens) * grid.ds, rel=1e-12)


POTENTIAL_RHS = [heat_potential_rhs, linear_schrodinger_rhs, nls_rhs]
POTENTIAL_IDS = [fn.__name__ for fn in POTENTIAL_RHS]

# each potential right-hand side as one allocating expression in the
# library's operation order, with a per-node potential array vv; the heat
# term ``diffusion`` is (0.5 / ds**2) times the undivided stencil
PER_NODE = {
    heat_potential_rhs: lambda diffusion, f, vv: diffusion + vv * f,
    linear_schrodinger_rhs: lambda diffusion, f, vv: 1j * (diffusion - vv * f),
    nls_rhs: lambda diffusion, f, vv: 1j * (diffusion - vv * np.abs(f) ** 2 * f),
}


def random_field(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_scalar_potential_stays_a_float():
    # any real scalar type of V gives the complex128 result of float(V)
    grid = make_grid(0.0, 1.0, 5)
    f = random_field(5, 3)
    for rhs in POTENTIAL_RHS:
        for v in (1, -1.0, np.float32(0.5), np.float64(0.25)):
            got = rhs(f, grid, v)
            assert got.dtype == np.complex128
            assert got.tobytes() == rhs(f, grid, float(v)).tobytes()


@pytest.mark.parametrize("n", [201, 801])
@pytest.mark.parametrize("rhs", POTENTIAL_RHS, ids=POTENTIAL_IDS)
def test_scalar_potential_matches_its_full_array_bit_for_bit(rhs, n):
    grid = make_grid(-20.0, 20.0, n)
    f = random_field(n, n)
    diffusion = (0.5 / grid.ds**2) * roll_second_difference(f)
    for v in (0.0, 1.0, -1.0, 0.37, -2.9e-3, -0.73):
        got = rhs(f, grid, v)
        tabulated = PER_NODE[rhs](diffusion, f, np.full(n, v))
        assert got.dtype == tabulated.dtype == np.complex128
        assert got.tobytes() == tabulated.tobytes()


@pytest.mark.parametrize("n", [201, 801])
def test_ladder_rhs_match_their_plain_expressions_bit_for_bit(n):
    # heat_rhs as one allocating expression: the undivided np.roll stencil
    # oracle scaled by the one coefficient 0.5 / ds**2 (the potential
    # right-hand sides: test_scalar_potential_matches_its_full_array_bit_for_bit)
    grid = make_grid(-20.0, 20.0, n)
    f = random_field(n, n + 1)
    expected = (0.5 / grid.ds**2) * roll_second_difference(f)
    assert heat_rhs(f, grid).tobytes() == expected.tobytes()


LADDER_MAPS = {
    "heat": lambda f, g: heat_rhs(f, g),
    "heat-potential": lambda f, g: heat_potential_rhs(f, g, 1.0),
    "linear": lambda f, g: linear_schrodinger_rhs(f, g, 1.0),
    "nls": lambda f, g: nls_rhs(f, g, -1.0),
}


@pytest.mark.parametrize("stage", sorted(LADDER_MAPS))
def test_complex_system_hands_the_map_a_view_and_returns_a_fresh_array(stage):
    grid = make_grid(-20.0, 20.0, 801)
    seen = []

    def fn(field):
        seen.append(field)
        return LADDER_MAPS[stage](field, grid)

    rhs = complex_system(fn)
    y = pack_complex(random_field(grid.n, 3))
    y.setflags(write=False)
    before = y.copy()
    out = rhs(0.0, y)
    # the map sees the state itself, read-only, and leaves it unchanged
    assert np.shares_memory(seen[0], y) and not seen[0].flags.writeable
    assert y.tobytes() == before.tobytes()
    # the result is a fresh packed vector, bit for bit the copying adapter's
    assert out.dtype == np.float64 and out.shape == (2 * grid.n,)
    assert not np.shares_memory(out, y)
    expected = pack_complex(LADDER_MAPS[stage](unpack_complex(before), grid))
    assert out.tobytes() == expected.tobytes()

    # a (k, 2n) stack of packed states, as integrate_members passes it, is
    # handed over as its (k, n) complex view, and each row of the result is
    # that row's own result bit for bit
    stack = np.stack([before, pack_complex(random_field(grid.n, 4))])
    stack.setflags(write=False)
    out = rhs(np.zeros(2), stack)
    assert seen[1].shape == (2, grid.n) and seen[1].dtype == np.complex128
    assert np.shares_memory(seen[1], stack)
    assert out.shape == stack.shape and not np.shares_memory(out, stack)
    for row, state in zip(out, stack):
        assert row.tobytes() == rhs(0.0, state).tobytes()
