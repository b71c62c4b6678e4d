"""The residual kernels against their whole-mesh forms, bit for bit, and the
memory a residual takes on a large mesh.

The kernels form their terms a slice or a block at a time; the oracles
below are the same arithmetic on whole-mesh temporaries, so every result
must match them byte for byte.  The flux and the tangent are checked the
same way against an earlier form that built the tangent later from what
the flux had computed."""

import functools
import tracemalloc

import numpy as np
import pytest

from lingrowth import density, solver
from lingrowth.catenoid import Anchor, CatenoidSpec, Sign, profile_value
from lingrowth.density import flux, make_mu_density, tangent
from lingrowth.experiments import _dirichlet, _graded_radii
from lingrowth.mesh import build_polar_mesh, one_column
from lingrowth.solver import (_add_next, _nodal_gradient, _triangle_gradients,
                              solve_dirichlet)


# -- oracles: the kernels with whole-mesh temporaries ------------------------


def whole_triangle_gradients(mesh, u):
    """:func:`lingrowth.solver._triangle_gradients` with both terms of every
    component formed at once."""
    grid = mesh.rings(u)
    nxt = np.concatenate([grid[:, 1:], grid[:, :1]], axis=1)
    lo = grid[:-1]
    diff = np.empty((len(lo), 3, mesh.n_theta))
    np.subtract(grid[1:], lo, out=diff[:, 0])
    np.subtract(nxt[1:], lo, out=diff[:, 1])
    np.subtract(nxt[:-1], lo, out=diff[:, 2])
    G = mesh.grads.reshape(2, 3, -1, 2, 1)
    p = G[:, 1] * diff[:, :2]
    p += G[:, 2] * diff[:, 1:]
    return p.reshape(2, -1).T


def whole_nodal_gradient(mesh, flux):
    """:func:`lingrowth.solver._nodal_gradient` with every vertex's
    contributions formed in one (3, rows, n_theta) product."""
    rows, n = len(mesh.areas), mesh.n_theta
    aG = (mesh.areas * mesh.grads)[..., None]
    c = aG[0] * flux[:, 0].reshape(rows, n)
    c += aG[1] * flux[:, 1].reshape(rows, n)
    c0, c1, c2 = c.reshape(3, -1, 2, n)
    grid = np.zeros((len(mesh.ring_radii), n))
    grid[1:] += c1[:, 0]
    _add_next(grid[1:], c2[:, 0])
    _add_next(grid[1:], c1[:, 1])
    grid[:-1] += c0[:, 0]
    grid[:-1] += c0[:, 1]
    _add_next(grid[:-1], c2[:, 1])
    if mesh.is_disk:
        return np.concatenate([[grid[0].sum()], grid[1:].ravel()])
    return grid.ravel()


def one_block_mu_g(mu, t):
    """g of the mu family with the series of every entry below the
    crossover formed in one block, from the density's own coefficients."""
    s, cut, coef = density._mu_g(mu).__defaults__
    t = np.asarray(t, dtype=float).ravel()
    finite = np.isfinite(t)
    if not finite.all():
        out = t.copy()
        out[finite] = one_block_mu_g(mu, t[finite])
        return out
    L = np.log1p(t)
    below = np.flatnonzero(L < cut)
    x = L[below]
    out = t - L
    if s != 0.0:
        out -= np.expm1(L * s) / s - L
    powers = np.empty((len(coef) - 1, len(x)))
    powers[0] = x
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], x, out=powers[k])
    series = coef[0] + np.einsum("k,km->m", coef[1:], powers)
    out[below] = x * x * series
    return out


def shared_slope_over_norm(d, p, t=None):
    """What the flux and the tangent share: p as a float array, its two
    components, t = |p| unless given, the mask t > 0, and g'(t) divided
    by t where t > 0, by 1 where t = 0."""
    p = np.asarray(p, dtype=float)
    comps = (p[..., 0], p[..., 1])
    if t is None:
        t = np.hypot(*comps)
    gp = np.asarray(d.gprime(t), dtype=float)
    pos = t > 0.0
    return p, comps, t, pos, gp / np.where(pos, t, 1.0)


def flux_and_later_tangent(d, p, t=None):
    """The flux, and a callable that builds the tangent from the flux's
    evaluation of t and g'(t)/t."""
    p, comps, t, pos, slope = shared_slope_over_norm(d, p, t)
    flux = np.where(pos, slope, 1.0)[..., None] * p
    return flux, functools.partial(tangent_from_slope, d, comps, t, pos,
                                   slope)


def tangent_from_slope(d, comps, t, pos, slope):
    """The tangent from what :func:`shared_slope_over_norm` returned."""
    c2 = np.asarray(d.gsecond(t), dtype=float)
    c1 = np.where(pos, slope, c2)
    safe = np.where(pos, t, 1.0)
    x, y = (c / safe for c in comps)
    coef = np.where(pos, c2 - c1, 0.0)
    cx = coef * x
    out = np.empty(np.shape(t) + (2, 2))
    out[..., 0, 0] = cx * x + c1
    out[..., 0, 1] = out[..., 1, 0] = cx * y
    out[..., 1, 1] = coef * y * y + c1
    return out


# -- kernels against the oracles ---------------------------------------------

_BASES = [(np.linspace(0.0, 1.0, 9), 12),            # disk
          (np.linspace(0.5, 1.0, 9), 16),            # uniform annulus
          (_graded_radii(0.2, 1.0, 8, 3), 12)]       # graded annulus
ORACLE_MESHES = [pytest.param(radii, n, column, id=f"{name}{tag}")
                 for (radii, n), name in zip(_BASES, ["disk", "uniform",
                                                      "graded"])
                 for column, tag in ((False, ""), (True, "-column"))]


def _mesh(radii, n_theta, column):
    mesh = build_polar_mesh(radii, n_theta)
    return one_column(mesh) if column else mesh


def _fields(mesh, rng):
    """A rough field, the same far from zero, and a ring-constant one."""
    rough = (0.7 * mesh.nodes[:, 0] + np.sin(3.0 * mesh.node_angles())
             * mesh.node_radii() + 0.1 * rng.normal(size=mesh.num_nodes))
    return (rough, rough + 1e6,
            mesh.from_rings(np.cos(mesh.ring_radii)[:, None]))


@pytest.mark.parametrize("radii, n_theta, column", ORACLE_MESHES)
def test_triangle_gradients_match_the_whole_mesh_form_bytewise(
        rng, radii, n_theta, column):
    mesh = _mesh(radii, n_theta, column)
    for u in _fields(mesh, rng):
        got, want = _triangle_gradients(mesh, u), whole_triangle_gradients(
            mesh, u)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("radii, n_theta, column", ORACLE_MESHES)
@pytest.mark.parametrize("cell_rings", [1, 3, None],
                         ids=["block-1", "block-3", "block-default"])
def test_nodal_gradient_matches_the_whole_mesh_form_bytewise(
        monkeypatch, mu3, rng, radii, n_theta, column, cell_rings):
    # blocks of one and three cell rings, and the default, one block here
    mesh = _mesh(radii, n_theta, column)
    if cell_rings is not None:
        monkeypatch.setattr(solver, "_NODAL_BLOCK", cell_rings * mesh.n_theta)
    for u in _fields(mesh, rng):
        p = _triangle_gradients(mesh, u)
        for f in (flux(mu3, p), rng.normal(size=p.shape)):
            got, want = _nodal_gradient(mesh, f), whole_nodal_gradient(
                mesh, f)
            assert got.shape == want.shape == (mesh.num_nodes,)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mu", [1.05, 1.2, 2.0, 3.0, 50.0])
@pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["B-1", "B", "B+1", "2B+1"])
def test_mu_g_series_in_blocks_matches_one_block_bytewise(rng, mu, blocks):
    # len(below) = multiple * B + extra entries below the crossover, mixed
    # with entries above it, 0, and (second pass) inf and nan
    multiple, extra = blocks
    count = multiple * density._SERIES_BLOCK + extra
    cut = density._mu_g(mu).__defaults__[1]
    small = np.expm1(cut * rng.uniform(0.0, 0.999, size=count))
    small[::97] = 0.0
    large = np.expm1(cut * rng.uniform(1.001, 3.0, size=count // 3))
    t = np.concatenate([small, large])
    rng.shuffle(t)
    assert np.count_nonzero(np.log1p(t) < cut) == count
    d = make_mu_density(mu)
    for arg in (t, np.concatenate([t[:5], [np.inf, np.nan], t[5:]])):
        got, want = d.g(arg), one_block_mu_g(mu, arg)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mu", [1.05, 1.2, 2.0, 3.0, 50.0])
def test_mu_g_of_a_scalar_has_the_bits_of_an_array_entry(rng, mu):
    # einsum sums a block of one entry in another order than longer ones:
    # 1 to 140 of these 3000 scalars differed in their last bits
    t = rng.uniform(0.0, 0.25, size=3000)
    g = make_mu_density(mu).g
    scalars = np.array([g(x) for x in t])
    assert scalars.tobytes() == g(t).tobytes()
    assert all(g(t[i:i + 1]).tobytes() == g(t)[i:i + 1].tobytes()
               for i in range(5))


def _rows(rng):
    """Rows of p with p = 0, signed zeros and NaN among sizes 1e-8 to 1e3."""
    p = rng.normal(size=(200, 2)) * rng.choice([1e-8, 1.0, 1e3],
                                               size=(200, 1))
    p[::7] = 0.0
    p[3::11] = -0.0
    p[5::13, 0] = -0.0
    p[9::17, 1] = np.nan
    p[11::19] = np.nan
    return p


@pytest.mark.parametrize("radii, n_theta, column", ORACLE_MESHES)
def test_flux_and_tangent_match_the_later_tangent_bytewise(
        area, mu3, rng, radii, n_theta, column):
    mesh = _mesh(radii, n_theta, column)
    stacks = [_triangle_gradients(mesh, u) for u in _fields(mesh, rng)]
    for d in (area, mu3):
        for p in (*stacks, _rows(rng)):
            want_flux, later = flux_and_later_tangent(d, p)
            want_tangent = later()
            for t in (None, np.hypot(p[:, 0], p[:, 1])):
                got = flux(d, p, t), tangent(d, p, t)
                assert got[0].tobytes() == want_flux.tobytes()
                assert got[1].tobytes() == want_tangent.tobytes()


# -- memory ------------------------------------------------------------------


def _traced_peak(call):
    """(result, bytes): ``call()`` and its tracemalloc peak above the
    traced memory at entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def finest_certificate(mu3):
    """The finest level of the 4-level mu=3 catenoid study (128 x 256,
    M = 65,536 triangles), its boundary data and its ring solution."""
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
    inner, outer = profile_value(mu3, spec, 1.5), profile_value(mu3, spec,
                                                                 3.0)
    mesh = build_polar_mesh(np.linspace(1.5, 3.0, 129), 256)
    column = one_column(mesh)
    ring = solve_dirichlet(mu3, column,
                           _dirichlet(column, inner=inner, outer=outer))
    return (mesh, _dirichlet(mesh, inner=inner, outer=outer),
            mesh.from_rings(column.rings(ring.values)))


def test_certificate_of_a_large_level_holds_ten_triangle_arrays(
        mu3, finest_certificate):
    # a certified start costs one residual: triangle gradients, energy,
    # flux and nodal gradient.  With whole-mesh temporaries that pass
    # peaked at 14.3 arrays of M doubles above the solve's entry; formed a
    # component or a block at a time it takes 8.1
    mesh, data, seed = finest_certificate
    M = len(mesh.areas) * mesh.n_theta
    sol, peak = _traced_peak(lambda: solve_dirichlet(mu3, mesh, data,
                                                     x0=seed))
    assert sol.converged and sol.iterations == 0
    assert peak <= 10 * 8 * M


def test_nodal_gradient_holds_two_slices_beyond_its_grid(
        mu3, finest_certificate):
    mesh, _, seed = finest_certificate
    f = flux(mu3, _triangle_gradients(mesh, seed))
    grid = len(mesh.ring_radii) * mesh.n_theta
    piece = len(mesh.areas) // 2 * mesh.n_theta     # one (vertex, kind)
    _, peak = _traced_peak(lambda: _nodal_gradient(mesh, f))
    # and the (2, 3, rows) area-weighted hat gradients
    assert peak <= 8 * (grid + 2 * piece + mesh.grads.size) + 4096


def test_flux_holds_no_memory_beyond_its_result(mu3, finest_certificate):
    # the flux keeps nothing of its evaluation once it returns; a form that
    # kept what a later tangent would need held 1.13 arrays of M doubles
    mesh, _, seed = finest_certificate
    p = _triangle_gradients(mesh, seed)
    t = np.hypot(p[:, 0], p[:, 1])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        f = flux(mu3, p, t)
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert f.nbytes == 8 * p.size
    assert held <= f.nbytes + 4096
