"""FEM energy minimizer: exactness, descent, symmetry, comparison checks."""

import contextlib
import ctypes
import json
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import spsolve

from lingrowth import cli, density, solver
from lingrowth.catenoid import Anchor, CatenoidSpec, Sign, profile_value
from lingrowth.density import flux, tangent
from lingrowth.experiments import _graded_radii, run_comparison_suite
from lingrowth.mesh import _triangle_geometry, build_polar_mesh, one_column
from lingrowth.solver import (
    _LOWER,
    ComparisonResult,
    MeshMismatchError,
    NonConvergenceError,
    _Band,
    _band,
    _blocks,
    _cached_band,
    _nodal_gradient,
    _ring_mode_corrected,
    _ring_mode_step,
    _triangle_gradients,
    check_comparison,
    energy,
    solve_dirichlet,
)
from meshes import case
from rotation import rotate_columns


def affine(mesh, qx, qy, c):
    return c + qx * mesh.nodes[:, 0] + qy * mesh.nodes[:, 1]


def area_total(mesh):
    real = mesh.row_triangles()[mesh.areas != 0.0].reshape(-1, 3)
    return float(np.sum(_triangle_geometry(mesh.nodes, real)[0]))


def node_index(mesh, ring, col):
    """Index of the node on circle ``ring`` at angular column ``col``."""
    return int(mesh.rings(np.arange(mesh.num_nodes))[ring, col % mesh.n_theta])


# -- oracles: the batched small-matrix kernels the solver replaced -----------


def layout(mesh):
    """The solver's per-triangle layout spelled out triangle by triangle:
    (M, 3) vertex triples, (M,) areas and (M, 2, 3) hat gradients, each
    row's column-0 geometry repeated over its n_theta columns (a disk's
    placeholder row included)."""
    n = mesh.n_theta
    return (mesh.row_triangles().reshape(-1, 3), np.repeat(mesh.areas, n),
            np.repeat(np.moveaxis(mesh.grads, -1, 0), n, axis=0))


def einsum_triangle_gradients(mesh, u):
    tri, _, G = layout(mesh)
    ut = u[tri]
    ut = ut - ut[:, :1]
    return np.einsum("mik,mk->mi", G, ut)


def einsum_contributions(mesh, flux):
    """(M, 3) per-vertex contributions areas * G^T flux of each triangle."""
    _, areas, G = layout(mesh)
    return np.einsum("m,mik,mi->mk", areas, G, flux)


def einsum_nodal_gradient(mesh, flux):
    tri = layout(mesh)[0]
    return np.bincount(tri.ravel(),
                       weights=einsum_contributions(mesh, flux).ravel(),
                       minlength=mesh.num_nodes)


def matmul_blocks(mesh, tangent):
    """(M, 3, 3) triangle stiffness blocks areas * G^T T G."""
    _, areas, G = layout(mesh)
    blocks = np.swapaxes(G, 1, 2) @ (tangent @ G)
    blocks *= areas[:, None, None]
    return blocks


def bincount_band(mesh, interior, blocks):
    """Lower band ab[i - j, j] = K[i, j] of the interior Hessian, scattered
    from every entry of (M, 3, 3) blocks whose row is at least its column
    in interior numbering."""
    local = np.full(mesh.num_nodes, -1, dtype=np.int64)
    local[interior] = np.arange(len(interior))
    lt = local[layout(mesh)[0]]
    rows = np.repeat(lt, 3, axis=1).ravel()
    cols = np.tile(lt, (1, 3)).ravel()
    keep = (cols >= 0) & (rows >= cols)
    offsets = rows[keep] - cols[keep]
    depth = int(offsets.max()) + 1
    ab = np.bincount(cols[keep] * depth + offsets,
                     weights=blocks.ravel()[keep],
                     minlength=depth * len(interior))
    return ab.reshape(len(interior), depth).T


def band_counting_each_entry_once(mesh, interior):
    """Band map that places every lower block entry once, also an
    off-diagonal one whose two vertices are one node: right on 2D meshes,
    where no such entry exists, and wrong on a one-column mesh."""
    local = np.full(mesh.num_nodes, -1, dtype=np.int64)
    local[interior] = np.arange(len(interior))
    lt = local[layout(mesh)[0]]
    lt[np.repeat(mesh.areas == 0.0, mesh.n_theta)] = -1   # placeholder
    i, j = np.array(_LOWER).T
    a, b = lt[:, i].ravel(), lt[:, j].ravel()
    entries = np.flatnonzero((a >= 0) & (b >= 0))
    a, b = a[entries], b[entries]
    offsets = np.abs(a - b)
    depth = int(offsets.max()) + 1
    return _Band(entries=entries, positions=np.minimum(a, b) * depth + offsets,
                 shape=(depth, len(interior)))


def coo_hessian(d, mesh, u):
    """Full-node energy Hessian summed from the oracle's triangle blocks by
    sparse COO assembly: the reference the banded interior matrix is
    checked against."""
    T = tangent(d, _triangle_gradients(mesh, u))
    tri = layout(mesh)[0]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((matmul_blocks(mesh, T).ravel(), (rows, cols)),
                         shape=(mesh.num_nodes, mesh.num_nodes)).tocsr()


@pytest.fixture(scope="module")
def annulus():
    return build_polar_mesh(np.linspace(0.5, 1.0, 17), 32)


# -- energy -------------------------------------------------------------------


def test_energy_constant_field(area, annulus):
    u = np.full(annulus.num_nodes, 3.7)
    assert energy(area, annulus, u) == pytest.approx(
        area.g(0.0) * area_total(annulus), rel=1e-14)


def test_energy_unit_gradient(area, annulus):
    u = annulus.nodes[:, 0].copy()
    assert energy(area, annulus, u) == pytest.approx(
        area.g(1.0) * area_total(annulus), rel=1e-14)
    assert energy(area, annulus, u) / area_total(annulus) == pytest.approx(
        math.sqrt(2.0), rel=1e-14)


def test_energy_unit_gradient_mu3(mu3, annulus):
    u = annulus.nodes[:, 1].copy()
    assert energy(mu3, annulus, u) == pytest.approx(
        mu3.g(1.0) * area_total(annulus), rel=1e-14)


@pytest.mark.parametrize("density", ["area", "mu3"])
def test_assembly_matches_energy_differences(density, request):
    # gradient and Hessian come from flux and tangent, the energy from g:
    # central differences of the energy tie the two together
    d = request.getfixturevalue(density)
    mesh = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    u = (0.8 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1] ** 2
         + 0.3 * np.sin(2.0 * mesh.node_angles()))
    u[mesh.node_radii() < 0.7] = 0.2     # constant patch: p = 0 exactly
    p = _triangle_gradients(mesh, u)
    assert np.count_nonzero(np.all(p == 0.0, axis=1)) >= 8

    ii = mesh.interior_nodes()
    h = 1e-5

    def E(*shifts):
        v = u.copy()
        for i, s in shifts:
            v[i] += s
        return energy(d, mesh, v)

    grad = _nodal_gradient(mesh, flux(d, p))[ii]
    grad_fd = np.array([(E((i, h)) - E((i, -h))) / (2.0 * h) for i in ii])
    np.testing.assert_allclose(grad, grad_fd, rtol=0.0, atol=1e-7)

    hess = coo_hessian(d, mesh, u)[ii][:, ii].toarray()
    hess_fd = np.array([[(E((i, h), (j, h)) - E((i, h), (j, -h))
                          - E((i, -h), (j, h)) + E((i, -h), (j, -h)))
                         / (4.0 * h * h) for j in ii] for i in ii])
    # g(|p|) for mu=3 carries a |p|^3 term at p = 0, so second differences
    # across the constant patch are off by O(h) there (about 1e-4 relative)
    np.testing.assert_allclose(hess, hess_fd, rtol=0.0,
                               atol=1e-3 * np.max(np.abs(hess)))


# -- kernels against their oracles --------------------------------------------

KERNEL_MESHES = [
    case(np.linspace(0.0, 1.0, 6), 9),          # disk: center node interior
    case(_graded_radii(0.2, 1.0, 6, 2), 12),    # graded annulus
]


def _rough_field(mesh, rng, offset=0.0):
    return (offset + 0.7 * mesh.nodes[:, 0]
            + np.sin(3.0 * mesh.node_angles()) * mesh.node_radii()
            + 0.1 * rng.normal(size=mesh.num_nodes))


@pytest.mark.parametrize("args, kw", KERNEL_MESHES)
def test_triangle_gradients_match_einsum_bitwise(rng, args, kw):
    mesh = build_polar_mesh(*args, **kw)
    for offset in (0.0, 1e6):
        u = _rough_field(mesh, rng, offset)
        p = _triangle_gradients(mesh, u)
        assert p.shape == (len(mesh.areas) * mesh.n_theta, 2)
        assert np.array_equal(p, einsum_triangle_gradients(mesh, u))


@pytest.mark.parametrize("args, kw", KERNEL_MESHES)
def test_nodal_gradient_matches_einsum_to_rounding(mu3, rng, args, kw):
    # the kernel adds each node's contributions (six, a disk's center two
    # per column) in another order than bincount does, so the two sums of
    # m terms agree to rounding: each is within (m - 1) eps / 2 of the
    # sum of the terms' magnitudes from the exact sum
    mesh = build_polar_mesh(*args, **kw)
    p = _triangle_gradients(mesh, _rough_field(mesh, rng))
    tri = layout(mesh)[0]
    terms = np.bincount(tri.ravel(), minlength=mesh.num_nodes)
    for f in (flux(mu3, p), rng.normal(size=p.shape)):
        terms_size = np.abs(einsum_contributions(mesh, f)).ravel()
        size = np.bincount(tri.ravel(), weights=terms_size,
                           minlength=mesh.num_nodes)
        got, want = _nodal_gradient(mesh, f), einsum_nodal_gradient(mesh, f)
        assert np.all(np.abs(got - want)
                      <= (terms - 1) * np.finfo(float).eps * size)


@pytest.mark.parametrize("args, kw", KERNEL_MESHES)
def test_band_matches_matmul_assembly(area, mu3, rng, args, kw):
    mesh = build_polar_mesh(*args, **kw)
    ii = mesh.interior_nodes()
    for d in (area, mu3):
        p = _triangle_gradients(mesh, _rough_field(mesh, rng))
        T = tangent(d, p)
        got = _band(mesh, ii).matrix(_blocks(mesh, T))
        want = bincount_band(mesh, ii, matmul_blocks(mesh, T))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=4e-16 * np.max(np.abs(want)))


def test_blocks_of_one_shared_tangent(mu3):
    # the harmonic extension passes one (2, 2) tangent for every triangle
    mesh = build_polar_mesh(_graded_radii(0.2, 1.0, 6, 2), 12)
    flat = tangent(mu3, np.zeros(2))
    stacked = np.broadcast_to(flat, (mesh.num_triangles, 2, 2))
    assert np.array_equal(_blocks(mesh, flat), _blocks(mesh, stacked))


# -- banded interior Hessian --------------------------------------------------


def _band_and_sparse(d, mesh, rng):
    u = _rough_field(mesh, rng)
    ii = mesh.interior_nodes()
    band = _band(mesh, ii)
    T = tangent(d, _triangle_gradients(mesh, u))
    ab = band.matrix(_blocks(mesh, T))
    K = coo_hessian(d, mesh, u)[ii][:, ii]
    return ab, K, ii


@pytest.mark.parametrize("args, kw", [
    case(np.linspace(0.0, 1.0, 6), 9),          # disk: center node interior
    case(_graded_radii(0.2, 1.0, 5, 2), 9),     # graded annulus
])
def test_band_matches_sparse_hessian(mu3, rng, args, kw):
    mesh = build_polar_mesh(*args, **kw)
    ab, K, ii = _band_and_sparse(mu3, mesh, rng)
    K = K.toarray()
    n = len(ii)
    # ring-major numbering: couplings reach n_theta + 1 below the diagonal
    assert ab.shape == (mesh.n_theta + 2, n)
    lower = np.tril(K)
    assert np.count_nonzero(np.tril(lower, -ab.shape[0])) == 0
    want = np.zeros_like(ab)
    for k in range(ab.shape[0]):
        want[k, :n - k] = np.diagonal(K, -k)
    np.testing.assert_allclose(ab, want, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(K)))
    # the seam: column n_theta - 1 couples to column 0 of its own ring
    local = {int(node): i for i, node in enumerate(ii)}
    ring = 2 if mesh.is_disk else 1
    a = local[node_index(mesh, ring, mesh.n_theta - 1)]
    b = local[node_index(mesh, ring, 0)]
    assert ab[a - b, b] == K[a, b] != 0.0


def test_band_step_matches_sparse_solve(area, rng):
    mesh = build_polar_mesh(_graded_radii(0.2, 1.0, 6, 2), 12)
    ab, K, ii = _band_and_sparse(area, mesh, rng)
    rhs = rng.normal(size=len(ii))
    want = spsolve(K.tocsc(), rhs)
    got = solver._solve_factored(cholesky_banded(ab, lower=True), rhs)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-10 * np.max(np.abs(want)))


@pytest.mark.parametrize("args, kw", KERNEL_MESHES + [
    case(_graded_radii(0.025, 1.0, 48, 6), 64),    # a removability annulus
])
def test_band_map_of_2d_meshes_is_unchanged(args, kw):
    # no 2D triangle repeats a vertex, so the coincident-vertex rule adds
    # nothing and the band stays bit-identical
    mesh = build_polar_mesh(*args, **kw)
    ii = mesh.interior_nodes()
    got, want = _band(mesh, ii), band_counting_each_entry_once(mesh, ii)
    assert np.array_equal(got.entries, want.entries)
    assert np.array_equal(got.positions, want.positions)
    assert got.shape == want.shape


@pytest.mark.parametrize("density", ["area", "mu2", "mu3"])
def test_one_column_band_is_the_ring_summed_hessian(density, request, rng):
    # P^T K P, with K the full Hessian at a ring-constant field and P the
    # indicator of the interior rings, is the Hessian of the ring problem
    d = request.getfixturevalue(density)
    mesh = build_polar_mesh(_graded_radii(0.1, 1.0, 6, 3), 12)
    column = one_column(mesh)
    w = 0.7 * np.cos(3.0 * column.ring_radii) + 0.05 * rng.normal(
        size=len(column.ring_radii))
    u = mesh.from_rings(w[:, None])
    ii = mesh.interior_nodes()
    ring = mesh.from_rings(np.arange(len(mesh.ring_radii))[:, None])[ii]
    rings = np.unique(ring)
    P = sp.csr_matrix((np.ones(len(ii)), (np.arange(len(ii)),
                                          np.searchsorted(rings, ring))))
    K = coo_hessian(d, mesh, u)[ii][:, ii]
    want = (P.T @ K @ P).toarray()

    blocks = _blocks(column, tangent(d, _triangle_gradients(column, w)))
    ci = column.interior_nodes()
    assert np.array_equal(ci, np.arange(1, len(w) - 1))
    ab = _band(column, ci).matrix(blocks)
    assert ab.shape == (2, len(rings))
    atol = 1e-14 * np.max(np.abs(K))
    np.testing.assert_allclose(ab[0], np.diagonal(want), rtol=0, atol=atol)
    np.testing.assert_allclose(ab[1, :-1], np.diagonal(want, -1), rtol=0,
                               atol=atol)
    # counting each coincident entry once misses one of K_ij, K_ji
    once = band_counting_each_entry_once(column, ci).matrix(blocks)
    assert np.max(np.abs(once[0] - np.diagonal(want))) > 1e-3 * np.max(
        np.abs(want))


@pytest.mark.parametrize("n_theta", [15, 16])
@pytest.mark.parametrize("density", ["area", "mu3"])
def test_ring_mode_step_matches_the_2d_band_solve(density, n_theta, request,
                                                  rng, monkeypatch):
    # K(w) at a ring-constant w is block-circulant in theta, so its mode by
    # mode solve is the 2D banded solve of the same matrix, with and
    # without a Nyquist mode; mode 0 is the one-column band of the ring
    # solve over n_theta, bit for bit
    d = request.getfixturevalue(density)
    mesh = build_polar_mesh(_graded_radii(0.1, 1.0, 8, 2), n_theta)
    column = one_column(mesh)
    w = 0.7 * np.cos(3.0 * column.ring_radii) + 0.05 * rng.normal(
        size=len(column.ring_radii))
    ring_field = mesh.from_rings(w[:, None])
    u = ring_field + 0.3 * rng.normal(size=mesh.num_nodes)
    ii = mesh.interior_nodes()
    T = tangent(d, _triangle_gradients(mesh, ring_field))
    factor = solver._factor(_band(mesh, ii).matrix(_blocks(mesh, T)))
    grad = _nodal_gradient(mesh, flux(d, _triangle_gradients(mesh, u)))
    want = u.copy()
    want[ii] -= solver._solve_factored(factor, grad[ii])

    factored, factor_band = [], solver._factor

    def spy(ab):
        factored.append(ab.copy())
        return factor_band(ab)

    monkeypatch.setattr(solver, "_factor", spy)
    got = _ring_mode_step(d, mesh, w)(u)
    bnodes = mesh.boundary_nodes()
    assert np.array_equal(got[bnodes], u[bnodes])
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want - u)))

    ci = column.interior_nodes()
    column_tangent = tangent(d, _triangle_gradients(column, w))
    mode0 = _cached_band(column, ci).matrix(
        _blocks(column, column_tangent) / n_theta)
    (ab,) = factored
    m, modes = len(ci), n_theta // 2 + 1
    assert ab.shape == (2, 2 * modes * m)
    for part in (ab[:, :m], ab[:, modes * m:(modes + 1) * m]):
        assert np.array_equal(part, mode0)


def test_ring_mode_step_rejects_a_disk(area):
    disk = build_polar_mesh(np.linspace(0.0, 1.0, 7), 12)
    with pytest.raises(ValueError, match="annulus"):
        _ring_mode_step(area, disk, np.zeros(len(disk.ring_radii)))


def _scripted_corrections(monkeypatch, sizes):
    """Make every ring-mode step add the next of ``sizes`` to entry 1 of a
    field; returns the list of sizes used."""
    used = []

    def scripted(*args):
        def step(u):
            used.append(next(sizes))
            out = u.copy()
            out[1] += used[-1]
            return out
        return step
    monkeypatch.setattr(solver, "_ring_mode_step", scripted)
    return used


@pytest.mark.parametrize("sizes, kept, calls", [
    # the second is more than a quarter of the first: neither is kept
    ((1.0, 0.3), 0, 2),
    # the third shrinks by less than a quarter: the loop ends without it
    ((1.0, 0.1, 0.03), 2, 3),
    # tenfold each time: correction 16, 1e-15, predicts 1e-16 for the
    # next, below the rounding eps * max|u| = 2.2e-16 of the field, so no
    # 17th is made
    ([10.0 ** -k for k in range(20)], 16, 16),
])
def test_ring_mode_corrections_follow_the_contraction_rule(monkeypatch, sizes,
                                                           kept, calls):
    used = _scripted_corrections(monkeypatch, iter(sizes))
    u, got = _ring_mode_corrected(None, None, None, np.array([1.0, 0.0]))
    assert (got, len(used)) == (kept, calls)
    assert u[1] == pytest.approx(sum(used[:kept]), rel=1e-12)


def test_exactly_zero_ring_mode_corrections_end_the_loop(area):
    # at a zero field every correction is exactly zero: the stopping test,
    # a predicted correction of 0 / 0, must end the loop without dividing
    mesh = build_polar_mesh(_graded_radii(0.1, 1.0, 8, 2), 16)
    start = np.zeros(mesh.num_nodes)
    with np.errstate(all="raise"):
        u, kept = _ring_mode_corrected(area, mesh,
                                       np.zeros(len(mesh.ring_radii)), start)
    assert kept == 2 and np.array_equal(u, start)


def test_band_cache_shares_one_map_per_topology():
    # annuli that differ only in their radii share one map, equal to a
    # fresh one; another topology gets its own
    a = build_polar_mesh(_graded_radii(0.2, 1.0, 12, 2), 16)
    b = build_polar_mesh(_graded_radii(0.05, 2.0, 12, 2), 16)
    c = build_polar_mesh(_graded_radii(0.2, 1.0, 12, 2), 17)
    for mesh in (a, b, c, one_column(a)):
        ii = mesh.interior_nodes()
        got, fresh = _cached_band(mesh, ii), _band(mesh, ii)
        assert np.array_equal(got.entries, fresh.entries)
        assert np.array_equal(got.positions, fresh.positions)
        assert got.shape == fresh.shape
        assert not got.entries.flags.writeable
    assert _cached_band(a, a.interior_nodes()) is _cached_band(
        b, b.interior_nodes())
    assert _cached_band(a, a.interior_nodes()) is not _cached_band(
        c, c.interior_nodes())


def test_band_cache_keeps_the_last_few_topologies():
    meshes = [build_polar_mesh(np.linspace(0.5, 1.0, 4), n_theta)
              for n_theta in range(3, 4 + solver._BAND_CACHE_SIZE)]
    bands = [_cached_band(m, m.interior_nodes()) for m in meshes]
    assert len(solver._bands) <= solver._BAND_CACHE_SIZE
    # the oldest was evicted, the newest is kept
    assert _cached_band(meshes[-1], meshes[-1].interior_nodes()) is bands[-1]
    assert _cached_band(meshes[0], meshes[0].interior_nodes()) is not bands[0]


def _patch_band_lapack(monkeypatch, pbtrf=None, pbtrs=None):
    """Route the solver's banded factor and solve through the given
    stand-ins; the real routine serves where none is given."""
    real_trf, real_trs, threads = solver._band_lapack()
    triple = (pbtrf or real_trf, pbtrs or real_trs, threads)
    monkeypatch.setattr(solver, "_band_lapack", lambda: triple)


def _not_positive_definite(ab):
    raise LinAlgError("dpbtrf: leading minor 1 is not positive definite")


def _nan_step(factor, rhs):
    return np.full_like(rhs, np.nan)


@pytest.mark.parametrize("routine, broken", [
    ("pbtrf", _not_positive_definite),
    ("pbtrs", _nan_step),
], ids=["_not_positive_definite", "_nan_step"])
def test_unusable_newton_step_falls_back_to_gradient(area, annulus,
                                                     monkeypatch, routine,
                                                     broken):
    directions = []
    armijo = solver._armijo

    def spy(d, mesh, u, interior, direction, g_i, E):
        directions.append((direction, g_i))
        return armijo(d, mesh, u, interior, direction, g_i, E)

    monkeypatch.setattr(solver, "_armijo", spy)
    _patch_band_lapack(monkeypatch, **{routine: broken})
    data = np.cos(2.0 * annulus.node_angles())
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(area, annulus, data, max_iter=3,
                        x0=np.zeros(annulus.num_nodes))
    hist = err.value.solution.energy_history
    assert len(hist) == 4 and hist[-1] < hist[0]
    assert len(directions) == 3
    for direction, g_i in directions:
        assert np.array_equal(direction, -g_i)


def test_rounding_regime_takes_full_newton_steps(mu3, annulus, monkeypatch):
    data = 0.4 * np.cos(2.0 * annulus.node_angles())
    sol = solve_dirichlet(mu3, annulus, data)
    calls, energies = [], []
    armijo, energy_of = solver._armijo, solver._energy

    def spy(*args, **kwargs):
        calls.append(kwargs.get("full", False))
        return armijo(*args, **kwargs)

    def counted(*args):
        energies.append(calls[:])
        return energy_of(*args)

    monkeypatch.setattr(solver, "_armijo", spy)
    monkeypatch.setattr(solver, "_energy", counted)
    # at the minimizer every Newton decrement is rounding noise: no line
    # search can see a decrease, so each step is taken in full, with one
    # energy each and none of them tested
    with monkeypatch.context() as m, \
            pytest.raises(NonConvergenceError) as err:
        m.setattr(solver, "_GRAD_TOL", 0.0)
        solve_dirichlet(mu3, annulus, data, max_iter=3,
                        x0=sol.values)
    assert calls == [True] * 3
    assert energies == [[], [True], [True] * 2, [True] * 3]
    hist = np.array(err.value.solution.energy_history)
    assert len(hist) == 4
    np.testing.assert_allclose(hist, sol.energy, rtol=1e-14)
    # a decrement of about 1e-12, a hundred times the rounding of the
    # energy, still goes through the line search
    del calls[:]
    x0 = sol.values + 1e-7 * np.sin(5.0 * annulus.node_angles())
    assert solve_dirichlet(mu3, annulus, data, x0=x0).converged
    assert calls[0] is False


def _band_call_log(monkeypatch):
    """Record "factor" and "solve" for each banded LAPACK call of the
    solver; every solve must use the latest factor."""
    log, last = [], {}
    pbtrf, pbtrs, _ = solver._band_lapack()

    def factor(ab):
        log.append("factor")
        last["factor"] = pbtrf(ab)
        return last["factor"]

    def solve(cb, rhs):
        log.append("solve")
        assert cb is last["factor"]
        return pbtrs(cb, rhs)

    _patch_band_lapack(monkeypatch, factor, solve)
    return log


def test_every_newton_step_factors_its_own_band(area, annulus, monkeypatch):
    data = np.cos(2.0 * annulus.node_angles())
    log = _band_call_log(monkeypatch)
    sol = solve_dirichlet(area, annulus, data)
    assert sol.converged and sol.iterations >= 3
    # one factor and solve for the harmonic extension, then one per step,
    # the last one in the rounding regime included
    assert log == ["factor", "solve"] * (sol.iterations + 1)


@pytest.mark.parametrize("density_name", ["area", "mu3"])
@pytest.mark.parametrize("amplitude", [3.0, 10.0])
def test_stepping_solve_takes_one_gradient_pass_per_iterate(
        density_name, amplitude, request, monkeypatch):
    # a cold solve whose line searches backtrack: the triangle gradients of
    # every iterate serve both its energy and its flux, and the tangent is
    # built only for the Newton steps
    d = request.getfixturevalue(density_name)
    mesh = build_polar_mesh(np.linspace(0.5, 1.0, 17), 48)
    data = amplitude * (np.sin(3.0 * mesh.node_angles()) + mesh.nodes[:, 0])
    counts, steps = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((solver, "_triangle_gradients"), (solver, "_blocks"),
                        (solver, "tangent"), (density.Density, "gprime"),
                        (density.Density, "gsecond")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    armijo = solver._armijo

    def line_search(d, mesh, u, interior, direction, g_i, E, **kwargs):
        result = armijo(d, mesh, u, interior, direction, g_i, E, **kwargs)
        assert result[2]
        k = np.argmax(np.abs(direction))
        steps.append((result[0][interior] - u[interior])[k] / direction[k])
        return result
    monkeypatch.setattr(solver, "_armijo", line_search)

    sol = solve_dirichlet(d, mesh, data)
    assert sol.converged and len(steps) > 2
    # an accepted step length 2^-j comes after j rejected trials
    rejected = sum(round(-math.log2(s)) for s in steps)
    assert rejected > 0
    # plus one pass, one tangent and one set of blocks for the harmonic
    # extension that starts the solve
    assert counts["_triangle_gradients"] == 1 + (sol.iterations + 1) + rejected
    for name in ("tangent", "gsecond", "_blocks"):
        assert counts[name] == 1 + sol.iterations
    # g' once for the flux of each gradient test and once in each tangent
    assert counts["gprime"] == (sol.iterations + 1) + (1 + sol.iterations)


def test_seeded_comparison_trials_converge(mu3):
    # trial 5 of seed 8 for mu = 3 stalled in the Armijo search at
    # |g| = 2.3e-9 (tolerance 9.5e-10), where the Newton decrement 1.4e-17
    # lies below the rounding of the energy
    rep = run_comparison_suite(mu3, 6, 8)
    assert all(r["converged"] for r in rep.records)
    assert rep.all_checks_pass()


# -- banded LAPACK ------------------------------------------------------------


@pytest.mark.parametrize("mesh", [
    build_polar_mesh(np.linspace(0.0, 1.0, 6), 9),
    build_polar_mesh(_graded_radii(0.2, 1.0, 6, 2), 12),
    one_column(build_polar_mesh(_graded_radii(0.1, 1.0, 6, 3), 12)),
], ids=["disk-center", "graded-annulus", "one-column"])
def test_band_lapack_matches_scipy_bit_for_bit(mu3, rng, mesh):
    T = tangent(mu3, _triangle_gradients(mesh, _rough_field(mesh, rng)))
    ab = _band(mesh, mesh.interior_nodes()).matrix(_blocks(mesh, T))
    rhs = rng.normal(size=ab.shape[1])
    want = cholesky_banded(ab, lower=True)
    pbtrf, pbtrs, _ = solver._band_lapack()
    got = pbtrf(ab)
    assert got is ab                # factored in place
    assert np.array_equal(got, want)
    x = pbtrs(got, rhs)
    assert np.array_equal(x, cho_solve_banded((want, True), rhs))
    assert not np.shares_memory(x, rhs)
    with pytest.raises(ValueError, match="right-hand side"):
        pbtrs(got, rhs[:-1])


def test_band_that_is_not_positive_definite_takes_gradient_steps(
        area, annulus, monkeypatch):
    # a negated Hessian: the factor fails at its first column
    ab = _band(annulus, annulus.interior_nodes()).matrix(
        -_blocks(annulus, np.eye(2)))
    with pytest.raises(LinAlgError, match="leading minor 1 "):
        solver._band_lapack()[0](ab)

    directions = []
    armijo, blocks = solver._armijo, solver._blocks

    def spy(d, mesh, u, interior, direction, g_i, E):
        directions.append((direction, g_i))
        return armijo(d, mesh, u, interior, direction, g_i, E)

    monkeypatch.setattr(solver, "_armijo", spy)
    monkeypatch.setattr(solver, "_blocks", lambda mesh, t: -blocks(mesh, t))
    data = np.cos(2.0 * annulus.node_angles())
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(area, annulus, data, max_iter=3,
                        x0=np.zeros(annulus.num_nodes))
    hist = err.value.solution.energy_history
    assert len(hist) == 4 and hist[-1] < hist[0]
    assert len(directions) == 3
    for direction, g_i in directions:
        assert np.array_equal(direction, -g_i)


def test_scipy_fallback_gives_identical_solutions(mu3, annulus, monkeypatch):
    data = 0.4 * np.cos(2.0 * annulus.node_angles())
    ordinary = solve_dirichlet(mu3, annulus, data)
    assert "_ctypes_band" in solver._band_lapack()[0].__qualname__
    # with no numpy LAPACK symbol to find, the resolver takes scipy's
    # wrappers; the cached choice is dropped on both sides
    monkeypatch.setattr(solver, "_LAPACK_SYMBOLS", ())
    solver._band_lapack.cache_clear()
    try:
        fallback = solve_dirichlet(mu3, annulus, data)
        assert "_scipy_band" in solver._band_lapack()[0].__qualname__
    finally:
        monkeypatch.undo()
        solver._band_lapack.cache_clear()
    assert np.array_equal(fallback.values, ordinary.values)
    assert fallback.iterations == ordinary.iterations


# -- exact reproduction -------------------------------------------------------


def test_affine_data_reproduced(area, annulus):
    target = affine(annulus, 0.8, -0.3, 0.25)
    sol = solve_dirichlet(area, annulus, target)
    assert sol.converged
    assert np.max(np.abs(sol.values - target)) < 1e-9


def test_affine_data_reproduced_on_disk(mu3):
    disk = build_polar_mesh(np.linspace(0.0, 1.0, 13), 24)
    target = affine(disk, -0.4, 0.7, 1.0)
    sol = solve_dirichlet(mu3, disk, target)
    assert np.max(np.abs(sol.values - target)) < 1e-9


@pytest.mark.parametrize("q0, q1, c", [(0.012, 0.009, 0.0),
                                        (0.8, -0.3, 0.25)])
@pytest.mark.parametrize("mesh", [
    build_polar_mesh(np.linspace(0.0, 1.0, 49), 64),
    build_polar_mesh(_graded_radii(0.025, 1.0, 48, 6), 64),
], ids=["disk", "graded-annulus"])
@pytest.mark.parametrize("density", ["area", "mu2", "mu3"])
def test_affine_start_is_certified_as_it_is(density, mesh, q0, q1, c,
                                            request, monkeypatch):
    # an affine field has one gradient on every triangle, so its nodal
    # gradient vanishes at every interior node: the gradient test passes
    # at the start, and no band map is built or factored
    d = request.getfixturevalue(density)
    monkeypatch.setattr(solver, "_cached_band",
                        lambda *a: pytest.fail("band map built"))
    start = affine(mesh, q0, q1, c)
    sol = solve_dirichlet(d, mesh, start, x0=start)
    assert sol.converged and sol.iterations == 0
    ii = mesh.interior_nodes()
    assert np.array_equal(sol.values[ii], start[ii])


def test_constant_data_gives_constant_minimum(area, annulus):
    sol = solve_dirichlet(area, annulus, np.full(annulus.num_nodes, 2.0))
    assert np.max(np.abs(sol.values - 2.0)) < 1e-12
    assert sol.energy == pytest.approx(area.g(0.0) * area_total(annulus),
                                       rel=1e-12)


def test_boundary_data_attained_exactly(area, annulus, rng):
    data = rng.normal(size=annulus.num_nodes)
    sol = solve_dirichlet(area, annulus, data)
    bnodes = annulus.boundary_nodes()
    np.testing.assert_array_equal(sol.values[bnodes], data[bnodes])


def test_full_vector_boundary_data(area, annulus):
    target = affine(annulus, 0.1, 0.2, 0.0)
    sol = solve_dirichlet(area, annulus, target)
    assert np.max(np.abs(sol.values - target)) < 1e-9


def test_dict_boundary_data_rejected(area, annulus):
    # a full nodal vector is the one boundary-data form
    n = annulus.num_nodes
    target = affine(annulus, 1.0, 0.0, 0.0)
    as_dict = {int(i): float(target[i]) for i in annulus.boundary_nodes()}
    for data in (as_dict, target[:-1], target[:, None], np.zeros(0)):
        with pytest.raises(ValueError, match=f"length {n}"):
            solve_dirichlet(area, annulus, data)


def test_nan_boundary_data_rejected(area, annulus):
    data = affine(annulus, 1.0, 0.0, 0.0)
    data[annulus.boundary_nodes()[0]] = float("nan")
    with pytest.raises(ValueError):
        solve_dirichlet(area, annulus, data)


# -- residual -----------------------------------------------------------------


def residual_EL(d, mesh, values):
    """Euclidean norm of the interior-restricted energy gradient: the
    discrete Euler-Lagrange residual of a nodal field."""
    p = _triangle_gradients(mesh, np.asarray(values, dtype=float))
    grad = _nodal_gradient(mesh, flux(d, p))
    return float(np.linalg.norm(grad[mesh.interior_nodes()]))


def test_residual_small_after_convergence(area, annulus, rng):
    vals = np.cos(3.0 * annulus.node_angles()) * 0.5
    sol = solve_dirichlet(area, annulus, vals)
    assert sol.converged
    assert residual_EL(area, annulus, sol.values) <= 1e-10 * (1.0 + abs(sol.energy))


def test_residual_affine_exact(area, annulus):
    target = affine(annulus, 0.5, 0.5, 0.0)
    assert residual_EL(area, annulus, target) < 1e-12


def test_residual_grows_under_perturbation(area, annulus):
    target = affine(annulus, 0.5, 0.5, 0.0)
    sol = solve_dirichlet(area, annulus, target)
    bumped = sol.values.copy()
    bumped[annulus.interior_nodes()[7]] += 0.1
    assert residual_EL(area, annulus, bumped) > \
        10.0 * residual_EL(area, annulus, sol.values)


# -- catenoid boundary data ---------------------------------------------------


def test_catenoid_data_convergence_order(area):
    spec = CatenoidSpec(Sign.MINUS, 0.25, 0.0, 2, Anchor.NECK)
    errors = []
    for n_r, n_theta in ((8, 16), (16, 32), (32, 64)):
        mesh = build_polar_mesh(np.linspace(0.75, 1.5, n_r + 1), n_theta)
        exact = np.array([profile_value(area, spec, float(r))
                          for r in mesh.ring_radii])
        target = np.repeat(exact, n_theta)
        sol = solve_dirichlet(area, mesh, target)
        errors.append(np.max(np.abs(sol.values - target)))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8


# -- iteration behaviour ------------------------------------------------------


def test_energy_history_non_increasing(area, annulus, rng):
    # non-increasing up to rounding: full steps in the rounding regime may
    # raise the computed energy by a few ulps
    vals = np.sin(2.0 * annulus.node_angles()) + 0.3 * annulus.node_radii()
    sol = solve_dirichlet(area, annulus, vals)
    hist = np.array(sol.energy_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_iteration_cap_raises_with_partial(area, annulus):
    vals = np.cos(4.0 * annulus.node_angles())
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(area, annulus, vals, max_iter=1)
    partial = err.value.solution
    assert not partial.converged
    assert partial.iterations == 1
    assert np.isfinite(partial.energy)


def test_negative_iteration_cap_is_rejected(area, annulus):
    with pytest.raises(ValueError, match="max_iter"):
        solve_dirichlet(area, annulus, np.zeros(annulus.num_nodes),
                        max_iter=-1)


def test_last_step_is_tested_at_the_iteration_cap(area, mu3, annulus):
    data = np.cos(2.0 * annulus.node_angles()) + 0.2 * annulus.node_radii()
    free = solve_dirichlet(area, annulus, data)
    cap = free.iterations
    # the last step lowers the energy by about 1e-13 relative, yet it is
    # the one that meets the gradient test
    hist = free.energy_history
    assert cap == 5 and 0.0 < (hist[-2] - hist[-1]) / hist[-2] < 1e-12
    capped = solve_dirichlet(area, annulus, data, max_iter=cap)
    assert capped.converged
    assert capped.iterations == cap
    assert np.array_equal(capped.values, free.values)
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(area, annulus, data, max_iter=cap - 1)
    assert err.value.solution.iterations == cap - 1
    # no step allowed: the start itself is tested, and affine data is
    # solved by its harmonic extension
    disk = build_polar_mesh(np.linspace(0.0, 1.0, 17), 32)
    start = solve_dirichlet(mu3, disk, affine(disk, 0.5, 0.3, 0.1),
                            max_iter=0)
    assert start.converged
    assert start.iterations == 0


def test_diagnostics_fields(area, annulus):
    sol = solve_dirichlet(area, annulus, affine(annulus, 0.3, 0.0, 0.0))
    diag = sol.diagnostics()
    assert set(diag) == {"energy", "grad_norm", "iterations", "converged"}
    assert diag["converged"] is True


def test_solution_csv(annulus, tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({
        "density": {"kind": "area"},
        "mesh": {"r_in": 0.5, "r_out": 1.0, "n_r": 16, "n_theta": 32},
        "boundary": {"outer": {"kind": "affine", "q": [0.3, 0.0], "c": 0.0},
                     "inner": {"kind": "affine", "q": [0.3, 0.0], "c": 0.0}}}))
    code = cli.main(["--quiet", "--out", str(out), "--config", str(config),
                     "solve"])
    assert code == cli.EXIT_OK
    lines = (out / "solution.csv").read_text().strip().splitlines()
    assert lines[0] == "node,x,y,value"
    assert len(lines) == annulus.num_nodes + 1


# -- invariances --------------------------------------------------------------


def test_rotation_equivariance(area, annulus):
    vals = np.cos(2.0 * annulus.node_angles()) * annulus.node_radii()
    sol = solve_dirichlet(area, annulus, vals)
    rot_data = rotate_columns(annulus, vals, 1)
    sol_rot = solve_dirichlet(area, annulus, rot_data)
    # the same Newton steps, rotated up to the rounding of the banded
    # solves (measured: 1.1e-16 for values of size 1)
    np.testing.assert_allclose(sol_rot.values,
                               rotate_columns(annulus, sol.values, 1),
                               rtol=0, atol=1e-15)


def residual(d, mesh, u):
    """The nodal energy gradient of u, every node."""
    p = _triangle_gradients(mesh, np.asarray(u, dtype=float))
    return _nodal_gradient(mesh, flux(d, p))


ROTATION_MESHES = [
    build_polar_mesh(np.linspace(0.0, 1.0, 17), 32),
    build_polar_mesh(_graded_radii(0.025, 1.0, 48, 6), 64),
    build_polar_mesh(np.linspace(1.5, 3.0, 129), 256),
    one_column(build_polar_mesh(_graded_radii(0.025, 1.0, 48, 6), 64)),
]
ROTATION_IDS = ["disk", "graded-annulus", "annulus-128x256", "column"]


@pytest.mark.parametrize("mesh", ROTATION_MESHES, ids=ROTATION_IDS)
@pytest.mark.parametrize("density", ["area", "mu3"])
def test_residual_of_a_rotated_field_is_the_rotated_residual(density, mesh,
                                                             request, rng):
    # every column holds the same geometry and adds its terms in the same
    # order, so rotating u by one column rotates its residual bit for bit;
    # only a disk's center sums its row of n_theta terms in another order
    # (measured: 9e-18 of the largest entry).  On a column, rotation by one
    # column maps every node onto itself.
    d = request.getfixturevalue(density)
    u = _rough_field(mesh, rng)
    got = residual(d, mesh, rotate_columns(mesh, u, 1))
    want = rotate_columns(mesh, residual(d, mesh, u), 1)
    center = 1 if mesh.is_disk else 0
    assert np.array_equal(got[center:], want[center:])
    assert np.all(np.abs(got[:center] - want[:center])
                  <= 1e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("mesh", ROTATION_MESHES, ids=ROTATION_IDS)
@pytest.mark.parametrize("density", ["area", "mu3"])
def test_residual_of_a_ring_constant_field_is_constant_on_each_ring(
        density, mesh, request, rng):
    # each column of a ring-constant field computes the same numbers
    d = request.getfixturevalue(density)
    w = np.sin(4.0 * mesh.ring_radii) + 0.2 * rng.normal(
        size=len(mesh.ring_radii))
    grid = mesh.rings(residual(d, mesh, mesh.from_rings(w[:, None])))
    assert np.array_equal(grid, np.broadcast_to(grid[:, :1], grid.shape))


def test_translation_invariance(mu3, annulus):
    vals = np.sin(annulus.node_angles())
    base = solve_dirichlet(mu3, annulus, vals)
    shifted = solve_dirichlet(mu3, annulus, vals + 5.0)
    np.testing.assert_allclose(shifted.values, base.values + 5.0, atol=1e-9)


def test_uniqueness_across_initial_guesses(area, annulus):
    """Two different starts must land on the same minimizer."""
    vals = np.cos(3.0 * annulus.node_angles()) * 0.4
    sol_a = solve_dirichlet(area, annulus, vals)
    sol_b = solve_dirichlet(area, annulus, vals,
                            x0=np.zeros(annulus.num_nodes))
    np.testing.assert_allclose(sol_a.values, sol_b.values, atol=1e-8)


# -- BLAS thread scope --------------------------------------------------------


@contextlib.contextmanager
def _two_blas_threads(threads):
    """The OpenBLAS count of a (get, set) pair at 2 threads (so that a
    restored count differs from the solve's 1), put back afterwards."""
    get, put = threads
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@pytest.fixture
def blas_count():
    """The get function of the OpenBLAS count the solver sets, at 2
    threads for the test."""
    threads = solver._band_lapack()[2]
    if threads is None:
        pytest.skip("the banded LAPACK's BLAS is not OpenBLAS")
    with _two_blas_threads(threads) as get:
        yield get


def _record_counts_in_band_calls(monkeypatch, get):
    """[(LAPACK call, thread count inside it)] of every banded factor and
    solve call."""
    seen = []

    def spy(name, call):
        def wrapped(*args, **kwargs):
            seen.append((name, get()))
            return call(*args, **kwargs)
        return wrapped

    pbtrf, pbtrs, _ = solver._band_lapack()
    _patch_band_lapack(monkeypatch, spy("factor", pbtrf), spy("solve", pbtrs))
    return seen


def test_solve_runs_blas_on_one_thread(area, annulus, blas_count, monkeypatch):
    seen = _record_counts_in_band_calls(monkeypatch, blas_count)
    sol = solve_dirichlet(area, annulus, np.cos(2.0 * annulus.node_angles()))
    assert sol.converged
    names = [n for n, _ in seen]
    # one factor and solve for the start, then one of each for every step
    assert names.count("solve") == sol.iterations + 1
    assert names.count("factor") == sol.iterations + 1
    assert all(count == 1 for _, count in seen)
    assert blas_count() == 2


def test_ring_mode_corrections_run_blas_on_one_thread(mu3, blas_count,
                                                    monkeypatch):
    # the ring solution of data 1 inside and 0 outside plus a small
    # background, a start that keeps several corrections
    mesh = build_polar_mesh(_graded_radii(0.1, 1.0, 8, 2), 16)
    column = one_column(mesh)
    data = np.zeros(column.num_nodes)
    data[column.inner_nodes()] = 1.0
    ring = solve_dirichlet(mu3, column, data)
    start = (mesh.from_rings(column.rings(ring.values))
             + 0.01 * (mesh.nodes[:, 0] - 0.1 * np.cos(mesh.node_angles())))
    seen = _record_counts_in_band_calls(monkeypatch, blas_count)
    _, kept = _ring_mode_corrected(mu3, mesh, ring.values, start)
    names = [n for n, _ in seen]
    # one mode band, solved for every correction made
    assert kept > 2
    assert names.count("factor") == 1 and names.count("solve") >= kept
    assert all(count == 1 for _, count in seen)
    assert blas_count() == 2


def test_energy_runs_blas_on_one_thread(mu3, blas_count, monkeypatch, rng):
    # outside the scope, two threads move the area sum of this size by
    # about 1e-14 against the one-thread sum
    mesh = build_polar_mesh(np.linspace(0.5, 1.0, 129), 256)
    u = rng.normal(size=mesh.num_nodes)
    with solver._one_blas_thread():
        inside = energy(mu3, mesh, u)
    seen = []
    sum_areas = solver._energy

    def spy(*args):
        seen.append(blas_count())
        return sum_areas(*args)

    monkeypatch.setattr(solver, "_energy", spy)
    assert energy(mu3, mesh, u) == inside
    assert seen == [1]
    assert blas_count() == 2


@pytest.mark.parametrize("bad, error", [
    (dict(x0=np.zeros(7)), ValueError),
    (dict(max_iter=1), NonConvergenceError),
], ids=["x0-shape", "iteration-cap"])
def test_failed_solve_restores_blas_threads(area, annulus, blas_count,
                                            monkeypatch, bad, error):
    seen = _record_counts_in_band_calls(monkeypatch, blas_count)
    with pytest.raises(error):
        solve_dirichlet(area, annulus, np.cos(4.0 * annulus.node_angles()),
                        **bad)
    assert all(count == 1 for _, count in seen)
    assert blas_count() == 2


def test_overlapping_scopes_share_one_save_and_restore(blas_count):
    """More threads than cores enter and leave the scope with a short
    switch interval; a lost update of the shared depth would leave the
    count at 1 thread afterwards, or at its old value inside a scope."""
    inside = []

    def worker():
        for _ in range(2000):
            with solver._one_blas_thread():
                inside.append(blas_count())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inside) == 6 * 2000
    assert all(count == 1 for count in inside)
    assert blas_count() == 2


def test_solve_without_openblas_pools_is_unchanged(mu3, annulus, monkeypatch):
    data = 0.4 * np.cos(2.0 * annulus.node_angles())
    ordinary = solve_dirichlet(mu3, annulus, data)
    pbtrf, pbtrs, _ = solver._band_lapack()
    monkeypatch.setattr(solver, "_band_lapack", lambda: (pbtrf, pbtrs, None))
    bare = solve_dirichlet(mu3, annulus, data)
    assert np.array_equal(bare.values, ordinary.values)
    assert bare.iterations == ordinary.iterations


def test_scipy_fallback_runs_blas_on_one_thread(area, annulus, monkeypatch):
    # with no numpy LAPACK symbol to find, the scope sets the count of the
    # library that scipy's wrappers run in, read here from that library
    from scipy.linalg.lapack import _flapack
    threads = solver._thread_count(ctypes.CDLL(_flapack.__file__),
                                   ("scipy_openblas_{}_num_threads",
                                    "openblas_{}_num_threads"))
    if threads is None:
        pytest.skip("scipy's LAPACK exports no OpenBLAS thread count")
    monkeypatch.setattr(solver, "_LAPACK_SYMBOLS", ())
    solver._band_lapack.cache_clear()
    try:
        assert "_scipy_band" in solver._band_lapack()[0].__qualname__
        with _two_blas_threads(threads) as get:
            seen = _record_counts_in_band_calls(monkeypatch, get)
            sol = solve_dirichlet(area, annulus,
                                  np.cos(2.0 * annulus.node_angles()))
            assert sol.converged
            factors = [count for name, count in seen if name == "factor"]
            assert len(factors) == sol.iterations + 1
            assert all(count == 1 for _, count in seen)
            assert get() == 2
    finally:
        monkeypatch.undo()
        solver._band_lapack.cache_clear()


# -- start vector x0 ----------------------------------------------------------


@pytest.mark.parametrize("shape", [(10,), (2, 10), ()])
def test_x0_wrong_shape_rejected(area, annulus, shape):
    data = affine(annulus, 0.3, 0.1, 0.0)
    with pytest.raises(ValueError, match="x0"):
        solve_dirichlet(area, annulus, data, x0=np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_x0_nonfinite_interior_rejected(area, annulus, bad):
    data = affine(annulus, 0.3, 0.1, 0.0)
    x0 = np.zeros(annulus.num_nodes)
    x0[annulus.interior_nodes()[7]] = bad
    with pytest.raises(ValueError, match="x0"):
        solve_dirichlet(area, annulus, data, x0=x0)


def test_x0_boundary_entries_ignored(area, annulus):
    data = affine(annulus, 0.3, -0.2, 0.1)
    cold = solve_dirichlet(area, annulus, data)
    bnodes = annulus.boundary_nodes()
    for junk in (np.nan, 1e3):
        x0 = cold.values.copy()
        x0[bnodes] = junk
        warm = solve_dirichlet(area, annulus, data, x0=x0)
        assert np.array_equal(warm.values[bnodes], data[bnodes])
        assert warm.iterations == 0
        assert np.array_equal(warm.values, cold.values)


def test_converged_values_as_x0_take_no_step(mu3, annulus, monkeypatch):
    data = 0.4 * np.cos(2.0 * annulus.node_angles())
    cold = solve_dirichlet(mu3, annulus, data)
    assert cold.iterations > 0

    def no_band(*args):
        raise AssertionError("a start that passes the gradient test "
                             "needs no band")
    # the band map is looked up for the first factorization only; the
    # cold solve has cached this mesh's map, so the lookup is what is
    # barred, not only a build
    monkeypatch.setattr(solver, "_cached_band", no_band)
    warm = solve_dirichlet(mu3, annulus, data, x0=cold.values)
    assert warm.converged
    assert warm.iterations == 0
    assert np.array_equal(warm.values, cold.values)
    assert warm.energy == cold.energy


def test_unnormalized_density_rejected(annulus):
    from lingrowth.density import make_custom_density
    doubled = make_custom_density(
        g=lambda t: 2.0 * np.sqrt(1.0 + t * t),
        gprime=lambda t: 2.0 * t / np.sqrt(1.0 + t * t),
        gsecond=lambda t: 2.0 * (1.0 + t * t) ** (-1.5),
        gprime_inf=2.0)
    with pytest.raises(ValueError):
        solve_dirichlet(doubled, annulus, np.zeros(annulus.num_nodes))


# -- comparison principle ------------------------------------------------------


def test_comparison_reflexive(area, annulus):
    vals = np.cos(annulus.node_angles())
    sol = solve_dirichlet(area, annulus, vals)
    res = check_comparison(sol, sol, 0.0)
    assert res.holds and res.applicable
    assert res.max_violation == 0.0


def test_comparison_shifted_solutions(area, annulus):
    vals = np.cos(annulus.node_angles())
    lo = solve_dirichlet(area, annulus, vals)
    hi = solve_dirichlet(area, annulus, vals + 1.0)
    res = check_comparison(hi, lo, 1.0)
    assert res.holds
    assert abs(res.max_violation) < 1e-9


def test_comparison_random_ordered_pairs(area, annulus, rng):
    h = annulus.h_radial
    tol = 1e-8 + 10.0 * h * h
    for _ in range(5):
        base = rng.normal(scale=0.4, size=3)
        lo_vals = (base[0] + base[1] * np.cos(annulus.node_angles())
                   + base[2] * np.sin(2 * annulus.node_angles()))
        gap = rng.uniform(0.05, 0.5)
        lo = solve_dirichlet(area, annulus, lo_vals)
        hi = solve_dirichlet(area, annulus,
                             lo_vals + gap)
        res = check_comparison(lo, hi, 0.0, tol=tol)
        assert res.applicable and res.holds


def test_comparison_not_applicable_state(area, annulus):
    vals = np.cos(annulus.node_angles())
    lo = solve_dirichlet(area, annulus, vals)
    hi = solve_dirichlet(area, annulus, vals + 1.0)
    res = check_comparison(hi, lo, 0.5)  # boundary gap is 1 > shift
    assert not res.applicable
    assert not res.holds
    assert math.isnan(res.max_violation)


def test_comparison_mesh_mismatch(area):
    m1 = build_polar_mesh(np.linspace(0.5, 1.0, 9), 16)
    m2 = build_polar_mesh(np.linspace(0.5, 1.0, 10), 16)
    s1 = solve_dirichlet(area, m1, np.zeros(m1.num_nodes))
    s2 = solve_dirichlet(area, m2, np.zeros(m2.num_nodes))
    with pytest.raises(MeshMismatchError):
        check_comparison(s1, s2, 0.0)


def test_comparison_result_is_plain_record():
    res = ComparisonResult(holds=True, max_violation=-0.25)
    assert res.applicable
