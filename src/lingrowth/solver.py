"""Piecewise-affine minimization of linear-growth energies on polar meshes.

The discrete problem: among nodal fields u matching prescribed Dirichlet
values on the boundary circles, minimize

    E(u) = sum over triangles of  area(T) * g(|grad u|_T).

Strict convexity of g makes E strictly convex in the interior unknowns, so
the minimizer is unique and is found by a damped Newton iteration with an
Armijo backtracking line search.  Per-triangle flux and tangent come from
:mod:`lingrowth.density`, the one home of the formulas: with p the triangle
gradient and t = |p|,

    flux     = g'(t) p / t                      (0 at p = 0)
    tangent  = g''(t) P + (g'(t)/t) (I - P),    P = p p^T / t^2,

the tangent being symmetric positive definite thanks to g'' > 0 and g'
increasing.  The triangle gradients of each iterate, and their norms t,
are computed once and serve its energy, its flux and its tangent.  The
gradient test reads g' only: :func:`lingrowth.density.flux`, added into
the nodal gradient.  The tangent, which evaluates g' again and g'', is
built only when the test fails and a Newton step is taken; the step
scatters the lower entries of the triangle blocks areas * G^T T G (G the
hat gradients, T the tangent) straight into a banded interior matrix.
So a start that passes the test costs one residual: one pass of triangle
gradients, one norm, one energy and one flux.

The mesh stores the geometry of angular column 0 only, one area and one
set of hat gradients per row of triangles (cell ring and kind, see
:mod:`lingrowth.mesh`); every column is its rotation.  The kernels work in
each column's own frame: the triangle gradient p of column j is the
Cartesian one rotated back by 2 pi j / n_theta.  An isotropic density
reads p only through rotation-invariant contractions, |p| for the energy,
G^T flux for the nodal gradient and G^T T G for the blocks, so each row's
column-0 geometry serves all its n_theta columns.  The kernels are
differences of (ring, column) grid slices, contracted with the row's
geometry broadcast over the columns, and slice-adds back onto the grid;
the innermost axis is always the n_theta columns, never an axis of
length 2 or 3, which numpy loops over at more cost than the work.  Every
column adds its terms in the same order, so rotating a field by one
column rotates its residual bit for bit (a disk's center, which sums its
row, aside), and a ring-constant field has a residual that is constant
on each ring.

Beyond its outputs, no residual kernel builds a product over every
vertex, every term or both components at once: the triangle gradients
add their second hat-gradient term one component at a time, the nodal
gradient forms its contributions for a block of whole cell rings at a
time (``_NODAL_BLOCK`` cells), and the mu family's g sums its series for
a block of ``_SERIES_BLOCK`` entries at a time (:mod:`lingrowth.density`).
Each makes the IEEE operations of the whole-mesh form in the same order,
so the bits do not depend on the blocks.  On the 128 x 256 level of the
refinement study (M = 65,536 triangles) a start that passes the gradient
test peaks at 8.1 arrays of M doubles above the memory held on entry to
the solve, against 14.3 with whole-mesh products.

Ring-major node numbering keeps every interior coupling within n_theta + 1
of the diagonal (n_theta at a disk's center), so the interior Hessian is
stored in LAPACK's lower band layout and each Newton step is one banded
Cholesky factorization (``dpbtrf``) and one pair of triangular solves
(``dpbtrs``).  Both are called through ctypes from the LAPACK that numpy
already loads for ``numpy.linalg``, so the package imports no scipy; only
where that LAPACK exports neither routine are scipy's wrappers used.  A
matrix that is not numerically positive definite, or a non-finite step,
falls back to the gradient direction.

The band is the Galerkin matrix of whatever mesh is passed, including the
one-column mesh of :func:`lingrowth.mesh.one_column`, the same kernels at
n_theta = 1, whose triangles each have two vertices on one node.  An
off-diagonal block entry stands for both K_ij and K_ji; where its two
vertices are one node, both land on the diagonal, so the entry is added
there twice.  No triangle of a 2D mesh repeats a vertex, so their bands
do not change; a disk's placeholder row is left out.  A band map depends
on the layout (disk or annulus, rings, columns) and the interior nodes
only, so the maps of the last few are kept, keyed by those, and meshes
that differ in their radii alone share one.  A 2D map is built only for
a 2D factorization: a Newton step or a harmonic-extension start, as in
the comparison suite, ``lingrowth solve`` and the reference disk of
removability data that is not affine.  A start that passes the gradient
test, such as every default removability annulus and affine reference
disk, builds none.

On an annulus, the Hessian K(w) at a ring-constant field w is
block-circulant in theta: the mesh maps onto itself under rotation by one
column, and so does w.  The discrete Fourier transform in theta
diagonalizes every circulant (T. Chan, SIAM J. Sci. Stat. Comput. 9, 1988,
builds circulant preconditioners on this), so each mode
theta_k = 2 pi k / n_theta meets one matrix in the ring index.  It is real
and tridiagonal.  Each quadrilateral cell has two parallel chords, on
which w is constant, so w has one gradient p on both of its triangles and
both share one tangent T.  The hat gradient of the vertex alone on its
ring in either triangle is parallel to p, an eigenvector of T with
eigenvalue g''(|p|), so the coupling across the cell's diagonal is
g''(|p|) times the Laplacian's, -(cot B + cot D)/2, where B and D are the
angles opposite the diagonal.  The cell is an isosceles trapezoid, so
B + D = pi and the coupling vanishes.  What is left couples each node to
itself (D0), to the next node of its ring (D1) and to the node of the next
ring in its column (S): diagonal D0 + 2 cos(theta_k) D1, off-diagonal S.
Mode 0 is the band of the one-column mesh over n_theta, D1 landing on
its diagonal twice by the rule above, so :func:`_ring_mode_step` reads it
through the cached map the ring solve has just used, bit for bit, sums
only D1 from the blocks and gives mode k mode 0's diagonal plus
2 (cos(theta_k) - 1) D1.  It stacks the real and imaginary parts of every
mode k = 0 .. n_theta // 2 of ``numpy.fft.rfft`` into one band of depth
2, and factors and solves it with the same ``dpbtrf``/``dpbtrs``.  A step
with it differs from the 2D banded solve of K(w) by rounding only, and it
needs the flux alone, not the tangent.
:func:`_ring_mode_corrected` repeats it on a start for as long as the
corrections contract, until the next one would fall below the rounding of
the field; the gradient test of :func:`solve_dirichlet` still decides
convergence.  Its one caller is :func:`_ring_started_solve`, the solve of
an annulus from its ring solution, where a base field is added.  On the
default removability annuli the corrected start passes that test as it
is, so no annulus factors a 2D band.

Near the minimizer the energy decrease of a Newton step, about half the
Newton decrement lambda^2 = -step . grad, sinks below the rounding of the
energy sum, and the Armijo test can no longer see it.  In that rounding
regime the line search takes the full Newton step without the energy
test; whether the result counts as converged is decided by the gradient
test alone, which is made at the start and after every step.  Each step
tries the Newton direction, then, where that is unusable or its line
search fails, the gradient direction; where both fail, the solve has
stalled.

Each solve, each run of the ring-mode corrections and each call of the
public :func:`energy` runs BLAS on one thread.  :func:`_band_lapack` takes
the OpenBLAS thread count from the same library handle that supplies
``dpbtrf`` and ``dpbtrs``, so the count that is set is the one of the
library that runs the band algebra, numpy's or, in the fallback, scipy's.
On entry to a solve it is set to one, and on exit the count found is put
back.  LAPACK works through the band in 32-column blocks, so one
factorization of N unknowns is about N/32 small BLAS-3 calls, and waking
a second thread for each costs more than it saves.  Callers that run
solves from several threads of their own share one save and restore.
Where that library is not OpenBLAS the count is left alone.  Reports are
byte-identical at one and two BLAS threads, so the scope changes speed
only.

Boundary data has one form, from :func:`solve_dirichlet` inward: a full
nodal vector whose boundary entries are the data.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from . import ioutil
from .density import Density, _require_normalized, flux, tangent
from .mesh import PolarMesh, one_column


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """A solved nodal field with its convergence diagnostics.

    ``values`` covers every node; boundary entries carry the prescribed
    data exactly.  ``energy_history`` records the energy after each
    accepted step (non-increasing up to rounding: a step taken in the
    rounding regime may raise the computed energy by a few ulps).
    """

    mesh: PolarMesh
    values: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    energy_history: tuple = ()

    def diagnostics(self) -> dict:
        return {
            "energy": self.energy,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


class NonConvergenceError(RuntimeError):
    """Newton iteration hit its cap; carries the best solution found."""

    def __init__(self, message: str, solution: DiscreteSolution):
        super().__init__(message)
        self.solution = solution


# ---------------------------------------------------------------------------
# assembly


def _triangle_gradients(mesh: PolarMesh, u: np.ndarray) -> np.ndarray:
    """(M, 2) array of per-triangle gradients of the P1 field u, a view of
    a component-major (2, M) array, with one row of triangles per cell
    ring and kind as in :mod:`lingrowth.mesh` (a disk's placeholder row
    included, where p = 0).  Each is in its column's own frame: column
    j's are the Cartesian ones rotated back by 2 pi j / n_theta.

    Each row contracts differences of (ring, column) grid slices with its
    column-0 hat gradients: kind 0 the radial and diagonal differences,
    kind 1 the diagonal and angular ones.  The difference from the first
    vertex is taken before contracting (the hat gradients sum to zero, so
    this changes nothing analytically); rounding then scales with the
    local variation of u instead of its absolute offset, which keeps
    gradient norms meaningful for fields sitting far from zero.
    """
    grid = mesh.rings(u)
    nxt = np.concatenate([grid[:, 1:], grid[:, :1]], axis=1)  # column j + 1
    lo = grid[:-1]
    diff = np.empty((len(lo), 3, mesh.n_theta))
    np.subtract(grid[1:], lo, out=diff[:, 0])   # to (k + 1, j)
    np.subtract(nxt[1:], lo, out=diff[:, 1])    # to (k + 1, j + 1)
    np.subtract(nxt[:-1], lo, out=diff[:, 2])   # to (k, j + 1)
    G = mesh.grads.reshape(2, 3, -1, 2, 1)      # by cell ring and kind
    p = G[:, 1] * diff[:, :2]
    for c in range(2):
        p[c] += G[c, 2] * diff[:, 1:]
    return p.reshape(2, -1).T


def _energy(d: Density, mesh: PolarMesh, p: np.ndarray) -> tuple:
    """(E, t): :func:`energy` of the field whose triangle gradients are p,
    and t = |p|, which the flux and tangent of the same field read
    (:func:`lingrowth.density.flux`).  The energy sums each row's n_theta
    values of g, then weighs the row sums by the areas."""
    t = np.hypot(p[:, 0], p[:, 1])
    rows = d.g(t).reshape(len(mesh.areas), mesh.n_theta).sum(axis=1)
    return float(np.dot(mesh.areas, rows)), t


def _add_next(grid: np.ndarray, values: np.ndarray):
    """grid[:, j + 1] += values[:, j], column n_theta - 1 onto column 0."""
    grid[:, 1:] += values[:, :-1]
    grid[:, :1] += values[:, -1:]


# (cell ring, column) cells whose contributions :func:`_nodal_gradient`
# forms at once, rounded down to whole cell rings, one at least: 12 doubles
# a cell, its six vertex contributions and one product of the same size,
# so at most 0.4 MB beyond the gradient whatever the mesh (a 48 x 64 or a
# smaller mesh is one block).
_NODAL_BLOCK = 4096


def _nodal_gradient(mesh: PolarMesh, flux: np.ndarray) -> np.ndarray:
    """Add (M, 2) per-triangle fluxes into the nodal energy gradient.

    Each vertex of a row of triangles sits on one grid slice, so the
    contributions are added slice by slice, every column in the same
    order: the order of the triangle numbering within each column (lower
    cell ring first, kind 0 first, vertex by vertex), which on a
    one-column mesh is the numbering itself.  They are formed for a block
    of about ``_NODAL_BLOCK`` cells, whole cell rings, at a time, lower
    blocks first (:func:`_add_cell_rings`).  A node's terms from the cell
    ring below it are all added before those from the cell ring above it,
    so every node sums its terms in the same order whatever the blocks.
    A disk's center sums its row."""
    rows, n = len(mesh.areas), mesh.n_theta
    aG = (mesh.areas * mesh.grads)[..., None]   # (2, 3, rows, 1)
    f0, f1 = (flux[:, c].reshape(rows, n) for c in range(2))
    grid = np.zeros((len(mesh.ring_radii), n))
    step = max(1, _NODAL_BLOCK // n)            # cell rings of a block
    for ring in range(0, rows // 2, step):
        block = slice(2 * ring, 2 * (ring + step))
        _add_cell_rings(grid[ring:ring + step + 1], aG[:, :, block],
                        f0[block], f1[block])
    if mesh.is_disk:
        # the center's sum in place of ring 0's last entry, followed by
        # every other ring: the nodal vector is a view of the grid
        grid[0, -1] = grid[0].sum()
        return grid.ravel()[n - 1:]
    return grid.ravel()


def _add_cell_rings(grid, aG, f0, f1):
    """Add the nodal contributions of whole cell rings into ``grid``, the
    rings they span: (2, 3, rows, 1) area-weighted hat gradients and
    (rows, n_theta) flux components of their rows."""
    c = aG[0] * f0
    c += aG[1] * f1
    c0, c1, c2 = c.reshape(3, -1, 2, f0.shape[-1])  # by cell ring and kind
    # from the cell ring below: kind 0's second and third vertices, kind
    # 1's second; from the one above: both first vertices, kind 1's third
    upper, lower = grid[1:], grid[:-1]
    upper += c1[:, 0]
    _add_next(upper, c2[:, 0])
    _add_next(upper, c1[:, 1])
    lower += c0[:, 0]
    lower += c0[:, 1]
    _add_next(lower, c2[:, 1])


# the (i, j) vertex pairs, i >= j, of the lower triangle of a 3 x 3 block
_LOWER = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


def _blocks(mesh: PolarMesh, tangent: np.ndarray) -> np.ndarray:
    """(M, 6) lower entries, in ``_LOWER`` order, of the triangle stiffness
    blocks areas * G^T T G for an (M, 2, 2) tangent, or one (2, 2) tangent
    shared by every triangle."""
    rows, n = len(mesh.areas), mesh.n_theta
    shape = (rows, n) if np.ndim(tangent) > 2 else ()
    t00, t01, t11 = (np.reshape(tangent[..., r, c], shape)
                     for r, c in ((0, 0), (0, 1), (1, 1)))
    g0, g1 = mesh.grads[..., None]
    tg0 = t00 * g0 + t01 * g1                   # rows of T G, (3, rows, n)
    tg1 = t01 * g0 + t11 * g1
    a = mesh.areas[:, None]
    lower = np.empty((rows, n, len(_LOWER)))
    for e, (i, j) in enumerate(_LOWER):
        lower[..., e] = (g0[i] * tg0[j] + g1[i] * tg1[j]) * a
    return lower.reshape(-1, len(_LOWER))


# ---------------------------------------------------------------------------
# banded LAPACK

# Symbol patterns of dpbtrf/dpbtrs in numpy's LAPACK, tried in order, each
# with its Fortran integer: numpy >= 2 wheels (scipy-openblas, 64-bit ints),
# numpy 1.x wheels (64-bit ints), LP64 builds (32-bit ints).
_LAPACK_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64),
                   ("{}_64_", ctypes.c_int64), ("{}_", ctypes.c_int32))
# Patterns of OpenBLAS's thread-count functions ("{}" standing for get and
# set), tried in order on the library that supplies dpbtrf/dpbtrs: the
# 64-bit-integer builds of scipy-openblas and OpenBLAS, then their LP64 ones.
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                   "openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


@functools.cache
def _band_lapack() -> tuple:
    """(pbtrf, pbtrs, threads), looked up once: ``pbtrf(ab)`` factors a
    lower band ``ab[i - j, j] = K[i, j]`` in place (copied first only if it
    is not a Fortran-ordered float array) and returns the factor, raising
    LinAlgError when K is not numerically positive definite;
    ``pbtrs(factor, rhs)`` returns the solution of K x = rhs in a new
    array.  ``threads`` is the (get, set) pair of OpenBLAS's thread-count
    functions from the library that runs the two routines, or None where
    that library is not OpenBLAS.

    The routines come from the library of ``numpy.linalg``, which a loaded
    numpy has mapped already; scipy's wrappers of the same routines are
    imported only where none of ``_LAPACK_SYMBOLS`` resolves there."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for pattern, fint in _LAPACK_SYMBOLS:
        trf = getattr(lib, pattern.format("dpbtrf"), None)
        trs = getattr(lib, pattern.format("dpbtrs"), None)
        if trf is not None and trs is not None:
            return (*_ctypes_band(trf, trs, fint), _thread_count(lib))
    return _scipy_band()


def _thread_count(lib) -> Optional[tuple]:
    """(get, set) of the OpenBLAS thread count in ``lib``, under the first
    of ``_THREAD_SYMBOLS`` that names both, or None."""
    for pattern in _THREAD_SYMBOLS:
        get = getattr(lib, pattern.format("get"), None)
        put = getattr(lib, pattern.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


def _ctypes_band(trf, trs, fint) -> tuple:
    """(pbtrf, pbtrs) of ``_band_lapack`` over the Fortran routines
    ``dpbtrf``/``dpbtrs`` with integer type ``fint``.  Every argument goes
    by reference, and the length of the UPLO string follows the others."""
    ref, ptr = ctypes.POINTER(fint), ctypes.c_void_p
    trf.argtypes = (ctypes.c_char_p, ref, ref, ptr, ref, ref, ctypes.c_size_t)
    trs.argtypes = (ctypes.c_char_p, ref, ref, ref, ptr, ref, ptr, ref, ref,
                    ctypes.c_size_t)
    trf.restype = trs.restype = None
    by = ctypes.byref

    def pbtrf(ab):
        ab = np.asfortranarray(ab, dtype=float)
        depth, n = ab.shape
        info = fint()
        trf(b"L", by(fint(n)), by(fint(depth - 1)), ab.ctypes.data,
            by(fint(depth)), by(info), 1)
        _check_info("dpbtrf", info.value)
        return ab

    def pbtrs(factor, rhs):
        factor = np.asfortranarray(factor, dtype=float)
        depth, n = factor.shape
        x = np.array(rhs, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"right-hand side of shape {x.shape} for a "
                             f"band of {n} columns")
        info = fint()
        trs(b"L", by(fint(n)), by(fint(depth - 1)), by(fint(1)),
            factor.ctypes.data, by(fint(depth)), x.ctypes.data, by(fint(n)),
            by(info), 1)
        _check_info("dpbtrs", info.value)
        return x

    return pbtrf, pbtrs


def _scipy_band() -> tuple:
    """(pbtrf, pbtrs, threads) of ``_band_lapack`` through scipy's LAPACK
    wrappers, with the thread count of the library they are built in."""
    from scipy.linalg.lapack import _flapack, dpbtrf, dpbtrs

    def pbtrf(ab):
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        _check_info("dpbtrf", info)
        return factor

    def pbtrs(factor, rhs):
        x, info = dpbtrs(factor, rhs, lower=1)
        _check_info("dpbtrs", info)
        return x

    return pbtrf, pbtrs, _thread_count(ctypes.CDLL(_flapack.__file__))


def _check_info(routine: str, info: int):
    if info > 0:
        raise LinAlgError(f"{routine}: leading minor {info} is not positive "
                          f"definite")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _factor(ab: np.ndarray) -> np.ndarray:
    """Banded Cholesky factor of K from its lower band ``ab``, factored in
    place, so the band and its factor share one array.  Raises LinAlgError
    when K is not numerically positive definite."""
    return _band_lapack()[0](ab)


def _solve_factored(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs with the banded Cholesky factor of K."""
    return _band_lapack()[1](factor, rhs)


# ---------------------------------------------------------------------------
# BLAS thread scope


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed solve with the banded LAPACK's OpenBLAS at one
    thread.

    :func:`solve_dirichlet` is public, so a caller may run solves from
    several threads of its own; the OpenBLAS count is process-wide, so
    overlapping scopes share one save and restore: the first scope in
    records the count and sets it to 1, the last one out puts the
    recorded count back.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        threads = _band_lapack()[2]
        if _blas_depth == 0 and threads is not None:
            _blas_saved = threads[0]()
            threads[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and threads is not None:
                threads[1](_blas_saved)


@_one_blas_thread()
def energy(d: Density, mesh: PolarMesh, u: np.ndarray) -> float:
    """Total energy sum(area * g(|grad u|)) of a nodal field, its area sum
    taken on one BLAS thread, as in a solve.  ``u`` must be a full nodal
    vector of finite entries, by :func:`solve_dirichlet`'s rule for its
    nodal vectors; anything else is a ValueError that starts ``u: ``."""
    u = ioutil.checked(_nodal_entries, u, "u", mesh.num_nodes, slice(None))
    return _energy(d, mesh, _triangle_gradients(mesh, u))[0]


# ---------------------------------------------------------------------------
# Dirichlet solve


def _nodal_entries(vector, num_nodes: int, nodes) -> np.ndarray:
    """The entries at ``nodes`` (an index array, or ``slice(None)`` for
    all) of ``vector``, which must be a full nodal vector of ``num_nodes``
    entries, finite at ``nodes``: a dict, any other shape or a non-finite
    entry there is a ValueError."""
    # np.asarray raises a TypeError on a dict, naming no expected form
    arr = None if isinstance(vector, dict) else np.asarray(vector, dtype=float)
    if arr is None or arr.shape != (num_nodes,):
        got = "a dict" if arr is None else f"shape {arr.shape}"
        raise ValueError(f"must be a full nodal vector of length {num_nodes}, "
                         f"got {got}")
    values = arr[nodes]
    if not np.all(np.isfinite(values)):
        raise ValueError("has non-finite entries where the solve reads it")
    return values


@dataclass(frozen=True)
class _Band:
    """Scatter map from the lower triangle-block entries into the lower band
    of the interior Hessian, stored as LAPACK's ``ab[i - j, j] = K[i, j]``
    in column-major order so that ``dpbtrf`` factors it in place."""

    entries: np.ndarray     # flat indices into the (M, 6) lower entries
    positions: np.ndarray   # matching flat indices into the column-major ab
    shape: tuple            # (half-bandwidth + 1, number of interior nodes)

    def matrix(self, lower: np.ndarray) -> np.ndarray:
        """Banded interior Hessian assembled from (M, 6) lower entries."""
        depth, n = self.shape
        ab = np.bincount(self.positions, weights=lower.ravel()[self.entries],
                         minlength=depth * n)
        return ab.reshape(n, depth).T


def _band(mesh: PolarMesh, interior: np.ndarray) -> _Band:
    """Band map for one mesh: every lower block entry whose vertices are
    both interior, placed at (larger, smaller) interior index; blocks are
    symmetric, so that is the entry the lower band holds.  The
    half-bandwidth is the largest such gap (n_theta + 1 on ring-major
    meshes, n_theta at a disk's center).  An off-diagonal entry whose two
    vertices are one node (on a one-column mesh) is placed on the diagonal
    twice, once for K_ij and once for K_ji."""
    local = np.full(mesh.num_nodes, -1, dtype=np.int64)
    local[interior] = np.arange(len(interior))
    lt = local[mesh.row_triangles()].reshape(-1, 3)
    # a disk's placeholder row (zero area) is left out
    lt[np.repeat(mesh.areas == 0.0, mesh.n_theta)] = -1
    i, j = np.array(_LOWER).T
    a, b = lt[:, i].ravel(), lt[:, j].ravel()   # like the (M, 6) entries
    twice = [np.flatnonzero((lt[:, p] == lt[:, q]) & (lt[:, q] >= 0))
             * len(_LOWER) + e for e, (p, q) in enumerate(_LOWER) if p != q]
    entries = np.concatenate([np.flatnonzero((a >= 0) & (b >= 0)), *twice])
    a, b = a[entries], b[entries]
    offsets = np.abs(a - b)
    depth = int(offsets.max()) + 1
    return _Band(entries=entries, positions=np.minimum(a, b) * depth + offsets,
                 shape=(depth, len(interior)))


# band maps of the last few mesh topologies, most recent last
_BAND_CACHE_SIZE = 8
_bands: dict = {}
_bands_lock = threading.Lock()


def _cached_band(mesh: PolarMesh, interior: np.ndarray) -> _Band:
    """:func:`_band` of ``mesh``, kept for the last ``_BAND_CACHE_SIZE``
    topologies.  The key is the layout (disk or annulus, rings, columns),
    which fixes the triangles, and the bytes of the interior nodes, not
    the mesh object, so meshes that differ only in their radii share one
    map, and so do the many solves on one mesh of the comparison suite.
    A solve whose start passes its gradient test looks up none (see the
    module docstring).  Its arrays are read-only."""
    key = (mesh.is_disk, len(mesh.ring_radii), mesh.n_theta,
           interior.tobytes())
    with _bands_lock:
        band = _bands.pop(key, None)
        if band is None:
            band = _band(mesh, interior)
            band.entries.flags.writeable = False
            band.positions.flags.writeable = False
        _bands[key] = band
        if len(_bands) > _BAND_CACHE_SIZE:
            del _bands[next(iter(_bands))]
    return band


def _harmonic_extension(d: Density, mesh: PolarMesh, u: np.ndarray,
                        interior: np.ndarray, band: _Band) -> np.ndarray:
    """Initial guess from boundary data u (zero on the interior): discrete
    harmonic extension weighted by the flat tangent g''(0) * Id (one
    banded linear solve).  K u is the nodal gradient of the flux
    g''(0) * grad u of that quadratic energy."""
    flat = tangent(d, np.zeros(2))
    Ku = _nodal_gradient(mesh, flat[0, 0] * _triangle_gradients(mesh, u))
    factor = _factor(band.matrix(_blocks(mesh, flat)))
    out = u.copy()
    out[interior] = _solve_factored(factor, -Ku[interior])
    return out


def _ring_mode_step(d: Density, annulus: PolarMesh, ring_values: np.ndarray):
    """The map u -> u - K(w)^-1 grad E(u) on the interior of ``annulus``,
    boundary entries kept, where w is the ring-constant field of
    ``ring_values``, one value per ring, and K(w) the 2D interior Hessian
    at w.  K(w) is factored once, here, for every call of the map.

    K(w) is never assembled in 2D: it is block-circulant in theta, and each
    Fourier mode is one real tridiagonal system in the ring index, mode 0
    the band of the annulus's one-column mesh (see the module docstring).
    A disk's center couples every column, so disks raise ValueError.
    """
    if annulus.is_disk:
        raise ValueError("the ring-mode step needs an annulus, not a disk")
    n = annulus.n_theta
    column = one_column(annulus)
    lower = _blocks(column, tangent(
        d, _triangle_gradients(column, ring_values))) / n
    base = _cached_band(column, column.interior_nodes()).matrix(lower)
    # D1: entry (2, 1) of kind 0, (k+1, j) (k+1, j+1), in the cell ring
    # below, plus entry (2, 0) of kind 1, (k, j) (k, j+1), in the one above
    D1 = lower[0:-2:2, 4] + lower[3::2, 3]
    cos = np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)

    # the real and imaginary parts of every mode, one tridiagonal block
    # each, in LAPACK's lower band layout, kept apart by base[1][-1] = 0
    m = base.shape[1]                           # interior rings
    ab = np.empty((2, len(cos), m, 2))
    ab[..., 0] = base[0] + 2.0 * (cos[:, None] - 1.0) * D1
    ab[..., 1] = base[1]
    factor = _factor(ab.reshape(-1, 2).T)

    def step(u: np.ndarray) -> np.ndarray:
        grad = _nodal_gradient(annulus,
                               flux(d, _triangle_gradients(annulus, u)))
        rhs = np.fft.rfft(annulus.rings(grad)[1:-1])
        x = _solve_factored(factor,
                            np.stack([rhs.real.T, rhs.imag.T]).ravel())
        x = x.reshape(2, len(cos), m)
        out = np.array(u, dtype=float)
        annulus.rings(out)[1:-1] -= np.fft.irfft((x[0] + 1j * x[1]).T, n)
        return out

    return step


# Largest ratio of the second ring-mode correction to the first at which a
# removability annulus starts from the corrected field, and the bound below
# which each later one must stay against the one before.  The corrections
# are chord steps with one Hessian, so the ratio estimates their
# contraction.  For the first two, over 240 annuli (area, mu=2, mu=3;
# background slopes 0.05 to 3; spikes 1 and -10; the default epsilons and
# mesh) the corrected start never took more 2D Newton steps than the
# uncorrected one where the ratio was at most 1/4 (2211 -> 2074 steps in
# all); with no test it took up to 65 more (2607 in all), where a steep
# background puts the start far from the Hessian at the ring solution.
_CHORD_CONTRACTION = 0.25


@_one_blas_thread()
def _ring_mode_corrected(d: Density, annulus: PolarMesh,
                         ring_values: np.ndarray, start: np.ndarray) -> tuple:
    """(u, kept): ``start`` corrected by :func:`_ring_mode_step` at the
    ring-constant field ``ring_values`` for as long as the corrections
    contract, and the number of corrections kept in u.

    The first two are kept together or not at all: only where the second
    is at most ``_CHORD_CONTRACTION`` times the first in the 2-norm;
    otherwise ``start`` comes back with 0.  Each later correction c_k is
    kept only where |c_k| < ``_CHORD_CONTRACTION`` |c_k-1| in the max-norm,
    strictly, and the first one that is not ends the loop.  The loop also
    stops once the next correction, predicted from a linear contraction as
    |c_k|^2 / |c_k-1|, is at most the rounding eps * max|u| of the field;
    that test is made multiplied out, so exactly zero corrections (at a
    start that solves the annulus problem exactly, such as a zero field)
    end it without 0 / 0.  Whether u is a solution is still for the
    gradient test of :func:`solve_dirichlet` to decide.
    """
    step = _ring_mode_step(d, annulus, ring_values)
    once = step(start)
    u = step(once)
    if (np.linalg.norm(u - once)
            > _CHORD_CONTRACTION * np.linalg.norm(once - start)):
        return start, 0
    eps = np.finfo(float).eps
    before, last = np.max(np.abs(once - start)), np.max(np.abs(u - once))
    kept = 2
    while last * last > eps * np.max(np.abs(u)) * before:
        nxt = step(u)
        size = np.max(np.abs(nxt - u))
        if not size < _CHORD_CONTRACTION * last:
            break
        u, before, last, kept = nxt, last, size, kept + 1
    return u, kept


def _ring_started_solve(d: Density, annulus: PolarMesh, inner: float,
                        outer: float, base: Optional[np.ndarray] = None,
                        ring_start: Optional[np.ndarray] = None) -> tuple:
    """(solution, ring, corrections): :func:`solve_dirichlet` on
    ``annulus`` started from ``ring``, the exact solution of its
    ring-constant problem, and the number of start corrections kept.

    The ring problem, ``inner`` on the inner circle and ``outer`` on the
    outer one, is solved on :func:`lingrowth.mesh.one_column`, one unknown
    per ring, from ``ring_start`` (one value per ring) or, where that is
    None, from the harmonic extension.  Without ``base`` the annulus maps
    onto itself under rotation by one column, so its unique discrete
    minimizer is constant on each ring: the lifted ring solution is the
    start.  With ``base``, a nodal field, the start is the base plus the
    lift, corrected mode by mode in theta while the corrections contract
    (:func:`_ring_mode_corrected`).  ``corrections`` counts those kept: 0
    without a base, and 0 both where they grow (a steep background) and
    where the start is already at rounding, its first two rounding noise.
    The 2D solve reads its boundary data from the start, and its gradient
    test is the only certificate: where the start passes it, the annulus
    takes no Newton step and factors no 2D band.
    """
    column = one_column(annulus)
    data = np.zeros(len(annulus.ring_radii))
    data[[0, -1]] = inner, outer
    ring = solve_dirichlet(d, column, data, x0=ring_start)
    lift = annulus.from_rings(column.rings(ring.values))
    start, corrections = ((lift, 0) if base is None else _ring_mode_corrected(
        d, annulus, ring.values, base + lift))
    return solve_dirichlet(d, annulus, start, x0=start), ring, corrections


def _newton_step(band: _Band, blocks: np.ndarray,
                 g_i: np.ndarray) -> Optional[np.ndarray]:
    """The Newton step -K^-1 g, or None when K is not numerically positive
    definite or the step is not a finite descent direction."""
    try:
        factor = _factor(band.matrix(blocks))
    except LinAlgError:
        return None
    step = _solve_factored(factor, -g_i)
    if not np.all(np.isfinite(step)) or float(np.dot(step, g_i)) >= 0.0:
        return None
    return step


# Newton decrement lambda^2 = -step . grad below which a step is taken in
# full without the Armijo test.  The energy is a sum of M ~ 1e3..1e5
# triangle terms; its rounding error is about sqrt(M) * 2.2e-16 * |E|, i.e.
# 1e-14 |E| for a few thousand triangles.  A step whose predicted decrease
# lambda^2 / 2 is below that cannot be told from rounding by comparing two
# computed energies, while the quadratic model behind it is accurate to
# O(lambda): the full step is the right one (Boyd & Vandenberghe, Convex
# Optimization, 9.5.3), and the gradient test still decides convergence.
_ROUNDING_DECREMENT = 1e-14

# A solve has converged once the interior gradient norm is at most
# _GRAD_TOL * (1 + |E|).
_GRAD_TOL = 1e-10

# Armijo line search: sufficient-decrease constant and backtracking factor.
_ARMIJO_C = 1e-4
_ARMIJO_FACTOR = 0.5


@_one_blas_thread()
def solve_dirichlet(d: Density, mesh: PolarMesh, boundary_data, *,
                    x0=None, max_iter: int = 200) -> DiscreteSolution:
    """Minimize the discrete energy subject to Dirichlet boundary values.

    Parameters
    ----------
    d : normalized Density.
    mesh : PolarMesh.
    boundary_data : full nodal vector of length ``mesh.num_nodes``; only
        its boundary entries are read, and they must be finite.
    x0 : full nodal vector, optional.  Its interior entries are the Newton
        start in place of the harmonic extension of the boundary data, and
        they must be finite; its boundary entries are ignored (the data
        always wins).  The minimizer is unique, so the start changes only
        the iteration count and rounding within the stopping tolerance.
    max_iter : integer >= 0 (an int or a numpy integer, not a bool), the
        Newton steps allowed.  The gradient test is made before each and
        after the last, so 0 tests the start only.

    Returns
    -------
    DiscreteSolution with converged=True; convergence means the interior
    gradient norm fell below 1e-10 * (1 + |energy|).  That test is the
    only way a solve ends well: it is made at the start and after every
    step, the last allowed one included.  A Newton step whose decrement
    lies below the rounding of the energy is taken in full without the
    energy test; the gradient test after it still decides convergence.

    Raises
    ------
    NonConvergenceError
        If the gradient test still fails after ``max_iter`` steps, or the
        line search stalls; the partial solution rides along on the
        exception.
    ValueError
        For a density that is not normalized; a ``boundary_data`` or
        ``x0`` that is not a full nodal vector (a dict included) or is not
        finite where it is read, each error naming its argument; a
        ``max_iter`` that is not an integer >= 0, named likewise; or a
        non-finite initial energy.
    """
    _require_normalized(d)
    max_iter = ioutil.checked(ioutil.integer, max_iter, "max_iter", 0)

    interior, bnodes = mesh.interior_nodes(), mesh.boundary_nodes()
    # the band map is looked up for the first factorization, so a start
    # that passes the gradient test looks up none
    band = functools.cache(lambda: _cached_band(mesh, interior))
    u = np.zeros(mesh.num_nodes)
    u[bnodes] = ioutil.checked(_nodal_entries, boundary_data, "boundary_data",
                               mesh.num_nodes, bnodes)
    if x0 is None:
        u = _harmonic_extension(d, mesh, u, interior, band())
    else:
        u[interior] = ioutil.checked(_nodal_entries, x0, "x0",
                                     mesh.num_nodes, interior)

    p = _triangle_gradients(mesh, u)
    E, t = _energy(d, mesh, p)
    if not math.isfinite(E):
        raise ValueError(f"non-finite initial energy {E}")

    history = [E]

    def solution(iterations: int, converged: bool) -> DiscreteSolution:
        return DiscreteSolution(mesh=mesh, values=u, energy=E,
                                grad_norm=grad_norm, iterations=iterations,
                                converged=converged,
                                energy_history=tuple(history))

    for it in range(max_iter + 1):
        g_i = _nodal_gradient(mesh, flux(d, p, t))[interior]
        grad_norm = float(np.linalg.norm(g_i))
        if grad_norm <= _GRAD_TOL * (1.0 + abs(E)):
            return solution(it, True)
        if it == max_iter:
            break

        step = _newton_step(band(), _blocks(mesh, tangent(d, p, t)), g_i)
        ok = False
        if step is not None:
            # in the rounding regime the energy test cannot see the decrease
            rounding = (-float(np.dot(step, g_i))
                        <= _ROUNDING_DECREMENT * (1.0 + abs(E)))
            u_new, E_new, ok, p_new, t_new = _armijo(
                d, mesh, u, interior, step, g_i, E, full=rounding)
        if not ok:
            # Newton direction unusable or exhausted the line search; one
            # gradient try
            u_new, E_new, ok, p_new, t_new = _armijo(d, mesh, u, interior,
                                                     -g_i, g_i, E)
        if not ok:
            # neither direction made progress at a gradient that missed the
            # tolerance: we are numerically stationary
            raise NonConvergenceError(
                f"line search stalled at gradient norm {grad_norm:.3e} "
                f"above tolerance", solution(it + 1, False))
        u, E, p, t = u_new, E_new, p_new, t_new
        history.append(E)

    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(grad_norm={grad_norm:.3e}, energy={E:.12g})",
        solution(max_iter, False))


def _armijo(d, mesh, u, interior, direction, g_i, E, full=False):
    """Backtracking line search; returns (u_new, E_new, accepted, p_new,
    t_new), p_new the triangle gradients of u_new and t_new their norms,
    both None where no trial was accepted.  With ``full`` the first trial,
    the whole step, is accepted without the energy test."""
    slope = float(np.dot(direction, g_i))
    step = 1.0
    trial = u.copy()
    while step >= 1e-14:
        trial[interior] = u[interior] + step * direction
        p = _triangle_gradients(mesh, trial)
        E_trial, t = _energy(d, mesh, p)
        if full or E_trial <= E + _ARMIJO_C * step * slope:
            return trial, E_trial, True, p, t
        step *= _ARMIJO_FACTOR
    return u, E, False, None, None
