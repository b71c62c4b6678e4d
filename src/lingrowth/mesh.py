"""Structured triangulations of disks and annuli in polar coordinates.

Nodes are laid out on concentric circles of the caller's radii, with
equally spaced angles, so every boundary node sits exactly on its circle
(up to one ulp of cos/sin).  Each quadrilateral cell is split into two
triangles along the same diagonal, so the mesh maps onto itself under
rotation by one angular step, and only the triangles of angular column 0
are stored: every other column is their rotation.

Node ordering is ring-major: index = ring * n_theta + column for annuli;
a disk additionally owns node 0 at the center, followed by the rings of
positive radius.  Other modules never spell this layout out: they move a
field between nodal vectors and (ring, column) grids through
:meth:`PolarMesh.rings` and :meth:`PolarMesh.from_rings`.

The cell between circles k and k + 1 in column j holds two triangles,
of kind 0, (k, j), (k + 1, j), (k + 1, j + 1), and of kind 1, (k, j),
(k + 1, j + 1), (k, j + 1), as (ring, column) pairs in that vertex order.
The triangles come in rows, row 2 k + e holding the kind-e triangles of
cell ring k, and are numbered row by row, column by column within a row.
A disk's center fills ring 0, so its cell ring 0 is the center fan: row 0
holds the fan triangles, and row 1 is a placeholder, whose would-be
triangles (center, (1, j + 1), center) are degenerate.  It has zero area
and zero hat gradients, so it adds nothing anywhere, and it is not a
triangle: ``num_triangles`` leaves it out.  The solver's per-triangle
arrays keep it, so every mesh has two rows per cell ring, each n_theta
long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import ioutil


class NodeTag(IntEnum):
    INTERIOR = 0
    INNER = 1
    OUTER = 2


@dataclass(frozen=True, eq=False)
class PolarMesh:
    """Immutable triangle mesh of a disk or annulus.

    Attributes
    ----------
    n_theta : number of angular sectors.
    node_tags : (N,) int array of NodeTag values.
    ring_radii : radii of the node circles, ascending; a disk's center
        counts as a ring of radius 0 holding a single node.  The domain is
        ``ring_radii[0] <= |x| <= ring_radii[-1]``.
    areas : (rows,) areas of the triangles of column 0, one per row of the
        triangle numbering (see the module docstring): one per cell ring
        and kind, 0 for a disk's placeholder row.  Every column has the
        same.
    grads : (2, 3, rows) gradients of the three nodal hat functions on the
        same triangles, component-major: ``grads[c, k]`` is the c-th
        component of the gradient of the hat at vertex k, one entry per
        row (0 for a disk's placeholder).  Column j's triangles are
        column 0's rotated by 2 pi j / n_theta, and so are their hat
        gradients; these are the gradients in each column's own frame,
        rotated back to column 0.  The solver reads them only through
        rotation-invariant contractions (|p|, G^T flux, G^T T G; see
        :mod:`lingrowth.solver`).

    ``nodes`` and :meth:`row_triangles` are computed from the layout when
    read.
    """

    n_theta: int
    node_tags: np.ndarray
    ring_radii: np.ndarray
    areas: np.ndarray
    grads: np.ndarray

    # -- structure queries ------------------------------------------------

    @property
    def is_disk(self) -> bool:
        return bool(self.ring_radii[0] == 0.0)

    @property
    def num_nodes(self) -> int:
        return len(self.node_tags)

    @property
    def num_triangles(self) -> int:
        return (len(self.areas) - self.is_disk) * self.n_theta

    @property
    def nodes(self) -> np.ndarray:
        """(N, 2) float array of vertex coordinates, node k of ring i at
        radius ``ring_radii[i]`` and angle 2 pi k / n_theta."""
        theta = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
        return _ring_nodes(self.ring_radii, theta, self.is_disk)

    def row_triangles(self) -> np.ndarray:
        """(rows, n_theta, 3) positively oriented vertex triples of every
        row, in the numbering of the module docstring, a disk's
        placeholder row included: the layout of the solver's per-triangle
        arrays."""
        grid = self.rings(np.arange(self.num_nodes, dtype=np.int64))
        return _row_triangles(np.concatenate([grid, grid[:, :1]], axis=1))

    @property
    def h_radial(self) -> float:
        """Largest radial spacing between consecutive rings."""
        return float(np.max(np.diff(self.ring_radii)))

    def nodes_with_tag(self, tag: NodeTag) -> np.ndarray:
        return np.flatnonzero(self.node_tags == tag)

    def inner_nodes(self) -> np.ndarray:
        return self.nodes_with_tag(NodeTag.INNER)

    def outer_nodes(self) -> np.ndarray:
        return self.nodes_with_tag(NodeTag.OUTER)

    def interior_nodes(self) -> np.ndarray:
        return self.nodes_with_tag(NodeTag.INTERIOR)

    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_tags != NodeTag.INTERIOR)

    def node_radii(self) -> np.ndarray:
        nodes = self.nodes
        return np.hypot(nodes[:, 0], nodes[:, 1])

    def node_angles(self) -> np.ndarray:
        nodes = self.nodes
        return np.arctan2(nodes[:, 1], nodes[:, 0])

    def rings(self, values) -> np.ndarray:
        """Nodal values as a (rings, n_theta) grid: row k is circle k
        (ascending radius), column j the angle 2 pi j / n_theta.  A disk's
        center value fills row 0.  On an annulus the grid is a view."""
        values = np.asarray(values)
        if self.is_disk:
            values = np.concatenate(
                [np.repeat(values[:1], self.n_theta), values[1:]])
        return values.reshape(len(self.ring_radii), self.n_theta)

    def from_rings(self, grid) -> np.ndarray:
        """Nodal vector of a grid laid out as by :meth:`rings`.  Anything
        that broadcasts to (rings, n_theta) is accepted, e.g. one value
        per ring as a column ``c[:, None]``.  A disk's center takes
        ``grid[0, 0]``."""
        flat = np.broadcast_to(
            grid, (len(self.ring_radii), self.n_theta)).flatten()
        if self.is_disk:
            return np.concatenate([flat[:1], flat[self.n_theta:]])
        return flat


def _ring_nodes(radii, theta, is_disk) -> np.ndarray:
    """Coordinates of the nodes on circles ``radii`` at angles ``theta``,
    ring-major, after a disk's one center node at the origin."""
    first = 1 if is_disk else 0
    circle_radii = radii[first:]
    nodes = np.zeros((first + len(circle_radii) * len(theta), 2))
    nodes[first:, 0] = np.multiply.outer(circle_radii, np.cos(theta)).ravel()
    nodes[first:, 1] = np.multiply.outer(circle_radii, np.sin(theta)).ravel()
    return nodes


def _row_triangles(index) -> np.ndarray:
    """(rows, C, 3) vertex triples of the triangles of C columns, rows in
    the order of the module docstring, from the (rings, C + 1) grid
    ``index`` of node numbers whose column j + 1 is column j's angular
    successor."""
    lo, up = index[:-1], index[1:]
    kind0 = np.stack([lo[:, :-1], up[:, :-1], up[:, 1:]], axis=-1)
    kind1 = np.stack([lo[:, :-1], up[:, 1:], lo[:, 1:]], axis=-1)
    return np.stack([kind0, kind1], axis=1).reshape(-1, *kind0.shape[1:])


def build_polar_mesh(ring_radii, n_theta: int) -> PolarMesh:
    """Triangulate the annulus between the first and the last of the node
    circles ``ring_radii`` (a disk when the first is 0).

    Parameters
    ----------
    ring_radii : radii of the node circles: a list, a tuple or a 1-D
        array of at least 4 finite real numbers (cast by
        :func:`ioutil.real_array`, so a bool or a string is none), the
        first >= 0, strictly ascending; anything else is a ValueError that
        starts ``ring_radii: ``.  The spacing is the caller's: equal
        (``np.linspace``), graded toward the inner circle, or log-polar.
    n_theta : number of angular sectors, an integer >= 3 (an int or a
        numpy integer; a bool, a fraction or a string is a ValueError
        naming ``n_theta``).

    Returns
    -------
    PolarMesh with one node ring per radius for an annulus; a disk swaps
    the degenerate inner circle for a single center node.  Its geometry
    is that of column 0's triangles, computed from the nodes of columns 0
    and 1 alone, which are the same floats as in ``nodes``.
    """
    radii = ioutil.checked(ioutil.real_array, ring_radii, "ring_radii")
    if (len(radii) < 4 or not np.all(np.isfinite(radii)) or radii[0] < 0.0
            or np.any(np.diff(radii) <= 0.0)):
        raise ValueError(
            f"ring_radii: must be at least 4 finite numbers, the first >= 0, "
            f"strictly ascending; got {ring_radii!r}")
    n_theta = ioutil.checked(ioutil.integer, n_theta, "n_theta", 3)
    is_disk = bool(radii[0] == 0.0)

    # the nodes of columns 0 and 1 of every ring, numbered 2 k + j
    pair = _ring_nodes(radii, 2.0 * math.pi * np.arange(2) / n_theta, False)
    column = _row_triangles(np.arange(len(pair)).reshape(-1, 2))[:, 0]
    real = np.ones(len(column), dtype=bool)
    real[1] = not is_disk                       # a disk's placeholder row
    areas, grads = np.zeros(len(column)), np.zeros((2, 3, len(column)))
    areas[real], grads[..., real] = _triangle_geometry(pair, column[real])
    if np.any(areas[real] <= 0.0):
        raise ValueError("mesh construction produced a non-positive triangle")

    n_nodes = (len(radii) - is_disk) * n_theta + is_disk
    tags = np.full(n_nodes, NodeTag.INTERIOR, dtype=np.int8)
    if not is_disk:
        tags[:n_theta] = NodeTag.INNER
    tags[-n_theta:] = NodeTag.OUTER

    return PolarMesh(n_theta=n_theta, node_tags=tags, ring_radii=radii,
                     areas=areas, grads=grads)


def uniform_shape(r_in, r_out, n_r, n_theta, what: str) -> tuple:
    """The arguments ``(ring_radii, n_theta)`` of :func:`build_polar_mesh`
    for n_r + 1 equally spaced rings from r_in to r_out, from the config
    keys of those names in ``what`` (such as "mesh config").  A value
    that makes no mesh is a ValueError that names its key: n_r or n_theta
    not an integer >= 3, r_in not a finite real >= 0 (0 gives a disk),
    or r_out not above r_in."""
    key = f"{what} key {{!r}}".format
    n_r = ioutil.checked(ioutil.integer, n_r, key("n_r"), 3)
    n_theta = ioutil.checked(ioutil.integer, n_theta, key("n_theta"), 3)
    r_in = ioutil.checked(ioutil.real, r_in, key("r_in"))
    r_out = ioutil.checked(ioutil.real, r_out, key("r_out"))
    if r_in < 0.0:
        raise ValueError(f"{key('r_in')}: must be >= 0, got {r_in!r}")
    if not r_out > r_in:
        raise ValueError(f"{key('r_out')}: must exceed r_in = {r_in!r}, "
                         f"got {r_out!r}")
    return np.linspace(r_in, r_out, n_r + 1), n_theta


def one_column(mesh: PolarMesh) -> PolarMesh:
    """The mesh of one angular column, on which a field constant on each
    ring of ``mesh`` has one unknown per ring: node k is ring k, at angle
    0, with the ring's boundary tag (a disk's center is its ring 0).

    It is ``mesh`` with n_theta = 1: the same rows of column-0 geometry,
    the hat gradients shared and the areas scaled by n_theta.  Column 0's
    angular successor is column 0 itself, so two vertices of each
    triangle share a node.  ``mesh`` maps onto itself under rotation by
    one angular step, so a ring-constant field has exactly n_theta times
    the column's energy, and its energy gradient summed over each ring is
    n_theta times the column's.  Its :meth:`PolarMesh.rings` grid is one
    value per ring.
    """
    return PolarMesh(
        n_theta=1, node_tags=mesh.rings(mesh.node_tags)[:, 0].copy(),
        ring_radii=mesh.ring_radii, areas=mesh.n_theta * mesh.areas,
        grads=mesh.grads,
    )


def _triangle_geometry(nodes, triangles):
    """Signed areas and hat-function gradients, vectorized over triangles.

    Each corner coordinate is one gather from a contiguous x or y array
    through a contiguous column of vertex indices.  Gathering (M, 2) rows
    of ``nodes`` instead makes the same IEEE operations on the same
    operands, so gives the same bytes."""
    x, y = (np.ascontiguousarray(nodes[:, c]) for c in range(2))
    i0, i1, i2 = np.ascontiguousarray(triangles.T)
    x0, y0 = x[i0], y[i0]
    v1x, v1y = x[i1] - x0, y[i1] - y0
    v2x, v2y = x[i2] - x0, y[i2] - y0
    det = v1x * v2y - v1y * v2x
    areas = 0.5 * det

    grads = np.empty((2, 3, len(triangles)))
    # gradients of the barycentric coordinates lambda_1, lambda_2
    grads[0, 1] = v2y / det
    grads[1, 1] = -v2x / det
    grads[0, 2] = -v1y / det
    grads[1, 2] = v1x / det
    grads[:, 0] = -(grads[:, 1] + grads[:, 2])
    return areas, grads


def radial_values(mesh: PolarMesh, values: np.ndarray, r) -> np.ndarray:
    """Evaluate a nodal field at radius r for every angular column: an
    (n_theta,) row for a scalar r, one such row per radius for an array.
    ``r`` is one finite real number (:func:`ioutil.real`) or a list, a
    tuple or a 1-D array of them (:func:`ioutil.real_array`), each within
    the mesh's radii; anything else is a ValueError that starts ``r: ``.

    Along each ray of constant angle the mesh edges are radial segments,
    so the piecewise-affine field restricted to a ray is piecewise linear
    in the radius; linear interpolation between the bracketing circles is
    therefore exact for P1 fields.
    """
    radii = mesh.ring_radii
    if isinstance(r, (list, tuple, np.ndarray)):
        r = ioutil.checked(ioutil.real_array, r, "r")
    else:
        r = ioutil.checked(ioutil.real, r, "r")
    if not np.all((radii[0] - 1e-12 <= r) & (r <= radii[-1] + 1e-12)):
        raise ValueError(f"r: must lie in [{radii[0]}, {radii[-1]}], "
                         f"got {r}")
    r = np.clip(r, radii[0], radii[-1])
    hi = np.clip(np.searchsorted(radii, r), 1, len(radii) - 1)
    lo = hi - 1
    w = ((r - radii[lo]) / (radii[hi] - radii[lo]))[..., None]
    grid = mesh.rings(values)
    return (1.0 - w) * grid[lo] + w * grid[hi]
