"""Structured triangulations of disks and annuli in polar coordinates.

Nodes are laid out on concentric circles with equally spaced angles
(radii are equally spaced too, apart from an optional geometric boundary
layer at the inner circle), so every boundary node sits exactly on its
circle (up to one ulp of cos/sin).  Each quadrilateral cell is split
into two triangles along the same diagonal, which keeps the mesh
invariant under rotation by one angular step -- a property the solver
tests lean on.

Node ordering is ring-major: index = ring * n_theta + column for annuli;
a disk additionally owns node 0 at the center, followed by the rings of
positive radius.  Other modules never spell this layout out: they move a
field between nodal vectors and (ring, column) grids through
:meth:`PolarMesh.rings` and :meth:`PolarMesh.from_rings`.

Triangles are numbered in the same order: a disk's n_theta center-fan
triangles first, the one of column j being j, then the cells between
consecutive circles, ring by ring and column by column within a ring,
two triangles each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class NodeTag(IntEnum):
    INTERIOR = 0
    INNER = 1
    OUTER = 2


@dataclass(frozen=True, eq=False)
class PolarMesh:
    """Immutable triangle mesh of a disk or annulus.

    Attributes
    ----------
    n_r : number of radial cell layers (including any graded ones).
    n_theta : number of angular sectors.
    nodes : (N, 2) float array of vertex coordinates.
    triangles : (M, 3) int array of positively oriented vertex triples.
    node_tags : (N,) int array of NodeTag values.
    ring_radii : radii of the node circles, ascending; a disk's center
        counts as a ring of radius 0 holding a single node.
    areas : (M,) triangle areas.
    grads : (2, 3, M) gradients of the three nodal hat functions on each
        triangle, component-major: ``grads[c, k]`` is the c-th component
        of the gradient of the hat at vertex k, one entry per triangle, so
        assembly runs as arithmetic on whole length-M arrays.
    """

    r_in: float
    r_out: float
    n_r: int
    n_theta: int
    nodes: np.ndarray
    triangles: np.ndarray
    node_tags: np.ndarray
    ring_radii: np.ndarray
    areas: np.ndarray
    grads: np.ndarray

    # -- structure queries ------------------------------------------------

    @property
    def is_disk(self) -> bool:
        return self.r_in == 0.0

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def area_total(self) -> float:
        return float(np.sum(self.areas))

    @property
    def h_radial(self) -> float:
        """Largest radial spacing (the bulk spacing for graded meshes)."""
        return float(np.max(np.diff(self.ring_radii)))

    @property
    def h_max(self) -> float:
        """Largest element diameter (the mesh size of interpolation theory)."""
        corners = self.nodes[self.triangles]
        edges = corners - np.roll(corners, 1, axis=1)
        return float(np.sqrt(np.max(np.sum(edges * edges, axis=2))))

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
        return np.hypot(self.nodes[:, 0], self.nodes[:, 1])

    def node_angles(self) -> np.ndarray:
        return np.arctan2(self.nodes[:, 1], self.nodes[:, 0])

    def node_index(self, ring: int, col: int) -> int:
        """Index of the node on circle ``ring`` (0-based, ascending radius)
        at angular column ``col``."""
        col = col % self.n_theta
        if self.is_disk:
            if ring == 0:
                return 0
            return 1 + (ring - 1) * self.n_theta + col
        return ring * self.n_theta + col

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


def build_polar_mesh(r_in: float, r_out: float, n_r: int,
                     n_theta: int, *, inner_layers: int = 0) -> PolarMesh:
    """Triangulate the annulus r_in <= |x| <= r_out (a disk when r_in = 0).

    Parameters
    ----------
    r_in, r_out : inner and outer radii, 0 <= r_in < r_out.
    n_r : number of radial cell layers, >= 3.
    n_theta : number of angular sectors, >= 3.
    inner_layers : optional boundary-layer grading for annuli.  The first
        radial cell is subdivided this many times by repeated halving
        toward the inner circle, so the innermost cell has width
        h / 2**inner_layers while the bulk spacing stays h.  Use it when
        the solution has a steep gradient at the inner boundary; the
        reported ``h_radial`` remains the bulk spacing.

    Returns
    -------
    PolarMesh with one node ring per radius for an annulus; a disk swaps
    the degenerate inner circle for a single center node.
    """
    if not (0.0 <= r_in < r_out):
        raise ValueError(f"need 0 <= r_in < r_out, got r_in={r_in}, r_out={r_out}")
    if n_r < 3 or n_theta < 3:
        raise ValueError(f"need n_r >= 3 and n_theta >= 3, got {n_r}, {n_theta}")
    if inner_layers < 0:
        raise ValueError(f"inner_layers must be >= 0, got {inner_layers}")
    if inner_layers > 0 and r_in == 0.0:
        raise ValueError("inner boundary-layer grading needs an annulus")

    radii = np.linspace(r_in, r_out, n_r + 1)
    if inner_layers > 0:
        h0 = radii[1] - radii[0]
        splits = r_in + h0 * 0.5 ** np.arange(inner_layers, 0, -1)
        radii = np.concatenate([[r_in], splits, radii[1:]])
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    is_disk = r_in == 0.0
    # ring-major numbering: circle k starts at node first + k * n_theta,
    # after a disk's center node at the origin
    first = 1 if is_disk else 0
    circle_radii = radii[first:]
    nodes = np.zeros((first + len(circle_radii) * n_theta, 2))
    nodes[first:, 0] = np.multiply.outer(circle_radii, cos_t).ravel()
    nodes[first:, 1] = np.multiply.outer(circle_radii, sin_t).ravel()

    n_cells = len(radii) - 1

    # each cell between circles k and k + 1 splits along its
    # (k, j) -- (k + 1, j + 1) diagonal
    cols = np.arange(n_theta, dtype=np.int64)
    nxt = (cols + 1) % n_theta
    starts = first + n_theta * np.arange(len(circle_radii) - 1,
                                         dtype=np.int64)[:, None]
    n00, n01 = starts + cols, starts + nxt
    n10, n11 = n00 + n_theta, n01 + n_theta
    triangles = np.stack([n00, n10, n11, n00, n11, n01], axis=-1).reshape(-1, 3)
    if is_disk:
        fan = np.column_stack([np.zeros(n_theta, dtype=np.int64),
                               first + cols, first + nxt])
        triangles = np.vstack([fan, triangles])

    tags = np.full(len(nodes), NodeTag.INTERIOR, dtype=np.int8)
    if not is_disk:
        tags[:n_theta] = NodeTag.INNER
    tags[-n_theta:] = NodeTag.OUTER

    areas, grads = _triangle_geometry(nodes, triangles)
    if np.any(areas <= 0.0):
        raise ValueError("mesh construction produced a non-positive triangle")

    return PolarMesh(
        r_in=float(r_in), r_out=float(r_out), n_r=n_cells, n_theta=int(n_theta),
        nodes=nodes, triangles=triangles, node_tags=tags,
        ring_radii=radii, areas=areas, grads=grads,
    )


def one_column(mesh: PolarMesh) -> PolarMesh:
    """The mesh of one angular column, on which a field constant on each
    ring of ``mesh`` has one unknown per ring: node k is ring k, at angle
    0, with the ring's boundary tag (a disk's center is its ring 0).

    Its triangles are those of column 0, the ones with every vertex in
    column 0 or 1, re-indexed by ring, so two vertices of each share a
    node.  Their hat gradients are copied and their areas scaled by
    n_theta.  ``mesh`` maps onto itself under rotation by one angular
    step, so a ring-constant field has exactly n_theta times the column's
    energy, and its energy gradient summed over each ring is n_theta times
    the column's.  The column has n_theta = 1, so its :meth:`PolarMesh.rings`
    grid is one value per ring.

    Those triangles are picked by number, without reading the columns of
    all 3M vertices (see the module docstring for the numbering): a disk's
    fan triangle 0, and the first two triangles of each cell ring.
    """
    n_rings = len(mesh.ring_radii)
    ring = mesh.from_rings(np.arange(n_rings)[:, None])
    fan = mesh.n_theta if mesh.is_disk else 0
    cells = np.arange(fan, mesh.num_triangles, 2 * mesh.n_theta)
    in_column = np.column_stack([cells, cells + 1]).ravel()
    if mesh.is_disk:
        in_column = np.concatenate([[0], in_column])
    return PolarMesh(
        r_in=mesh.r_in, r_out=mesh.r_out, n_r=mesh.n_r, n_theta=1,
        nodes=np.column_stack([mesh.ring_radii, np.zeros(n_rings)]),
        triangles=ring[mesh.triangles[in_column]],
        node_tags=mesh.rings(mesh.node_tags)[:, 0].copy(),
        ring_radii=mesh.ring_radii,
        areas=mesh.n_theta * mesh.areas[in_column],
        grads=mesh.grads[:, :, in_column],
    )


def _triangle_geometry(nodes, triangles):
    """Signed areas and hat-function gradients, vectorized over triangles.

    Each corner coordinate is one length-M gather from a contiguous x or y
    array through a contiguous column of vertex indices.  Gathering (M, 2)
    rows of ``nodes`` instead makes the same IEEE operations on the same
    operands, so gives the same bytes, but took over twice as long at
    65,536 triangles on a 2-core x86 machine."""
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


def same_mesh(m1: PolarMesh, m2: PolarMesh) -> bool:
    """True when two meshes triangulate the same nodes identically."""
    if m1 is m2:
        return True
    return (m1.nodes.shape == m2.nodes.shape
            and np.array_equal(m1.triangles, m2.triangles)
            and np.array_equal(m1.node_tags, m2.node_tags)
            and bool(np.all(np.abs(m1.nodes - m2.nodes) <= 1e-14)))


def radial_values(mesh: PolarMesh, values: np.ndarray, r) -> np.ndarray:
    """Evaluate a nodal field at radius r for every angular column: an
    (n_theta,) row for a scalar r, one such row per radius for an array.

    Along each ray of constant angle the mesh edges are radial segments,
    so the piecewise-affine field restricted to a ray is piecewise linear
    in the radius; linear interpolation between the bracketing circles is
    therefore exact for P1 fields.
    """
    radii = mesh.ring_radii
    r = np.asarray(r, dtype=float)
    if not np.all((radii[0] - 1e-12 <= r) & (r <= radii[-1] + 1e-12)):
        raise ValueError(f"radius {r} outside mesh range [{radii[0]}, {radii[-1]}]")
    r = np.clip(r, radii[0], radii[-1])
    hi = np.clip(np.searchsorted(radii, r), 1, len(radii) - 1)
    lo = hi - 1
    w = ((r - radii[lo]) / (radii[hi] - radii[lo]))[..., None]
    grid = mesh.rings(values)
    return (1.0 - w) * grid[lo] + w * grid[hi]
