"""Polar mesh construction: counts, geometry, tags, interpolation."""

import math

import numpy as np
import pytest

from lingrowth.density import flux
from lingrowth.experiments import RemovabilityConfig, _graded_radii
from lingrowth.mesh import (
    NodeTag,
    _triangle_geometry,
    build_polar_mesh,
    one_column,
    radial_values,
    uniform_shape,
)
from lingrowth.solver import (_nodal_gradient, _triangle_gradients, energy,
                              solve_dirichlet)
from meshes import case
from rotation import rotate_columns


def node_index(mesh, ring, col):
    """Index of the node on circle ``ring`` (0-based, ascending radius) at
    angular column ``col``, as the module docstring lays them out."""
    col = col % mesh.n_theta
    if mesh.is_disk:
        return 0 if ring == 0 else 1 + (ring - 1) * mesh.n_theta + col
    return ring * mesh.n_theta + col


def triangles(mesh):
    """(M, 3) vertex triples of every triangle in the numbering of the
    module docstring (a disk's placeholder row left out)."""
    rows = mesh.row_triangles()
    if mesh.is_disk:
        rows = np.delete(rows, 1, axis=0)
    return rows.reshape(-1, 3)


def cartesian_geometry(mesh):
    """Areas and hat gradients of every triangle, from its own corners."""
    return _triangle_geometry(mesh.nodes, triangles(mesh))


def area_total(mesh):
    return float(np.sum(cartesian_geometry(mesh)[0]))


def h_max(mesh):
    """Largest element diameter (the mesh size of interpolation theory)."""
    corners = mesh.nodes[triangles(mesh)]
    edges = corners - np.roll(corners, 1, axis=1)
    return float(np.sqrt(np.max(np.sum(edges * edges, axis=2))))


def column_rows(mesh):
    """Column 0's triangles, one per row, and the mask of the rows that
    are triangles (all but a disk's placeholder row 1)."""
    rows = mesh.row_triangles()[:, 0]
    real = np.ones(len(rows), dtype=bool)
    real[1] = not mesh.is_disk
    return rows, real


def test_annulus_counts():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    assert m.num_nodes == 5 * 8 == 40
    assert m.num_triangles == 2 * 4 * 8 == 64


def test_disk_counts():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    assert m.num_nodes == 4 * 8 + 1 == 33
    assert m.num_triangles == 8 + 2 * 3 * 8 == 56


def test_boundary_nodes_sit_on_circles():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 6), 12)
    r = m.node_radii()
    assert np.max(np.abs(r[m.inner_nodes()] - 0.5)) < 1e-15
    assert np.max(np.abs(r[m.outer_nodes()] - 1.0)) < 1e-15


def test_disk_has_no_inner_boundary():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    assert len(m.inner_nodes()) == 0
    assert len(m.outer_nodes()) == 8
    assert m.node_tags[0] == NodeTag.INTERIOR  # center node


def test_positive_triangle_areas():
    for args in ((np.linspace(0.5, 1.0, 5), 8), (np.linspace(0.0, 1.0, 7), 16),
                 (np.linspace(1.5, 3.0, 6), 9)):
        m = build_polar_mesh(*args)
        assert np.all(cartesian_geometry(m)[0] > 0.0)
        _, real = column_rows(m)
        assert np.all(m.areas[real] > 0.0)
        assert np.all(m.areas[~real] == 0.0)
        assert np.all(m.grads[..., ~real] == 0.0)


def _row_gather_geometry(nodes, triangles):
    """Reference geometry: the corners gathered as (M, 2) rows of the
    nodes, the edge vectors taken row by row."""
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    v1 = p1 - p0
    v2 = p2 - p0
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    grads = np.empty((2, 3, len(triangles)))
    grads[0, 1] = v2[:, 1] / det
    grads[1, 1] = -v2[:, 0] / det
    grads[0, 2] = -v1[:, 1] / det
    grads[1, 2] = v1[:, 0] / det
    grads[:, 0] = -(grads[:, 1] + grads[:, 2])
    return 0.5 * det, grads


# a log-polar annulus from r = 1e-8 to 1, 32 rings per unit of log r
_LOG_CELLS = round(32 * math.log(1e8))
LOG_POLAR = case(1e-8 * 1e8 ** (np.arange(_LOG_CELLS + 1) / _LOG_CELLS), 64)

# a disk, a plain annulus, a graded annulus, the finest level of the
# catenoid refinement study and the log-polar annulus
GEOMETRY_MESHES = [case(np.linspace(0.0, 1.0, 6), 7),
                   case(np.linspace(0.5, 1.0, 5), 8),
                   case(_graded_radii(0.05, 1.0, 12, 6), 16),
                   case(np.linspace(1.5, 3.0, 129), 256), LOG_POLAR]


@pytest.mark.parametrize("args, kw", GEOMETRY_MESHES)
def test_triangle_geometry_matches_row_gathers_bytewise(args, kw):
    # the stored geometry is column 0's, computed from the same node floats
    m = build_polar_mesh(*args, **kw)
    rows, real = column_rows(m)
    areas, grads = _row_gather_geometry(m.nodes, rows[real])
    assert m.areas.shape == real.shape and m.grads.shape == (2, 3, len(real))
    assert m.areas[real].tobytes() == areas.tobytes()
    assert m.grads[..., real].tobytes() == grads.tobytes()


@pytest.mark.parametrize("args, kw", GEOMETRY_MESHES)
def test_every_column_is_column_0_rotated(args, kw):
    # every column's Cartesian areas are column 0's, and its hat gradients
    # column 0's rotated by 2 pi j / n_theta, to rounding: an edge of
    # length h is the difference of coordinates up to the outer radius
    # r_out, so both are exact to about eps r_out / h (measured: at most
    # 1.6 times that)
    m = build_polar_mesh(*args, **kw)
    areas, grads = cartesian_geometry(m)
    rows, real = column_rows(m)
    shape = (np.count_nonzero(real), m.n_theta)
    areas, grads = areas.reshape(shape), grads.reshape(2, 3, *shape)
    corners = m.nodes[rows[real]]
    h = np.sqrt(np.min(np.sum((corners - np.roll(corners, 1, axis=1)) ** 2,
                              axis=2), axis=1))
    rounding = 4.0 * np.finfo(float).eps * m.ring_radii[-1] / h[:, None]
    want = m.areas[real][:, None]
    assert np.all(np.abs(areas - want) <= rounding * want)
    theta = 2.0 * math.pi * np.arange(m.n_theta) / m.n_theta
    c, s = np.cos(theta), np.sin(theta)
    g0, g1 = m.grads[..., real, None]
    rotated = np.stack([c * g0 - s * g1, s * g0 + c * g1])
    scale = np.max(np.abs(m.grads[..., real]), axis=(0, 1))[:, None]
    assert np.all(np.abs(grads - rotated) <= rounding * scale)


def test_triangle_geometry_of_any_triangles_matches_row_gathers(rng):
    # clockwise, degenerate and repeated-vertex triangles included, whose
    # areas are negative or zero and whose gradients are inf or nan
    nodes = rng.normal(size=(30, 2))
    nodes[7] = nodes[3]
    triangles = rng.integers(0, 30, size=(200, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _triangle_geometry(nodes, triangles)
        want = _row_gather_geometry(nodes, triangles)
    assert np.any(want[0] < 0.0) and np.any(want[0] == 0.0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_mesh_holds_no_per_triangle_array():
    # the geometry is column 0's; nodes and triangles are computed on read
    m = build_polar_mesh(np.linspace(1.5, 3.0, 129), 256)
    held = [v for v in vars(m).values() if isinstance(v, np.ndarray)]
    assert held and all(a.size < m.num_triangles for a in held)


def test_non_positive_triangle_is_rejected():
    # the radii ascend, but the triangle areas, of order r^2, underflow to 0
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-positive triangle"):
        build_polar_mesh(1e-170 * np.arange(1.0, 5.0), 8)


def test_total_area_converges_to_annulus():
    exact = math.pi * (1.0 - 0.25)
    m = build_polar_mesh(np.linspace(0.5, 1.0, 17), 96)
    assert abs(area_total(m) - exact) / exact < 1e-3
    # polygonal deficit shrinks at second order in the angular step
    coarse = build_polar_mesh(np.linspace(0.5, 1.0, 17), 24)
    fine = build_polar_mesh(np.linspace(0.5, 1.0, 17), 48)
    assert (exact - area_total(coarse)) / (exact - area_total(fine)) == \
        pytest.approx(4.0, rel=0.05)


def test_total_area_converges_to_disk():
    exact = math.pi
    m = build_polar_mesh(np.linspace(0.0, 1.0, 17), 96)
    assert abs(area_total(m) - exact) / exact < 1e-3


def _loop_triangles(mesh):
    """Reference triangulation, one triangle at a time: each cell (ring i,
    column j) split along its (i, j) -- (i+1, j+1) diagonal, cell ring by
    cell ring, the kind-0 triangles of a cell ring before its kind-1 ones;
    a disk's cell ring 0 is its center fan, of kind 0 only."""
    def idx(ring, col):
        return node_index(mesh, ring, col)
    tris = []
    for i in range(len(mesh.ring_radii) - 1):
        for j in range(mesh.n_theta):
            tris.append((idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)))
        if i == 0 and mesh.is_disk:
            continue
        for j in range(mesh.n_theta):
            tris.append((idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)))
    return np.asarray(tris, dtype=np.int64)


# a disk, a plain annulus, a graded annulus and the log-polar annulus
RING_MESHES = [case(np.linspace(0.0, 1.0, 6), 7),
               case(np.linspace(0.5, 1.0, 5), 8),
               case(_graded_radii(0.2, 1.0, 6, 3), 12), LOG_POLAR]


@pytest.mark.parametrize("args, kw", RING_MESHES)
def test_triangles_match_cell_by_cell_construction(args, kw):
    m = build_polar_mesh(*args, **kw)
    np.testing.assert_array_equal(triangles(m), _loop_triangles(m))
    assert m.row_triangles().dtype == np.int64
    assert len(triangles(m)) == m.num_triangles


@pytest.mark.parametrize("bad", [
    (np.linspace(-0.1, 1.0, 5), 8),     # a negative first radius
    (np.linspace(1.0, 1.0, 5), 8),      # all radii equal
    (np.linspace(1.5, 1.0, 5), 8),      # descending
    (np.linspace(0.5, 1.0, 3), 8),      # 3 radii, 2 cells
    (np.linspace(0.5, 1.0, 5), 2),      # 2 sectors
    ([0.5, 0.7, 0.6, 1.0], 8),          # descending once
    ([0.5, 0.6, 0.6, 1.0], 8),          # a repeated radius
    ([0.5, 0.6, float("nan"), 1.0], 8),
    ([0.5, 0.6, 0.7, float("inf")], 8),
    ([-0.5, 0.6, 0.7, 1.0], 8),         # a negative first radius
    ([0.5, 0.6, 0.7], 8),               # only 3 radii
    (np.linspace(0.5, 1.0, 8).reshape(2, 4), 8),
])
def test_degenerate_parameters_rejected(bad):
    with pytest.raises(ValueError):
        build_polar_mesh(*bad)


@pytest.mark.parametrize("radii", [
    ["0", "1", "2", "3"], [0, True, 2, 3], (0.5, np.bool_(True), 2.0, 3.0),
    [0.5, 0.7, [0.8], 1.0], np.array(["0.5", "0.6", "0.7", "1.0"]),
    [0.5, 0.7, 0.6, 1.0], "0.5 0.6 0.7 1.0"],
    ids=["strings", "bool", "numpy-bool", "nested", "string-array",
         "descending", "string"])
def test_ring_radii_that_break_the_rule_are_named(radii):
    # the strings and the bools were cast by numpy and built a mesh
    with pytest.raises(ValueError, match="^ring_radii: "):
        build_polar_mesh(radii, 8)


def test_ring_radii_of_ints_floats_and_numpy_numbers_make_one_mesh():
    want = build_polar_mesh(np.array([0.0, 1.0, 2.0, 3.0]), 8)
    for radii in ([0, 1, 2, 3], (0.0, 1, np.float32(2.0), np.int64(3)),
                  np.arange(4), np.arange(4, dtype=np.float32)):
        mesh = build_polar_mesh(radii, 8)
        assert mesh.ring_radii.dtype == np.float64
        for name in ("ring_radii", "areas", "grads"):
            assert np.array_equal(getattr(mesh, name), getattr(want, name))


def test_mesh_keeps_its_own_copy_of_the_radii():
    radii = np.linspace(0.5, 1.0, 5)
    mesh = build_polar_mesh(radii, 8)
    radii[:] = 0.0
    assert np.array_equal(mesh.ring_radii, np.linspace(0.5, 1.0, 5))


@pytest.mark.parametrize("n_theta", [3.7, 3.0, "8", True, np.bool_(True), 2,
                                     None])
def test_n_theta_that_is_no_integer_of_at_least_3_is_named(n_theta):
    # 3.7, 3.0 and "8" ended in numpy's "expected a sequence of integers"
    with pytest.raises(ValueError, match="^n_theta: "):
        build_polar_mesh(np.linspace(0.5, 1.0, 5), n_theta)


def test_numpy_integer_n_theta_makes_the_same_mesh():
    radii = np.linspace(0.5, 1.0, 5)
    mesh = build_polar_mesh(radii, np.int64(8))
    want = build_polar_mesh(radii, 8)
    assert type(mesh.n_theta) is int and mesh.n_theta == want.n_theta
    for name in ("node_tags", "ring_radii", "areas", "grads"):
        assert np.array_equal(getattr(mesh, name), getattr(want, name))


@pytest.mark.parametrize("r_in, r_out, n_r, n_theta, key", [
    (0.5, 1.0, 2, 8, "'n_r'"),
    (0.5, 1.0, 8.0, 8, "'n_r'"),
    (0.5, 1.0, 8, 2, "'n_theta'"),
    (0.5, 1.0, 8, True, "'n_theta'"),
    (-0.5, 1.0, 8, 8, "'r_in'"),
    (float("nan"), 1.0, 8, 8, "'r_in'"),
    (1.0, 0.5, 8, 8, "'r_out'"),
    (0.5, 0.5, 8, 8, "'r_out'"),
    (0.5, "1", 8, 8, "'r_out'"),
])
def test_uniform_shape_names_the_bad_key(r_in, r_out, n_r, n_theta, key):
    with pytest.raises(ValueError, match=f"^mesh config key {key}: "):
        uniform_shape(r_in, r_out, n_r, n_theta, "mesh config")


def test_uniform_shape_is_linspace():
    radii, n_theta = uniform_shape(0, 1.5, 3, 3, "mesh config")
    assert radii.tobytes() == np.linspace(0.0, 1.5, 4).tobytes()
    assert n_theta == 3
    assert build_polar_mesh(radii, n_theta).is_disk


def test_ring_major_indexing():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    assert node_index(m, 0, 0) == 0
    assert node_index(m, 2, 3) == 19
    theta = 2.0 * math.pi * 3 / 8
    r = m.ring_radii[2]
    np.testing.assert_allclose(m.nodes[19], [r * math.cos(theta),
                                             r * math.sin(theta)], atol=1e-15)


def test_disk_center_indexing():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    assert node_index(m, 0, 0) == 0
    assert node_index(m, 1, 0) == 1
    assert node_index(m, 2, 5) == 1 + 8 + 5
    np.testing.assert_array_equal(m.nodes[0], [0.0, 0.0])


def test_ring_values_broadcasts_center():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    vals = np.arange(m.num_nodes, dtype=float)
    assert np.all(m.rings(vals)[0] == 0.0)
    np.testing.assert_array_equal(m.rings(vals)[2], vals[9:17])


@pytest.mark.parametrize("args, kw", RING_MESHES)
def test_rings_follow_node_index(args, kw):
    m = build_polar_mesh(*args, **kw)
    grid = m.rings(np.arange(m.num_nodes))
    assert grid.shape == (len(m.ring_radii), m.n_theta)
    for k in range(len(m.ring_radii)):
        for j in range(m.n_theta):
            assert grid[k, j] == node_index(m, k, j)


@pytest.mark.parametrize("args, kw", RING_MESHES)
def test_from_rings_inverts_rings(args, kw, rng):
    m = build_polar_mesh(*args, **kw)
    vals = rng.normal(size=m.num_nodes)
    back = m.from_rings(m.rings(vals))
    assert back.shape == vals.shape
    assert np.array_equal(back, vals)


def test_from_rings_broadcasts_one_value_per_ring():
    m = build_polar_mesh(_graded_radii(0.2, 1.0, 6, 3), 12)
    c = np.linspace(-1.0, 2.0, len(m.ring_radii))
    np.testing.assert_array_equal(m.from_rings(c[:, None]),
                                  np.repeat(c, m.n_theta))
    disk = build_polar_mesh(np.linspace(0.0, 1.0, 6), 7)
    c = np.linspace(-1.0, 2.0, len(disk.ring_radii))
    np.testing.assert_array_equal(
        disk.from_rings(c[:, None]),
        np.concatenate(([c[0]], np.repeat(c[1:], disk.n_theta))))


def test_from_rings_center_takes_first_entry():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    grid = np.arange(len(m.ring_radii) * m.n_theta, dtype=float)
    vals = m.from_rings(grid.reshape(-1, m.n_theta))
    assert vals[0] == 0.0
    np.testing.assert_array_equal(vals[1:], grid[m.n_theta:])


def test_rotate_columns_by_full_turn_is_identity_on_disk(rng):
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    vals = rng.normal(size=m.num_nodes)
    assert np.array_equal(rotate_columns(m, vals, m.n_theta), vals)
    rot = rotate_columns(m, vals, 3)
    assert rot[0] == vals[0]
    assert np.array_equal(rotate_columns(m, rot, -3), vals)


def test_rotate_columns_moves_nodes_one_step():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    vals = m.nodes[:, 0].copy()  # x-coordinate is rotation-covariant
    rot = rotate_columns(m, vals, 1)
    step = 2.0 * math.pi / 8
    # the rotated field at angle theta carries the value from theta - step
    want = np.cos(np.arctan2(m.nodes[:, 1], m.nodes[:, 0]) - step) \
        * m.node_radii()
    np.testing.assert_allclose(rot, want, atol=1e-14)


def test_radial_values_exact_on_rings():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    vals = np.arange(m.num_nodes, dtype=float)
    for ring, r in enumerate(m.ring_radii):
        np.testing.assert_array_equal(radial_values(m, vals, float(r)),
                                      m.rings(vals)[ring])


def test_radial_values_linear_between_rings():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    vals = m.node_radii() ** 1  # linear in radius along each radial line
    mid = 0.5 * (m.ring_radii[1] + m.ring_radii[2])
    np.testing.assert_allclose(radial_values(m, vals, float(mid)),
                               np.full(8, mid), atol=1e-14)


def test_radial_values_disk_center():
    m = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    vals = np.zeros(m.num_nodes)
    vals[0] = 7.0
    np.testing.assert_array_equal(radial_values(m, vals, 0.0), np.full(8, 7.0))


def test_radial_values_out_of_range():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    vals = np.zeros(m.num_nodes)
    with pytest.raises(ValueError):
        radial_values(m, vals, 0.4)
    with pytest.raises(ValueError):
        radial_values(m, vals, 1.1)
    with pytest.raises(ValueError):
        radial_values(m, vals, float("nan"))
    for bad in ([0.6, 0.4], [0.6, 1.1], [0.6, float("nan")]):
        with pytest.raises(ValueError):
            radial_values(m, vals, np.array(bad))


@pytest.mark.parametrize("r", [
    "0.7", True, np.bool_(True), None, [0.6, "0.8"], (0.6, True),
    [[0.6, 0.8]], np.array([[0.6, 0.8]]), 0.4, [0.6, 1.1]],
    ids=["string", "bool", "numpy-bool", "none", "list-string", "tuple-bool",
         "nested", "2d-array", "below", "list-above"])
def test_radius_that_is_no_real_in_range_is_named(r):
    # the strings and the bools were cast by numpy and evaluated
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    with pytest.raises(ValueError, match="^r: "):
        radial_values(m, np.zeros(m.num_nodes), r)


def test_radius_list_tuple_and_numpy_scalar_match_the_array():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    vals = np.arange(m.num_nodes, dtype=float)
    want = radial_values(m, vals, np.array([0.6, 0.8]))
    assert np.array_equal(radial_values(m, vals, [0.6, 0.8]), want)
    assert np.array_equal(radial_values(m, vals, (0.6, 0.8)), want)
    assert np.array_equal(radial_values(m, vals, np.float32(0.75)),
                          radial_values(m, vals, float(np.float32(0.75))))


@pytest.mark.parametrize("args, kw", RING_MESHES)
def test_radial_values_array_matches_scalar_calls(args, kw, rng):
    m = build_polar_mesh(*args, **kw)
    vals = rng.normal(size=m.num_nodes)
    radii = m.ring_radii
    # every ring (both end rings and a disk's center included), the
    # midpoints between them, and points a hair inside either end
    r = np.concatenate([radii, 0.5 * (radii[:-1] + radii[1:]),
                        [radii[0] + 1e-13, radii[-1] - 1e-13]])
    rows = radial_values(m, vals, r)
    assert rows.shape == (len(r), m.n_theta)
    want = np.stack([radial_values(m, vals, float(x)) for x in r])
    assert np.array_equal(rows, want)
    np.testing.assert_array_equal(rows[:len(radii)], m.rings(vals))


def test_h_radial_uniform():
    m = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    assert m.h_radial == pytest.approx(0.125, abs=1e-15)
    assert h_max(m) > m.h_radial  # outer arc dominates at this aspect ratio


# -- graded inner boundary layer ---------------------------------------------


def test_inner_layers_geometry():
    m = build_polar_mesh(_graded_radii(0.5, 1.0, 4, 3), 8)
    assert len(m.ring_radii) - 1 == 7
    d = np.diff(m.ring_radii)
    # geometric halving toward the inner circle, bulk spacing untouched
    np.testing.assert_allclose(
        d, [0.125 / 8, 0.125 / 8, 0.125 / 4, 0.125 / 2, 0.125, 0.125, 0.125],
        atol=1e-15)
    assert m.h_radial == pytest.approx(0.125, abs=1e-15)
    assert np.all(m.areas > 0.0)
    assert len(m.inner_nodes()) == 8 and len(m.outer_nodes()) == 8


def test_inner_layers_rejected_for_disk():
    # the removability annuli are graded: an epsilon of 0 would make one a
    # disk, and a negative count of layers no grading at all
    with pytest.raises(ValueError, match="positive"):
        RemovabilityConfig(density={"kind": "area"}, epsilons=(0.2, 0.0))
    with pytest.raises(ValueError, match="inner_layers"):
        RemovabilityConfig(density={"kind": "area"}, inner_layers=-1)


def test_graded_mesh_interpolation_still_exact():
    m = build_polar_mesh(_graded_radii(0.5, 1.0, 6, 4), 12)
    vals = 2.0 * m.node_radii() + 1.0
    r = 0.5 + 0.125 / 3.0  # inside the graded zone, off every ring
    np.testing.assert_allclose(radial_values(m, vals, r),
                               np.full(12, 2.0 * r + 1.0), atol=1e-13)


# -- one-column mesh of ring-constant fields ------------------------------------

COLUMN_MESHES = [
    case(_graded_radii(0.1, 1.0, 6, 3), 12),    # graded annulus
    case(np.linspace(0.0, 1.0, 6), 9),          # disk: the center is ring 0
]


@pytest.mark.parametrize("args, kw", COLUMN_MESHES)
def test_one_column_layout(args, kw):
    mesh = build_polar_mesh(*args, **kw)
    column = one_column(mesh)
    n_rings = len(mesh.ring_radii)
    assert column.n_theta == 1 and column.num_nodes == n_rings
    assert column.is_disk == mesh.is_disk
    assert np.array_equal(column.ring_radii, mesh.ring_radii)
    assert np.array_equal(column.node_radii(), mesh.ring_radii)
    assert np.array_equal(column.node_tags, mesh.node_tags[
        [node_index(mesh, k, 0) for k in range(n_rings)]])
    # two triangles per cell of the column, one fan triangle at a center
    assert column.num_triangles == 2 * (n_rings - 1) - mesh.is_disk
    # each triangle spans two neighbouring rings, two vertices on one
    rows = np.sort(triangles(column), axis=1)
    assert np.all(rows[:, 2] - rows[:, 0] == 1)
    assert np.all((rows[:, 1] == rows[:, 0]) | (rows[:, 1] == rows[:, 2]))
    np.testing.assert_allclose(np.sum(column.areas),
                               mesh.n_theta * np.sum(mesh.areas), rtol=1e-15)
    np.testing.assert_allclose(np.sum(column.areas), area_total(mesh),
                               rtol=1e-14)
    assert np.array_equal(column.rings(np.arange(n_rings)).ravel(),
                          np.arange(n_rings))


@pytest.mark.parametrize("args, kw", COLUMN_MESHES + GEOMETRY_MESHES
                         + [case(np.linspace(0.0, 1.0, 5), 3),
                            case(np.linspace(0.5, 1.0, 5), 3)])
def test_one_column_picks_the_column_triangles_bytewise(args, kw):
    # reference: the triangles with every vertex in column 0 or 1, found
    # by reading the column of all 3M vertices
    mesh = build_polar_mesh(*args, **kw)
    column = one_column(mesh)
    col = mesh.from_rings(np.arange(mesh.n_theta))
    in_column = np.all(col[triangles(mesh)] <= 1, axis=1)
    ring = mesh.from_rings(np.arange(len(mesh.ring_radii))[:, None])
    assert (triangles(column).tobytes()
            == ring[triangles(mesh)[in_column]].tobytes())
    # the same rows of geometry, which is that of those triangles
    areas, grads = _triangle_geometry(mesh.nodes,
                                      triangles(mesh)[in_column])
    _, real = column_rows(mesh)
    assert column.areas.tobytes() == (mesh.n_theta * mesh.areas).tobytes()
    assert column.areas[real].tobytes() == (mesh.n_theta * areas).tobytes()
    assert column.grads.tobytes() == mesh.grads.tobytes()
    assert column.grads[..., real].tobytes() == grads.tobytes()


@pytest.mark.parametrize("args, kw", COLUMN_MESHES)
@pytest.mark.parametrize("density", ["area", "mu3"])
def test_one_column_energy_and_gradient_of_ring_constant_fields(
        density, args, kw, request, rng):
    d = request.getfixturevalue(density)
    mesh = build_polar_mesh(*args, **kw)
    column = one_column(mesh)
    n_rings = len(mesh.ring_radii)
    ring = mesh.from_rings(np.arange(n_rings)[:, None])
    # both bounds are about four times the largest deviation over 800
    # random fields of sizes 1e-3 to 10 (3.6e-16 and 6.1e-16)
    for w in (np.sin(4.0 * mesh.ring_radii), rng.normal(size=n_rings)):
        u = mesh.from_rings(w[:, None])
        assert energy(d, column, w) == pytest.approx(energy(d, mesh, u),
                                                     rel=1.5e-15)
        full = _nodal_gradient(mesh, flux(d, _triangle_gradients(mesh, u)))
        want = np.bincount(ring, weights=full, minlength=n_rings)
        got = _nodal_gradient(column,
                              flux(d, _triangle_gradients(column, w)))
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=2.5e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("density", ["area", "mu2", "mu3"])
def test_one_column_solve_matches_the_full_solve(density, request):
    # ring-constant data have a ring-constant minimizer (it is unique and
    # the mesh is rotation invariant), so the column solves the same problem
    d = request.getfixturevalue(density)
    mesh = build_polar_mesh(_graded_radii(0.05, 1.0, 12, 3), 16)
    column = one_column(mesh)
    w = np.zeros(len(mesh.ring_radii))
    w[0], w[-1] = 1.0, 0.2
    full = solve_dirichlet(d, mesh, mesh.from_rings(w[:, None]))
    ring = solve_dirichlet(d, column, w)
    np.testing.assert_allclose(mesh.from_rings(column.rings(ring.values)),
                               full.values, rtol=0, atol=1e-9)
    assert abs(ring.iterations - full.iterations) <= 1
    assert ring.energy == pytest.approx(full.energy, rel=1e-12)
