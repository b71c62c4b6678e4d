"""Mesh cases of parametrized tests, as the ``args, kw`` of one
:func:`lingrowth.mesh.build_polar_mesh` call."""


def case(ring_radii, n_theta):
    """The arguments of ``build_polar_mesh(ring_radii, n_theta=n_theta)``."""
    return (ring_radii,), {"n_theta": n_theta}
