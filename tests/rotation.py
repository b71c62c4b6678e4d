"""Rotation of nodal fields by whole angular steps, for invariance tests."""

import numpy as np


def rotate_columns(mesh, values, k):
    """Values of the function rotated by k angular steps: the value at
    column j of the result is the input value at column j - k."""
    return mesh.from_rings(np.roll(mesh.rings(values), k, axis=1))
