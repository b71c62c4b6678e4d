"""``import lingrowth`` loads no scipy, and neither does a solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lingrowth

# a disk's Dirichlet solve: a banded factor and solve for the start, then
# one for each Newton step
SOLVE = ("import numpy as np; "
         "from lingrowth import build_polar_mesh, make_area_density, "
         "normalize, solve_dirichlet; "
         "mesh = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8); "
         "assert solve_dirichlet(normalize(make_area_density()), mesh, "
         "mesh.nodes[:, 0] ** 2).iterations > 0; ")


def _scipy_modules_after(code):
    """scipy modules loaded in a fresh interpreter, as the console script
    starts (the package and its CLI module), after running ``code``."""
    code = ("import json, sys, lingrowth, lingrowth.cli; " + code
            + "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(lingrowth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, check=True, timeout=120)
    return [name for name in json.loads(proc.stdout)
            if name == "scipy" or name.startswith("scipy.")]


def test_import_loads_no_scipy():
    """CI repeats this against the installed package."""
    assert _scipy_modules_after("") == []


def test_solve_loads_no_scipy():
    # the banded LAPACK is looked up on first use, not at import
    assert _scipy_modules_after(SOLVE) == []
