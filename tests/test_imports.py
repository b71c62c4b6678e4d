"""``import lingrowth`` loads no scipy beyond the scipy.linalg it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lingrowth

UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.special")


def test_import_loads_no_unused_scipy_subpackage():
    """In a fresh interpreter, as the console script starts: the package
    and its CLI module.  CI repeats this against the installed package."""
    code = ("import json, sys, lingrowth, lingrowth.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(lingrowth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, check=True, timeout=120)
    loaded = json.loads(proc.stdout)
    assert [name for name in UNUSED if name in loaded] == []
    assert "scipy.linalg" in loaded
