"""The Dirichlet suite and its oracles under ``python -O``.

``-O`` strips ``assert`` statements, so any invariant of the library that
still rested on one would silently stop being checked. The checks on the
Dirichlet path are typed errors; this runs their tests with asserts off.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_dirichlet_suite_passes_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_dirichlet.py", "tests/test_dirichlet_oracles.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout
