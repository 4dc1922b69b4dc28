"""Suites whose invariants are typed errors, run under ``python -O``.

``-O`` strips ``assert`` statements, so any invariant of the library that
still rested on one would silently stop being checked. No check in the
library is an ``assert``: those on the Dirichlet path, in ``cyclotomic``,
``realization`` (the tame closed forms and point counts, whose oracle
tests against the Smith route and the determinant are in
``test_w_precision.py``), ``validate``, ``flasque_resolution``, ``generating_set``,
``induction``, ``exact``, ``span_coordinates``, ``kernel_basis``,
``check-shapiro``, the manifest's options check and the entry points'
refusal of ``None`` and lists (``test_realization.py``) are typed errors
or explicit checks; this runs their tests with asserts off. The intmat
suite, whose kernels and Smith valuations the lattice and cohomology
suites read, runs once, with the groups and exact suites.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _passes_under_python_O(*paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *paths],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout


def test_dirichlet_suite_passes_under_python_O():
    _passes_under_python_O("tests/test_dirichlet.py", "tests/test_dirichlet_oracles.py",
                           "tests/test_cyclotomic.py", "tests/test_realization.py",
                           "tests/test_w_precision.py")


def test_lattice_and_cohomology_suites_pass_under_python_O():
    _passes_under_python_O("tests/test_lattices.py", "tests/test_cohomology.py",
                           "tests/test_induction.py")


def test_intmat_and_groups_suites_pass_under_python_O():
    _passes_under_python_O("tests/test_intmat.py", "tests/test_groups.py",
                           "tests/test_exact.py")


def test_engine_and_manifest_suites_pass_under_python_O():
    _passes_under_python_O("tests/test_engine.py", "tests/test_manifest_cli.py")
