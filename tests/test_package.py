"""The installed package: importing it needs nothing but the standard library."""

import os
import subprocess
import sys

import legdual


def test_import_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(legdual.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, legdual; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
