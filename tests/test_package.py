"""The installed package: importing it needs nothing but the standard library."""

import ast
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


def test_no_module_imports_mpmath():
    pkg = os.path.dirname(os.path.abspath(legdual.__file__))
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "mpmath" for m in mods), name
