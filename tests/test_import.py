"""Importing the package again releases the previous import, and each
module uses every name it imports.

Re-importing inside the test process would leave other test modules holding
classes that ``isinstance`` no longer matches, so the import runs in a
subprocess.  A module-level ``typing.Union[...]`` alias is cached by
``typing`` together with its argument classes, and through them every
earlier import's module dicts and functions stay alive; the benchmark
imports the package once per set-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REIMPORT = """
import gc, sys, weakref
import nondegen
from nondegen import functions, geometry, linalg, simplex
refs = [weakref.ref(c) for c in (simplex.Optimal, geometry.Interior,
                                 functions.Nondegenerate, linalg.UniqueSolution)]
del nondegen, functions, geometry, linalg, simplex
for name in [n for n in sys.modules if n == "nondegen" or n.startswith("nondegen.")]:
    del sys.modules[name]
import nondegen
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_a_second_import_releases_the_first():
    out = subprocess.run(
        [sys.executable, "-c", REIMPORT], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


def _unused_imports(source: str):
    """The names that ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_the_unused_import_check_sees_each_import_form():
    source = "from __future__ import annotations\nimport os.path\nfrom m import a, b as c\nc(a)\n"
    assert _unused_imports(source) == ["os"]


def test_no_module_imports_a_name_it_never_uses():
    """``__init__.py`` is left out: its imports are the package's re-exports."""
    unused = {
        path.name: names
        for path in sorted((SRC / "nondegen").glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
