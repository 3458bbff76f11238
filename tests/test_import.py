"""Importing the package again releases the previous import.

Re-importing inside the test process would leave other test modules holding
classes that ``isinstance`` no longer matches, so the import runs in a
subprocess.  A module-level ``typing.Union[...]`` alias is cached by
``typing`` together with its argument classes, and through them every
earlier import's module dicts and functions stay alive; the benchmark
imports the package once per set-up.
"""

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
