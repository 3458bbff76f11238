#!/usr/bin/env python3
"""Seeded fuzz of the command line: every run ends with a documented exit code.

    python3 scripts/fuzz_cli.py [--runs 6000] [--seed 0]

Each run starts from one of a fixed set of valid invocations (a command, its
flags and a problem file), applies one or two seeded mutations to its flag
values, its problem-file lines and tokens and ``$GENERIC_NONDEGEN_ENUM_BOUND``,
and calls ``nondegen.cli.main`` in-process.  A run passes when ``main``
returns an exit code from 0 to 3 (4 reports a failed internal invariant,
a bug) and writes no traceback to stderr; an exception that escapes ``main``
fails the run.

A mutated token is a float, a ``bool``-like word, empty, huge (400 digits,
or more than ``int()`` converts), a signed, zero or malformed rational, or a
non-ASCII digit.  Lines and flags are dropped, duplicated, swapped or cut
short, rows made ragged, vectors given the wrong arity.  ``dim`` and
``--trials`` are never made huge: a valid huge count is a long run that the
caller asked for, not a bad input.

Prints one line per failing run, with what it ran, then a summary.  Exits 0
when every run passes, 1 when one fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nondegen.cli import _integer, main as cli_main
from nondegen.proximal import ENUM_BOUND_ENV

BOX2 = "dim 2\nconstraints 4\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n"
ABS = "dim 1\npieces 2\n1 0\n-1 0\n"
TILTED = "dim 2\npieces 2\n1 0 0\n0 1 1/2\nconstraints 3\n-1 0 0\n0 -1 0\n1 1 2\n"
LOWER_C2 = "dim 1\npieces 2\n1 0\n-1 0\nconstraints 2\n1 1\n-1 1\nrho 1/2\n"
SQUARE = "dim 2\nvertices 4\n1 1\n1 -1\n-1 1\n-1 -1\n"

# (argv with FILE for the problem file's path, problem file)
BASES = [
    (["minimize", "FILE", "--v", "1,0"], BOX2),
    (["minimize", "FILE", "--v", "1/2,1"], TILTED),
    (["certify", "FILE", "--v", "1,1", "--x", "1,1"], BOX2),
    (["certify", "FILE", "--v", "1/2"], ABS),
    (["genericity", "FILE", "--trials", "3", "--seed", "1", "--bits", "16"], TILTED),
    (["adversarial", "FILE"], BOX2),
    (["larman", "--vertices", "FILE", "--trials", "3", "--seed", "2", "--radius", "1/2"], SQUARE),
    (["prox", "FILE", "--c", "3,0"], BOX2),
    (["prox", "FILE", "--c", "1/3"], ABS),
    (["critical", "FILE", "--v", "0"], LOWER_C2),
]
FORMATS = ("text", "json", "csv")

HUGE = ("9" * 400, "1/" + "9" * 400, "-" + "7" * 5000)
TOKENS = (
    "0.5", "1e3", "nan", "inf", "-0.0",  # floats
    "true", "false", "True", "None", "yes",  # bool-like words
    "", " ",  # empty
    "7", "-2/3", "-1", "0",  # valid, zero or negative
    "1/0", "0/0", "1/-2", "+1", "1_0", "0x10", "٣", "½", "1//2",  # malformed
)
# tokens that set a count: a huge valid value would be a long run
COUNTS = ("--trials",)
EXIT_CODES = (0, 1, 2, 3)


def _token(rng: random.Random, huge_ok: bool) -> str:
    return rng.choice(TOKENS + HUGE if huge_ok else TOKENS)


def _mutate_argv(rng: random.Random, argv: list) -> None:
    """One mutation of the flags, in place; ``argv[0]`` is the command."""
    values = [i for i in range(1, len(argv)) if not argv[i].startswith("--")]
    vectors = [i for i in values if argv[i - 1] in ("--v", "--c", "--x")]
    op = rng.randrange(6)
    if op < 2 and values:  # a value replaced by a token, or the file by a missing one
        i = rng.choice(values)
        argv[i] = "MISSING" if argv[i] == "FILE" else _token(rng, argv[i - 1] not in COUNTS)
    elif op == 2 and vectors:  # a vector with one component too few or too many
        i = rng.choice(vectors)
        argv[i] = argv[i].rsplit(",", 1)[0] if rng.random() < 0.5 else argv[i] + ",1"
    elif op == 3:  # a token dropped
        del argv[rng.randrange(1, len(argv))]
    elif op == 4:  # a flag and its value given twice, or an unknown flag
        flags = [i for i, a in enumerate(argv) if a.startswith("--") and i + 1 < len(argv)]
        if flags and rng.random() < 0.7:
            i = rng.choice(flags)
            argv += [argv[i], _token(rng, argv[i] not in COUNTS)]
        else:
            argv.append(rng.choice(("--bogus", "--format", "--v", "-x")))
    elif rng.random() < 0.5:
        argv += ["--format", _token(rng, huge_ok=True)]
    else:  # a report path that is writable, or a directory
        argv += ["--report", rng.choice(("REPORT", "WORKDIR"))]


def _mutate_file(rng: random.Random, lines: list) -> None:
    """One mutation of the problem file's lines, in place."""
    if not lines:
        lines.append(_token(rng, huge_ok=True))
        return
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    op = rng.randrange(6)
    if op == 0 and tokens:  # a token replaced; dim's argument is never huge
        j = rng.randrange(len(tokens))
        tokens[j] = _token(rng, huge_ok=tokens[0] != "dim")
        lines[i] = " ".join(tokens)
    elif op == 1 and tokens:  # a row cut short
        lines[i] = " ".join(tokens[:-1])
    elif op == 2:  # a ragged row
        lines[i] = lines[i] + " " + rng.choice(("0", "1/2", "-3"))
    elif op == 3:  # a line dropped
        del lines[i]
    elif op == 4:  # a line given twice
        lines.insert(i, lines[i])
    else:  # two lines swapped
        k = rng.randrange(len(lines))
        lines[i], lines[k] = lines[k], lines[i]


def one_run(rng: random.Random, workdir: Path):
    """``(argv, env, text, code, stderr)`` of one mutated run; ``code`` is
    None when an exception escaped ``main``, and ``stderr`` then holds it."""
    argv, text = rng.choice(BASES)
    argv = list(argv) + ["--format", rng.choice(FORMATS)]
    lines = text.splitlines()
    env = None
    for _ in range(rng.randint(1, 2)):
        target = rng.random()
        if target < 0.5:
            _mutate_argv(rng, argv)
        elif target < 0.9:
            _mutate_file(rng, lines)
        else:
            env = _token(rng, huge_ok=True)
    text = "\n".join(lines) + "\n"
    path = workdir / "problem.txt"
    path.write_text(text, encoding="utf-8")
    paths = {"FILE": path, "MISSING": workdir / "missing.txt", "REPORT": workdir / "report.csv",
             "WORKDIR": workdir}
    argv = [str(paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = os.environ.pop(ENUM_BOUND_ENV, None), os.getcwd()
    if env is not None:
        os.environ[ENUM_BOUND_ENV] = env
    os.chdir(workdir)  # where a mutated relative --report path is written
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:  # what escapes main is the failure this script looks for
        code, err = None, io.StringIO(traceback.format_exc())
    finally:
        os.chdir(cwd)
        os.environ.pop(ENUM_BOUND_ENV, None)
        if saved is not None:
            os.environ[ENUM_BOUND_ENV] = saved
    return argv, env, text, code, err.getvalue()


def run(runs: int, seed: int) -> list:
    """The failing runs among ``runs`` seeded ones, as :func:`one_run` tuples."""
    rng = random.Random(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(runs):
            result = one_run(rng, Path(tmp))
            code, stderr = result[3], result[4]
            if code not in EXIT_CODES or "Traceback" in stderr:
                failures.append(result)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=_integer, default=6000, help="number of mutated runs")
    parser.add_argument("--seed", type=_integer, default=0, help="seed of the mutations")
    args = parser.parse_args(argv)
    if args.runs < 0:
        parser.error("--runs must be nonnegative")
    failures = run(args.runs, args.seed)
    for argv_, env, text, code, stderr in failures:
        print(f"FAIL exit={code} argv={argv_!r} {ENUM_BOUND_ENV}={env!r} file={text!r}")
        print("  " + stderr.strip().replace("\n", "\n  "))
    print(f"{args.runs} runs, seed {args.seed}: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
