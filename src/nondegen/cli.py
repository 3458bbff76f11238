"""Command-line interface: batch commands over problem files.

Commands: minimize, certify, genericity, adversarial, larman, prox, critical.
Every numeric value is printed as an exact rational token (never a decimal),
so any report can be fed back in as input.  The JSON and CSV formats carry
identical fields: JSON is produced *from* the CSV table, row by row, and every
CSV table is written by ``experiments.csv_table``.

Exit codes: 0 success; 1 usage error (bad flag or flag value, unreadable file,
unwritable report path, bad GENERIC_NONDEGEN_ENUM_BOUND, the one setting of the
enumeration bound of adversarial, prox and critical); 2 problem-file parse
error; 3 the model outcome is infeasible, unbounded, above the enumeration
bound, or the file does not define the needed object (no rho for `critical`,
no vertices or fewer than 2 distinct ones for `larman`, nothing at all); 4 an
internal invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DegeneratePolytopeError,
    EnumerationBoundError,
    ImproperFunctionError,
    InfeasibleDomainError,
    InternalError,
    NondegenError,
    OutsideDomainError,
    ProblemParseError,
    RationalParseError,
)
from .experiments import (
    SamplerConfig,
    _check_trials,
    _join_vec,
    construct_degenerate,
    csv_table,
    larman_to_csv,
    report_to_csv,
    run_genericity,
    run_larman,
)
from .functions import (
    DegenerateCritical,
    Minimizer,
    Nondegenerate,
    canonical_minimizer,
    certify,
)
from .linalg import Vec, _parse_integer, format_rational, parse_rational
from .problemfile import ProblemFile, parse_problem
from .proximal import find_critical_points, prox, resolve_enum_bound
from .simplex import Unbounded


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-1,0" follow --v / --x without being mistaken
        # for option flags (none of our options start with a digit).
        self._negative_number_matcher = re.compile(r"^-\d")

    # argparse exits with status 2 on bad usage by default; route through
    # UsageError so usage problems report exit code 1 instead.
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:  # the argparse type of every integer flag
    try:
        return _parse_integer(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _point(x: Vec) -> str:
    return "(" + ", ".join(format_rational(c) for c in x) + ")"


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read '{path}': {e}") from None


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write '{path}': {e}") from None


def _parse_vec(text: str, dim: int, flag: str) -> Vec:
    tokens = text.split(",")
    if len(tokens) != dim:
        raise UsageError(f"{flag} expects {dim} comma-separated rationals, got {len(tokens)}")
    try:
        return tuple(parse_rational(t.strip()) for t in tokens)
    except RationalParseError as e:
        raise UsageError(f"{flag}: {e}") from None


def _load(args) -> ProblemFile:
    return parse_problem(_read_file(args.file))


def _sampler(args) -> SamplerConfig:
    try:
        _check_trials(args.trials)
        return SamplerConfig(seed=args.seed, bits=args.bits, box_radius=parse_rational(args.radius))
    except (RationalParseError, ValueError) as e:
        raise UsageError(str(e)) from None


def _enum_bound() -> int:
    try:
        return resolve_enum_bound()
    except ValueError as e:
        raise UsageError(str(e)) from None


def _no_minimizer(res, fields: Sequence[str]) -> Tuple[int, str, str]:
    """Exit 3 with the one-row table of an unbounded or infeasible outcome."""
    outcome = "unbounded" if isinstance(res, Unbounded) else "infeasible"
    return 3, csv_table(fields, [[outcome, "", ""]]), outcome.upper()


def _cmd_minimize(args) -> Tuple[int, str, str]:
    f = _load(args).function()
    v = _parse_vec(args.v, f.dim, "--v")
    res = canonical_minimizer(f, v)
    if not isinstance(res, Minimizer):
        return _no_minimizer(res, ("outcome", "x", "value"))
    row = ["minimizer", _join_vec(res.x), format_rational(res.value)]
    text = f"MINIMIZER at {_point(res.x)}; value {format_rational(res.value)}"
    return 0, csv_table(("outcome", "x", "value"), [row]), text


def _certify_witness_tokens(f, cert: Nondegenerate) -> List[str]:
    tokens = []
    if f.pieces:
        tokens.extend(format_rational(w) for w in cert.piece_weights)
    tokens.extend(format_rational(w) for w in cert.constraint_multipliers)
    return tokens


def _cmd_certify(args) -> Tuple[int, str, str]:
    f = _load(args).function()
    v = _parse_vec(args.v, f.dim, "--v")
    if args.x is not None:
        x = _parse_vec(args.x, f.dim, "--x")
    else:
        res = canonical_minimizer(f, v)
        if not isinstance(res, Minimizer):
            return _no_minimizer(res, ("outcome", "x", "witness"))
        x = res.x
    try:
        cert = certify(f, v, x)
    except OutsideDomainError as e:
        raise UsageError(f"--x: {e}") from None
    if isinstance(cert, Nondegenerate):
        tokens = _certify_witness_tokens(f, cert)
        row = ["nondegenerate", _join_vec(x), ";".join(tokens)]
        text = f"NONDEGENERATE at {_point(x)}; witness {','.join(tokens)}"
    elif isinstance(cert, DegenerateCritical):
        row = ["degenerate", _join_vec(x), ""]
        text = (
            f"DEGENERATE at {_point(x)}: v lies on rb ∂f; "
            "no strictly complementary dual exists"
        )
    else:
        row = ["not_critical", _join_vec(x), ""]
        text = f"NOT CRITICAL at {_point(x)}: v is not a subgradient there"
    return 0, csv_table(("outcome", "x", "witness"), [row]), text


def _cmd_genericity(args) -> Tuple[int, str, str]:
    f = _load(args).function()
    cfg = _sampler(args)
    rep = run_genericity(f, cfg, args.trials)
    csv_text = report_to_csv(rep)
    if args.report:
        _write_file(args.report, csv_text)
    lines = [
        f"trials {rep.trials}",
        f"nondegenerate {rep.unique_nondegenerate}",
        f"degenerate {rep.degenerate}",
        f"non_unique {rep.non_unique}",
        f"unbounded {rep.unbounded}",
        f"seed {rep.seed}",
    ]
    for r in rep.records:
        if r.outcome in ("degenerate", "non_unique"):
            lines.append(f"hit trial={r.trial_index} outcome={r.outcome} v={_join_vec(r.v)}")
    return 0, csv_text, "\n".join(lines)


def _cmd_adversarial(args) -> Tuple[int, str, str]:
    _enum_bound()
    f = _load(args).function()
    rep = construct_degenerate(f)
    rows = [[_join_vec(v), _join_vec(x)] for v, x in rep.pairs]
    if rep.pairs:
        text = "\n".join(f"v={_point(v)} at x={_point(x)}" for v, x in rep.pairs)
    else:
        text = rep.status
    return 0, csv_table(("v", "x"), rows), text


def _cmd_larman(args) -> Tuple[int, str, str]:
    pf = parse_problem(_read_file(args.vertices))
    F = pf.vpolytope()
    cfg = _sampler(args)
    rep = run_larman(F, cfg, args.trials)
    csv_text = larman_to_csv(rep)
    if args.report:
        _write_file(args.report, csv_text)
    lines = [
        f"trials {rep.trials}",
        f"singleton_faces {rep.singleton_faces}",
        f"multi_vertex_faces {rep.multi_vertex_faces}",
        f"seed {rep.seed}",
    ]
    for r in rep.records:
        if r.distinct_vertices > 1:
            lines.append(f"hit trial={r.label} c={_join_vec(r.c)}")
    return 0, csv_text, "\n".join(lines)


def _cmd_prox(args) -> Tuple[int, str, str]:
    _enum_bound()
    f = _load(args).function()
    c = _parse_vec(args.c, f.dim, "--c")
    x = prox(f, c)
    return 0, csv_table(("x",), [[_join_vec(x)]]), f"PROX at {_point(x)}"


def _cmd_critical(args) -> Tuple[int, str, str]:
    _enum_bound()
    inst = _load(args).instance()
    v = _parse_vec(args.v, inst.g.dim, "--v")
    points = find_critical_points(inst, v)
    rows = []
    lines = []
    for x, cert in points:
        kind = "degenerate" if isinstance(cert, DegenerateCritical) else "nondegenerate"
        rows.append([_join_vec(x), kind])
        lines.append(f"CRITICAL at {_point(x)}: {kind.upper()}")
    text = "\n".join(lines) if lines else "NO CRITICAL POINTS"
    return 0, csv_table(("x", "certification"), rows), text


def build_parser() -> _Parser:
    parser = _Parser(prog="nondegen", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    sampler = _Parser(add_help=False)
    sampler.add_argument("--trials", type=_integer, required=True)
    sampler.add_argument("--seed", type=_integer, required=True)
    sampler.add_argument("--bits", type=_integer, default=64)
    sampler.add_argument("--radius", default="1", help="sampling box half-width (rational)")
    sampler.add_argument("--report", help="also write the CSV report to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", parents=[common], help="minimize f(x) - <v, x>")
    p.add_argument("file")
    p.add_argument("--v", required=True)
    p.set_defaults(run=_cmd_minimize)

    p = sub.add_parser("certify", parents=[common], help="classify v against the subdifferential")
    p.add_argument("file")
    p.add_argument("--v", required=True)
    p.add_argument("--x", help="point to certify at (default: the computed minimizer)")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("genericity", parents=[common, sampler], help="random-tilt experiment")
    p.add_argument("file")
    p.set_defaults(run=_cmd_genericity)

    p = sub.add_parser(
        "adversarial", parents=[common], help="construct degenerate (v, x) pairs"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_adversarial)

    p = sub.add_parser("larman", parents=[common, sampler], help="exposed-face sampling")
    p.add_argument("--vertices", required=True, help="problem file with a vertices section")
    p.set_defaults(run=_cmd_larman)

    p = sub.add_parser("prox", parents=[common], help="proximal point of the problem function")
    p.add_argument("file")
    p.add_argument("--c", required=True)
    p.set_defaults(run=_cmd_prox)

    p = sub.add_parser(
        "critical", parents=[common], help="all critical points of g - (rho/2)|.|^2 - <v, .>"
    )
    p.add_argument("file")
    p.add_argument("--v", required=True)
    p.set_defaults(run=_cmd_critical)
    return parser


def _emit(fmt: str, csv_text: str, text: str) -> None:
    if fmt == "csv":
        sys.stdout.write(csv_text)
    elif fmt == "json":
        reader = csv.reader(io.StringIO(csv_text))
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        print(text)


# The first matching row decides: ImproperFunctionError is a
# ProblemParseError, and NondegenError catches every other library error.
_EXIT_CODES = (
    (UsageError, 1),
    (ImproperFunctionError, 3),
    (ProblemParseError, 2),
    ((DegeneratePolytopeError, EnumerationBoundError, InfeasibleDomainError), 3),
    (InternalError, 4),
    (NondegenError, 2),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        code, csv_text, text = args.run(args)
        _emit(args.format, csv_text, text)
        return code
    except (UsageError, NondegenError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for exc, code in _EXIT_CODES if isinstance(e, exc))


if __name__ == "__main__":
    sys.exit(main())
