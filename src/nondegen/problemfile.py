"""Line-based problem-file grammar.

    dim <n>                  required first directive
    pieces <k>               k rows of n+1 rational tokens: c_1 .. c_n d
    constraints <m>          m rows of n+1 rational tokens: a_1 .. a_n b
    vertices <k>             k rows of n rational tokens (V-polytope files)
    rho <rational>           optional, > 0: marks f = g - (rho/2)|.|^2

'#' starts a comment, blank lines are ignored.  A missing pieces section means
the zero function, a missing constraints section means the whole space; a file
with no content sections at all is rejected.  Note the difference between an
absent section and a present-but-empty one (``pieces 0``): the latter is how
"the zero function on R^n" is spelled explicitly.

An integer (``n``, ``k``, ``m``) is ASCII digits with an optional leading
``-``; a rational is an integer or ``n/d`` with ASCII digits in ``d`` and
``d > 0``.  No ``+`` sign, ``_`` separator or other digit characters.

All errors carry 1-based line numbers.  ``parse_problem`` and ``serialize``
are mutually inverse on well-formed files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ImproperFunctionError, ProblemParseError, RationalParseError, quote_token
from .functions import Piece, PolyhedralFunction
from .geometry import VPolytope
from .linalg import (
    Mat, Rat, Vec, _exact, _of_type, _pairs, _parse_integer, _size, format_rational, mat, parse_rational
)
from .proximal import LowerC2Instance
from .simplex import HPolyhedron

Constraint = Tuple[Vec, Rat]  # (a, b) meaning <a, x> <= b

# Each section's rows hold dim + extra tokens; with extra = 1 the last token is
# split off as the row's d (pieces) or b (constraints), and the field holds
# the pairs that _PAIRS names.
_SECTIONS = {"pieces": 1, "constraints": 1, "vertices": 0}
_PAIRS = {"pieces": "(gradient, offset)", "constraints": "(normal, bound)"}


@dataclass(frozen=True)
class ProblemFile:
    dim: int
    pieces: Optional[Tuple[Piece, ...]] = None
    constraints: Optional[Tuple[Constraint, ...]] = None
    vertices: Optional[Mat] = None
    rho: Optional[Rat] = None

    def __post_init__(self):
        dim = _size(self.dim, "dim")
        for head, extra in _SECTIONS.items():
            rows = getattr(self, head)
            if rows is None:
                continue
            if extra:  # each pair as the row serialize writes, split again once checked
                rows = [(*v, last) for v, last in _pairs(rows, head, _PAIRS[head])]
            rows = mat(rows, dim + extra, f"{head} row")
            object.__setattr__(self, head, tuple((r[:dim], r[dim]) for r in rows) if extra else rows)
        if self.rho is not None and not _exact(self.rho, "rho") > 0:
            raise ValueError("rho must be positive")

    def function(self) -> PolyhedralFunction:
        if self.pieces is None and self.constraints is None:
            raise ImproperFunctionError(1, "file defines no pieces or constraints")
        cons = self.constraints or ()
        domain = HPolyhedron(tuple(a for a, _ in cons), tuple(b for _, b in cons), self.dim)
        return PolyhedralFunction(self.pieces or (), domain, self.dim)

    def instance(self) -> LowerC2Instance:
        if self.rho is None:
            raise ImproperFunctionError(1, "file has no rho directive")
        return LowerC2Instance(self.function(), self.rho)

    def vpolytope(self) -> VPolytope:
        if self.vertices is None:
            raise ImproperFunctionError(1, "file has no vertices section")
        return VPolytope(self.vertices)


def _argument(tokens: List[str], lineno: int) -> str:
    if len(tokens) != 2:
        raise ProblemParseError(lineno, f"directive {quote_token(tokens[0])} takes exactly one argument")
    return tokens[1]


def _integer(token: str, lineno: int) -> int:
    try:
        return _parse_integer(token)
    except ValueError:  # also on more digits than int() converts
        raise ProblemParseError(lineno, f"{quote_token(token)} is not an integer") from None


def _rational(token: str, lineno: int) -> Rat:
    try:
        return parse_rational(token)
    except RationalParseError as e:
        raise ProblemParseError(lineno, str(e)) from None


def _row(tokens: List[str], width: int, lineno: int) -> Tuple[Rat, ...]:
    if len(tokens) != width:
        raise ProblemParseError(lineno, f"expected {width} rational tokens, got {len(tokens)}")
    return tuple(_rational(tok, lineno) for tok in tokens)


def parse_problem(text: str) -> ProblemFile:
    _of_type(text, str, "text")
    lines = text.splitlines()
    entries = [(lineno, tokens) for lineno, raw in enumerate(lines, 1)
               if (tokens := raw.split("#", 1)[0].split())]
    if not entries:
        raise ProblemParseError(1, "empty problem file (missing dim directive)")
    lineno, tokens = entries[0]
    if tokens[0] != "dim":
        raise ProblemParseError(lineno, f"first directive must be dim, got {quote_token(tokens[0])}")
    dim = _integer(_argument(tokens, lineno), lineno)
    if dim < 1:
        raise ProblemParseError(lineno, "dim must be at least 1")

    found = {}  # ProblemFile field name -> value
    pos = 1
    while pos < len(entries):
        lineno, tokens = entries[pos]
        head = tokens[0]
        pos += 1
        if head == "dim" or head in found:
            kind = "section" if head in _SECTIONS else "directive"
            raise ProblemParseError(lineno, f"duplicate '{head}' {kind}")
        if head in _SECTIONS:
            k = _integer(_argument(tokens, lineno), lineno)
            if k < 0:
                raise ProblemParseError(lineno, f"'{head}' count must be nonnegative")
            block = entries[pos : pos + k]
            if len(block) < k:
                raise ProblemParseError(
                    lineno, f"'{head}' declares {k} rows but only {len(block)} follow"
                )
            rows = tuple(_row(t, dim + _SECTIONS[head], n) for n, t in block)
            found[head] = tuple((r[:dim], r[dim]) for r in rows) if _SECTIONS[head] else rows
            pos += k
        elif head == "rho":
            found["rho"] = _rational(_argument(tokens, lineno), lineno)
            if not found["rho"] > 0:
                raise ProblemParseError(lineno, "rho must be positive")
        else:
            raise ProblemParseError(lineno, f"unknown directive {quote_token(head)}")

    if found.keys().isdisjoint(_SECTIONS):
        raise ImproperFunctionError(
            len(lines), "no pieces, constraints, or vertices section: nothing to model"
        )
    return ProblemFile(dim, **found)


def serialize(pf: ProblemFile) -> str:
    _of_type(pf, ProblemFile, "pf")
    lines = [f"dim {pf.dim}"]
    for head, extra in _SECTIONS.items():
        rows = getattr(pf, head)
        if rows is not None:
            lines.append(f"{head} {len(rows)}")
            for r in rows:
                lines.append(" ".join(map(format_rational, (*r[0], r[1]) if extra else r)))
    if pf.rho is not None:
        lines.append(f"rho {format_rational(pf.rho)}")
    return "\n".join(lines) + "\n"
