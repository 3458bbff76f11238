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

All errors carry 1-based line numbers.  ``parse_problem`` and ``serialize``
are mutually inverse on well-formed files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ImproperFunctionError, ProblemParseError, RationalParseError
from .functions import Piece, PolyhedralFunction
from .geometry import VPolytope
from .linalg import Mat, Rat, Vec, format_rational, parse_rational
from .proximal import LowerC2Instance
from .simplex import HPolyhedron

Constraint = Tuple[Vec, Rat]  # (a, b) meaning <a, x> <= b


@dataclass(frozen=True)
class ProblemFile:
    dim: int
    pieces: Optional[Tuple[Piece, ...]] = None
    constraints: Optional[Tuple[Constraint, ...]] = None
    vertices: Optional[Mat] = None
    rho: Optional[Rat] = None

    def function(self) -> PolyhedralFunction:
        if self.pieces is None and self.constraints is None:
            raise ImproperFunctionError(1, "file defines no pieces or constraints")
        pieces = self.pieces if self.pieces is not None else ()
        cons = self.constraints if self.constraints is not None else ()
        domain = HPolyhedron(
            tuple(a for a, _ in cons), tuple(b for _, b in cons), self.dim
        )
        return PolyhedralFunction(pieces, domain, self.dim)

    def instance(self) -> LowerC2Instance:
        if self.rho is None:
            raise ImproperFunctionError(1, "file has no rho directive")
        return LowerC2Instance(self.function(), self.rho)

    def vpolytope(self) -> VPolytope:
        if self.vertices is None:
            raise ImproperFunctionError(1, "file has no vertices section")
        return VPolytope(self.vertices)


def _parse_row(tokens: List[str], expected: int, lineno: int) -> Tuple[Rat, ...]:
    if len(tokens) != expected:
        raise ProblemParseError(
            lineno, f"expected {expected} rational tokens, got {len(tokens)}"
        )
    out = []
    for tok in tokens:
        try:
            out.append(parse_rational(tok))
        except RationalParseError as e:
            raise ProblemParseError(lineno, str(e)) from None
    return tuple(out)


def _parse_count(tokens: List[str], lineno: int) -> int:
    if len(tokens) != 2:
        raise ProblemParseError(lineno, f"directive '{tokens[0]}' takes exactly one argument")
    try:
        k = int(tokens[1])
    except ValueError:
        raise ProblemParseError(lineno, f"'{tokens[1]}' is not an integer") from None
    if k < 0:
        raise ProblemParseError(lineno, f"'{tokens[0]}' count must be nonnegative")
    return k


def parse_problem(text: str) -> ProblemFile:
    entries: List[Tuple[int, List[str]]] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        last_line = lineno
        if body:
            entries.append((lineno, body.split()))
    if not entries:
        raise ProblemParseError(1, "empty problem file (missing dim directive)")

    lineno, tokens = entries[0]
    if tokens[0] != "dim":
        raise ProblemParseError(lineno, f"first directive must be dim, got '{tokens[0]}'")
    if len(tokens) != 2:
        raise ProblemParseError(lineno, "directive 'dim' takes exactly one argument")
    try:
        dim = int(tokens[1])
    except ValueError:
        raise ProblemParseError(lineno, f"'{tokens[1]}' is not an integer") from None
    if dim < 1:
        raise ProblemParseError(lineno, "dim must be at least 1")

    pieces: Optional[Tuple[Piece, ...]] = None
    constraints: Optional[Tuple[Constraint, ...]] = None
    vertices: Optional[Mat] = None
    rho: Optional[Rat] = None

    pos = 1
    while pos < len(entries):
        lineno, tokens = entries[pos]
        head = tokens[0]
        if head in ("pieces", "constraints", "vertices"):
            already = {"pieces": pieces, "constraints": constraints, "vertices": vertices}[head]
            if already is not None:
                raise ProblemParseError(lineno, f"duplicate '{head}' section")
            k = _parse_count(tokens, lineno)
            if len(entries) - (pos + 1) < k:
                raise ProblemParseError(
                    lineno,
                    f"'{head}' declares {k} rows but only {len(entries) - pos - 1} follow",
                )
            width = dim if head == "vertices" else dim + 1
            rows = []
            for off in range(k):
                row_lineno, row_tokens = entries[pos + 1 + off]
                rows.append(_parse_row(row_tokens, width, row_lineno))
            if head == "pieces":
                pieces = tuple((r[:dim], r[dim]) for r in rows)
            elif head == "constraints":
                constraints = tuple((r[:dim], r[dim]) for r in rows)
            else:
                vertices = tuple(rows)
            pos += 1 + k
        elif head == "rho":
            if rho is not None:
                raise ProblemParseError(lineno, "duplicate 'rho' directive")
            if len(tokens) != 2:
                raise ProblemParseError(lineno, "directive 'rho' takes exactly one argument")
            try:
                rho = parse_rational(tokens[1])
            except RationalParseError as e:
                raise ProblemParseError(lineno, str(e)) from None
            if not rho > 0:
                raise ProblemParseError(lineno, "rho must be positive")
            pos += 1
        elif head == "dim":
            raise ProblemParseError(lineno, "duplicate 'dim' directive")
        else:
            raise ProblemParseError(lineno, f"unknown directive '{head}'")

    if pieces is None and constraints is None and vertices is None:
        raise ImproperFunctionError(
            last_line, "no pieces, constraints, or vertices section: nothing to model"
        )
    return ProblemFile(dim, pieces, constraints, vertices, rho)


def serialize(pf: ProblemFile) -> str:
    lines = [f"dim {pf.dim}"]
    if pf.pieces is not None:
        lines.append(f"pieces {len(pf.pieces)}")
        for c, d in pf.pieces:
            lines.append(" ".join(format_rational(t) for t in (*c, d)))
    if pf.constraints is not None:
        lines.append(f"constraints {len(pf.constraints)}")
        for a, b in pf.constraints:
            lines.append(" ".join(format_rational(t) for t in (*a, b)))
    if pf.vertices is not None:
        lines.append(f"vertices {len(pf.vertices)}")
        for v in pf.vertices:
            lines.append(" ".join(format_rational(t) for t in v))
    if pf.rho is not None:
        lines.append(f"rho {format_rational(pf.rho)}")
    return "\n".join(lines) + "\n"
