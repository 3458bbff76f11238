"""Exact rational scalars, vectors, and matrices.

Every quantity in this package is an exact rational; no floats enter any
decision.  Scalars are built through :func:`Q`, which is
``fractions.Fraction``: values stay in lowest terms with a positive
denominator, so canonical form is maintained by construction.  Vectors are
plain tuples of scalars and matrices are tuples of row tuples; all public
operations are pure functions.

Whether a caller's number may enter is decided in one place, and that is
where "no floats" is enforced: :func:`_exact` accepts an ``int`` (not a
``bool``) or a ``Fraction`` and refuses anything else (a float, a ``bool``,
a ``Decimal``, ``None``, a string) with a ``ValueError`` naming the field,
and :func:`vec` passes every entry of a caller's vector through it and
checks the length.  Strings are refused: a token is read by
:func:`parse_rational`, as in problem files and flags.  The entry points
take their vectors through ``vec``, :func:`rank` and :func:`solve_linear`
their rows through :func:`mat`'s check, and each dataclass's
``__post_init__`` its own fields (``dim`` through :func:`_size`, a list of
pairs through :func:`_pairs`, the one pair reader).  Each field keeps what its
check returns, so a valid object stores one form whatever it was built from:
tuples of ``Fraction`` entries.  An all-``Fraction`` row is kept as the same
object after one type scan.

:func:`dot` builds no ``Fraction`` per term: it sums the nonzero products as
an integer numerator over an integer denominator (cross-multiplying only when
a term's denominator differs from the running one) and normalises once, so a
dot product pays one gcd instead of one per product and per partial sum.

The exact row scans run on integers too: ``HPolyhedron._scan`` is the one
test of a point against the domain rows (violation and activity), and a max
of affine pieces is one integer sum per piece.  A polyhedron keeps its rows
scaled to integers and a polyhedral function its pieces, both computed once
and kept, and a point becomes integers over the lcm of its denominators, so
each row test is an integer comparison and builds no ``Fraction``.

:func:`_integer_point` is the one scaling of rationals to integers outside
the simplex kernel's tableau and its checker's matrix: :func:`_integer_rows`
maps it over rows (for ``rank``, ``solve_linear`` and
``HPolyhedron.integer_rows``), and ``integer_terms``, the point of each
``evaluate``, ``_active_structure`` and ``violation_index`` call,
``proximal._kkt_solutions``, the rows of ``functions._read_off`` and the
kernel's certificate checks call it directly.

``rank``, ``solve_linear``, ``functions._read_off`` and
``proximal._kkt_solutions`` share one fraction-free eliminator (Edmonds):
rows are scaled to integers, each pivot step divides exactly by the previous
pivot, and rationals are built only from the final rows and the last pivot.
Its row update, :func:`_bareiss_pivot`, is also the pivot of the integer
simplex tableau in :mod:`nondegen.simplex` and the step by which the
candidate-point enumeration of :mod:`nondegen.experiments` extends a subset's
elimination by one plane.  ``solve_linear`` is public, but no library path
calls it: ``_read_off`` and ``_kkt_solutions`` eliminate their own integer
rows.  ``_kkt_solutions``, ``_read_off``, the candidate points and the
simplex kernel's read-outs build the rationals they keep with :func:`_ratio`,
so an exact 0 or 1 among them is the shared :data:`ZERO` or :data:`ONE`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError, RationalParseError, quote_token

Q = Fraction
Rat = Fraction
Vec = Tuple[Rat, ...]
Mat = Tuple[Vec, ...]

ZERO = Q(0)
ONE = Q(1)
_MINUS_ONE = Q(-1)  # the -1 of an optimal point from simplex.solve_lp

_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL_TOKEN = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


def _parse_integer(token: str) -> int:
    """An integer of a problem file or a CLI flag: ASCII digits after an
    optional ``-``.  Anything else raises ``ValueError``, as ``int()`` does on
    more digits than it converts."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"{quote_token(token)} is not an integer")
    return int(token)


def parse_rational(token: str) -> Rat:
    """Parse ``'n'`` or ``'n/d'`` with optional leading minus and ``d > 0``.

    Anything else (empty string, whitespace, decimals, signs on the
    denominator, zero denominator, more digits than ``int()`` converts)
    raises :class:`RationalParseError`, and a token that is not a ``str``
    raises ``ValueError``.
    """
    m = _RATIONAL_TOKEN.fullmatch(_of_type(token, str, "rational token"))
    if m is None:
        raise RationalParseError(token)
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:
        raise RationalParseError(token, reason="more digits than int() converts") from None
    if den == 0:
        raise RationalParseError(token, reason="denominator is zero")
    return Q(num, den)


def format_rational(x) -> str:
    """Render a rational as ``'n'`` or ``'n/d'`` (the parseable form); anything but an
    ``int`` or a ``Fraction`` is refused by :func:`_exact`."""
    num, den = _exact(x, "rational").numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def _exact(value, name: str, fraction_ok: bool = True):
    """``value`` if it is an ``int`` (not a ``bool``) or, with ``fraction_ok``, a ``Fraction``."""
    if isinstance(value, bool) or not isinstance(value, (int, Q) if fraction_ok else int):
        what = "an int or a Fraction" if fraction_ok else "an int"
        raise ValueError(f"{name} must be {what}, not {type(value).__name__}")
    return value


def _of_type(value, cls: type, name: str, article: str = "a"):
    """``value`` if it is a ``cls``, else ``ValueError("<name> must be a <cls>, not <type>")``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be {article} {cls.__name__}, not {type(value).__name__}")
    return value


def _size(value, name: str) -> int:
    """``value`` when it is an ``int`` of at least 1, else ``ValueError``."""
    if _exact(value, name, fraction_ok=False) < 1:
        raise ValueError(f"{name} must be at least 1")
    return value


def _iterable(values: Iterable, name: str, kind: str) -> Iterator:
    """``iter(values)``; ``ValueError("<name> must be <kind>, not <type>")`` when it is not
    iterable.  A ``TypeError`` raised while ``values`` is iterated is not caught."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be {kind}, not {type(values).__name__}") from None


def _sequence(values: Iterable, name: str, kind: str = "a sequence") -> tuple:
    """``tuple(values)``, refused by :func:`_iterable` when it is not iterable."""
    return tuple(_iterable(values, name, kind))


def vec(values: Iterable, dim: Optional[int] = None, what: str = "") -> Vec:
    """A caller's vector: a ``Fraction`` entry kept, an ``int`` one made ``Q(int)``, any
    other refused by :func:`_exact` as ``"<what> entry i"`` (less a trailing ``" dimension"``);
    with ``dim``, another length raises ``DimensionMismatchError(what, dim, len)``."""
    name = what.removesuffix(" dimension") or "vector"
    out = _sequence(values, name)
    if dim is not None and len(out) != dim:
        raise DimensionMismatchError(what, dim, len(out))
    return tuple(a if isinstance(a, Q) else Q(_exact(a, f"{name} entry {i}")) for i, a in enumerate(out))


def _rows(rows: Iterable[Iterable], what: str = "matrix row") -> List[tuple]:
    """Each row as a tuple, or ``ValueError`` when ``rows`` is not a sequence of sequences."""
    try:
        return [tuple(r) for r in rows]
    except TypeError:
        raise ValueError(f"{what} list must be a sequence of sequences") from None


def _pairs(values: Iterable, what: str, pair: str) -> List[Tuple[tuple, object]]:
    """``values`` as ``(first, last)`` pairs with ``first`` a tuple; ``ValueError``
    naming ``what`` when it is not a sequence, or ``"<what> row i"`` when its entry
    ``i`` is not a ``pair`` pair whose first part is a sequence.  The one pair
    reader, of ``PolyhedralFunction``'s pieces and ``ProblemFile``'s sections."""
    out = []
    for i, p in enumerate(_sequence(values, what, f"a sequence of {pair} pairs")):
        try:
            first, last = p
            out.append((tuple(first), last))
        except (TypeError, ValueError):
            raise ValueError(f"{what} row {i} must be a {pair} pair") from None
    return out


def mat(rows: Iterable[Iterable], width: Optional[int] = None, what: str = "matrix row") -> Mat:
    """Rows through :func:`vec` as ``"<what> i dimension"``, each of ``width``
    entries (by default, the first row's).  Rows of that width whose entries
    are all ``Fraction`` are kept after one scan of the lengths and the types."""
    rows = _rows(rows, what)
    width = len(rows[0]) if width is None and rows else width
    if {*map(len, rows)} <= {width} and {*map(type, chain(*rows))} <= {Q}:
        return tuple(rows)
    return tuple(vec(r, width, f"{what} {i} dimension") for i, r in enumerate(rows))


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def dot(u: Vec, v: Vec) -> Rat:
    """Exact ``Σ u_i v_i``, summed in integers as the module docstring says."""
    if len(u) != len(v):
        raise DimensionMismatchError("dot product", len(u), len(v))
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            d = a.denominator * b.denominator
            if d == den:
                num += a.numerator * b.numerator
            else:
                num = num * d + a.numerator * b.numerator * den
                den *= d
    return Q(num, den)


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError("vector difference", len(u), len(v))
    return tuple(a - b for a, b in zip(u, v))


def _integer_point(values: Sequence) -> Tuple[List[int], int]:
    """``values`` (integers or rationals) as integers ``X`` over ``D``, the
    lcm of their denominators: ``values = X / D`` with ``D > 0``.  The one
    such scaling outside the simplex kernel's tableau and its checker's matrix
    (see the module docstring)."""
    D = lcm(*[a.denominator for a in values])  # a list: *generator grows tuple free lists
    return [a.numerator * (D // a.denominator) for a in values], D


def _ratio(n: int, d: int) -> Rat:
    """``Q(n, d)`` of integers, ``d`` nonzero; the shared :data:`ZERO` or
    :data:`ONE` when ``n`` is 0 or ``d``, so a kept exact 0 or 1 is not an
    object of its own."""
    if not n:
        return ZERO
    return ONE if n == d else Q(n, d)


def _integer_rows(rows: List[tuple]) -> List[Sequence[int]]:
    """The rows (a list of tuples) scaled to integers by :func:`_integer_point`
    after :func:`mat`'s check."""
    return [_integer_point(row)[0] for row in mat(rows)]


def _bareiss_pivot(M: List[list], r: int, c: int, d: int) -> int:
    """One fraction-free pivot on entry ``(r, c)`` of the integer rows ``M``,
    in place: every row but ``r`` becomes ``(p * row - row[c] * M[r]) // d``
    with ``p = M[r][c]``, and row ``r`` is kept.  Returns ``p``, the divisor
    of the next step.  The division is exact when ``d`` is the previous pivot
    (Bareiss, Math. Comp. 22, 1968): if ``M / d`` is a tableau, ``M' / p`` is
    the tableau after the pivot, and its entries are minors of the input.
    """
    prow = M[r]
    p = prow[c]
    for i, row in enumerate(M):
        if i == r:
            continue
        f = row[c]
        if f:
            M[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            M[i] = [p * a // d for a in row]
    return p


def _eliminate(M: List[list], ncols: int) -> Tuple[List[int], int]:
    """Edmonds' fraction-free Gauss-Jordan elimination of the integer rows
    ``M`` in place, pivoting on the first ``ncols`` columns.

    Returns the pivot columns and the last pivot ``d``.  Each step is one
    :func:`_bareiss_pivot`.  Afterwards row ``r`` divided by ``d`` is row ``r``
    of the reduced row echelon form, and the rows past the pivots are zero in
    the first ``ncols`` columns.
    """
    pivots: List[int] = []
    d = 1
    nrows = len(M)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        d = _bareiss_pivot(M, r, c, d)
        pivots.append(c)
    return pivots, d


def rank(A: Iterable[Iterable]) -> int:
    """Rank via exact fraction-free elimination over the rationals, of rows checked by :func:`mat`."""
    M = _integer_rows(_rows(A))
    return len(_eliminate(M, len(M[0]))[0]) if M else 0


@dataclass(frozen=True)
class UniqueSolution:
    x: Vec


@dataclass(frozen=True)
class Underdetermined:
    """A particular solution together with a basis of the homogeneous kernel."""

    x: Vec
    nullspace: Mat


@dataclass(frozen=True)
class Inconsistent:
    pass


SolveOutcome = UniqueSolution | Underdetermined | Inconsistent


def solve_linear(A: Iterable[Iterable], b: Iterable, ncols: Optional[int] = None) -> SolveOutcome:
    """Solve ``A x = b`` exactly, classifying the solution set.

    ``ncols``, an ``int`` of at least 0, is only needed when ``A`` has no rows
    (the variable count cannot be inferred).  For underdetermined systems the
    particular solution sets all free variables to zero and the nullspace basis
    has one vector per free column (that column set to one).  Rows of different
    widths raise ``DimensionMismatchError``, with the widths of ``[A | b]``, and
    an entry that is not an ``int`` or a ``Fraction`` is named by its place in
    ``[A | b]``.
    """
    if ncols is not None and _exact(ncols, "ncols", fraction_ok=False) < 0:
        raise ValueError("ncols must be nonnegative")
    rows, rhs = _rows(A), _sequence(b, "right-hand side")
    if len(rhs) != len(rows):
        raise DimensionMismatchError("right-hand side length", len(rows), len(rhs))
    if rows:
        n = len(rows[0])
        if ncols is not None and ncols != n:
            raise DimensionMismatchError("column count", ncols, n)
    else:
        if ncols is None:
            raise DimensionMismatchError("column count for empty matrix", "an integer", None)
        n = ncols
    aug = _integer_rows([(*row, rv) for row, rv in zip(rows, rhs)])
    pivot_cols, d = _eliminate(aug, n)
    if any(row[n] for row in aug[len(pivot_cols) :]):
        return Inconsistent()
    x = [ZERO] * n
    for idx, c in enumerate(pivot_cols):
        x[c] = Q(aug[idx][n], d)
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        return UniqueSolution(tuple(x))
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for idx, c in enumerate(pivot_cols):
            v[c] = Q(-aug[idx][fc], d)
        # canonical sign: leading nonzero entry positive
        lead = next(a for a in v if a != 0)
        if lead < 0:
            v = [-a for a in v]
        basis.append(tuple(v))
    return Underdetermined(tuple(x), tuple(basis))
