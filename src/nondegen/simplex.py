"""Exact simplex over the rationals.

The public surface solves H-form programs

    maximize  <objective, x>   subject to   A x <= b,   x free,

returning one of three certified outcomes: an optimal point with dual
multipliers, an improving ray, or a Farkas certificate of infeasibility.
Every certificate is verified exactly before being returned, so a bug in the
pivoting can surface only as an :class:`InternalError`, never as a wrong
answer.  It is verified once, in the kernel below: :func:`solve_lp` splits
free variables and adds slacks, so each H-form identity of its answer is one
of the standard-form identities the kernel has checked (see :func:`solve_lp`).

Pivoting uses Bland's rule (the lowest column with a positive reduced cost
enters, among the program's own: artificials start basic and are not needed
once they leave; ratio ties go to the lowest basic column), which guarantees
termination and makes every outcome a deterministic function of the input.

Internally everything reduces to a dense-tableau kernel for the standard form

    maximize  <c, t>   subject to   M t = rhs,   t >= 0,

which other modules use directly for membership and relative-interior
auxiliary programs (equalities and sign constraints are native there, keeping
those tableaus small).

The kernel pivots on integers and builds rationals only for its answer.
Its tableau is read from each entry's numerator and denominator, with no
``Fraction`` built: column ``j`` is scaled by ``kappa_j``, the lcm of its
denominators, the rhs by ``sigma`` and the phase-2 costs by ``tau``, and a
row with a negative rhs is negated; unit and artificial columns keep scale
1, so the starting basis is the identity.  The tableau is kept as
integer rows ``X`` over one shared determinant ``d > 0`` (the rational
tableau is ``X / d``, as in lrs), and a pivot on ``p = X[r][c]`` replaces
every other row, the objective row included, by ``(p * row - row[c] *
X[r]) // d`` and sets ``d = p``: Bareiss's exact division, the row update of
:func:`nondegen.linalg._eliminate`.  Only the drive-out of artificials can
pivot on a negative entry; the pivot row is negated first, which negates the
tableau and keeps ``d`` positive.  Positive scalings of columns, rhs and
costs keep the sign of every reduced cost and the order of the ratios within
a column (compared by cross-multiplication), so Bland's rule makes the same
pivots as on the rational tableau, and the outcome is the same.  Read-out:
``t_j = kappa_j X_j / (sigma d)``, duals ``Y_i / (tau d)``, and the value,
ray and Farkas vector the same way, each through
:func:`nondegen.linalg._ratio`, so an exact 0 or 1 is the shared one.

Each outcome is then checked against the caller's own ``M``, ``rhs`` and
``obj``, never the scaled tableau, so no check depends on ``kappa``,
``sigma``, ``tau`` or the pivots that it is there to catch.  The checks run
in integers too: the checker scales ``M`` by its own ``L``, the lcm of all
of its denominators, and ``rhs``, ``obj`` and each certificate vector by
:func:`nondegen.linalg._integer_point`.  Each row or column test is then
one integer sum, compared by cross-multiplication with the positive scales.

What depends on ``M`` alone is prepared once, in a ``_Program``: the checks
of ``M``'s widths and types, ``kappa`` and the scaled columns, the columns
``±e_i`` that may start the basis, and the checker's ``L`` with its scaled
rows and columns.  The kernel takes rows, which it prepares on entry, or a
``_Program``, which :func:`solve_lp` keeps per :class:`HPolyhedron`; so a
function's epigraph program is prepared on its first tilt, and later tilts
change only the objective.  Per call the kernel scales ``rhs`` and ``obj``,
copies the prepared rows, pivots, reads out and checks.  The checker's rows
are scaled from the caller's ``M``, never from ``kappa``, so a wrong
``kappa`` or scaled column, kept for many solves, fails the check instead
of agreeing with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError, InternalError
from .linalg import (
    Mat, ONE, Q, Rat, Vec, ZERO, _MINUS_ONE, _bareiss_pivot, _exact, _integer_point, _integer_rows, _of_type,
    _ratio, _size, dot, mat, vec, zeros,
)


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of finitely many half-spaces ``A x <= b`` in ``R^dim``."""

    A: Mat
    b: Vec
    dim: int

    def __post_init__(self):
        A = mat(self.A, _size(self.dim, "dim"), "constraint")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", vec(self.b, len(A), "right-hand side dimension"))

    @property
    def m(self) -> int:
        return len(self.A)

    def contains(self, x: Vec) -> bool:
        return self.violation_index(x) is None

    @cached_property
    def integer_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The rows ``(*N_i, B_i)``: ``(*a_i, b_i)`` scaled to integers by
        :func:`~nondegen.linalg._integer_rows`, so ``a_i·x <= b_i`` iff ``N_i·x <= B_i``.
        Kept from the first use; not a field, so ``==``, ``hash`` and
        ``repr`` do not see it.  :meth:`_scan` tests points against them."""
        return tuple(map(tuple, _integer_rows([(*a, b) for a, b in zip(self.A, self.b)])))

    def _scan(self, X: Sequence[int], D: int) -> Tuple[Optional[int], Tuple[int, ...]]:
        """(first violated row or None, tight rows) at ``x = X / D``, ``D > 0``: the
        one test of a point against the domain rows.  On :attr:`integer_rows`, row
        ``i`` is violated when ``N_i·X > B_i·D`` and tight on equality, in integers;
        the scan stops at the first violated row, and then reports no tight rows."""
        tight = []
        for i, row in enumerate(self.integer_rows):
            # map stops at the end of X, so the sum leaves out B_i
            lhs = sum(map(mul, row, X))
            rhs = row[-1] * D
            if lhs > rhs:
                return i, ()
            if lhs == rhs:
                tight.append(i)
        return None, tuple(tight)

    @cached_property
    def _split(self) -> "_Program":
        """The kernel's program of :func:`solve_lp` on these rows, ``[A | -A | I]``
        over the columns ``(u, w, s)``, prepared once by :class:`_Program`.  Kept
        from the first solve; not a field, like :attr:`integer_rows`."""
        m = self.m
        unit = [[ONE if k == i else ZERO for k in range(m)] for i in range(m)]
        return _Program([[*a, *[-x for x in a], *e] for a, e in zip(self.A, unit)], 2 * self.dim + m)

    def violation_index(self, x: Vec) -> Optional[int]:
        """Index of the first violated constraint (:meth:`_scan`), or None if
        ``x`` is feasible."""
        return self._scan(*_integer_point(vec(x, self.dim, "point dimension")))[0]

    def active_set(self, x: Vec) -> Tuple[int, ...]:
        """Indices of constraints satisfied with exact equality at ``x``.

        One :func:`~nondegen.linalg.dot` per row on the rationals as given,
        independent of :meth:`_scan`, which the tests check against it."""
        x = vec(x, self.dim, "point dimension")
        return tuple(i for i, (row, rhs) in enumerate(zip(self.A, self.b)) if dot(row, x) == rhs)


@dataclass(frozen=True)
class LinearProgram:
    objective: Vec
    constraints: HPolyhedron

    def __post_init__(self):
        dim = _of_type(self.constraints, HPolyhedron, "constraints", "an").dim
        object.__setattr__(self, "objective", vec(self.objective, dim, "objective dimension"))


@dataclass(frozen=True)
class Optimal:
    x: Vec
    value: Rat
    duals: Vec
    active_set: FrozenSet[int]


@dataclass(frozen=True)
class Unbounded:
    """A feasible point and a ray ``d`` with ``A d <= 0`` and ``<c, d> > 0``."""

    x0: Vec
    ray: Vec


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: ``farkas >= 0``, ``farkas^T A = 0``, ``farkas^T b < 0``."""

    farkas: Vec


@dataclass(frozen=True)
class Point:
    x: Vec


LpOutcome = Optimal | Unbounded | Infeasible


# ---------------------------------------------------------------------------
# standard-form kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelOptimal:
    t: Vec
    value: Rat
    duals: Vec  # one multiplier per equality row, for the rows as given


@dataclass(frozen=True)
class KernelUnbounded:
    t0: Vec
    ray: Vec


@dataclass(frozen=True)
class KernelInfeasible:
    """Certificate ``g`` with ``g^T M <= 0`` componentwise and ``g^T rhs > 0``."""

    farkas: Vec


KernelOutcome = KernelOptimal | KernelUnbounded | KernelInfeasible


class _Program:
    """The work of :func:`solve_standard_form` that depends on ``M`` alone, done
    once for any number of ``(rhs, obj)`` (see the module docstring).  A solve
    reads it and changes none of it."""

    __slots__ = ("ncols", "kappa", "K", "units", "L", "rows", "cols")

    def __init__(self, M: Sequence[Sequence], ncols: int):
        for i, src in enumerate(M):
            if len(src) != ncols:
                raise DimensionMismatchError(f"row {i} width", ncols, len(src))
        if not {*map(type, chain(*M))} <= {int, Q}:
            for i, src in enumerate(M):
                for j, a in enumerate(src):
                    _exact(a, f"M row {i} entry {j}")
        self.ncols = ncols
        self.kappa = kappa = [lcm(*[a.denominator for a in col]) for col in zip(*M)] or [1] * ncols
        self.K = [[a.numerator * (k // a.denominator) for a, k in zip(src, kappa)] for src in M]
        # (j, i, s): column j is s * e_i, which starts the basis in row i when s is that row's sign
        self.units = [
            (j, col.index(s), s)
            for j, col in enumerate(zip(*self.K))
            if kappa[j] == 1 and col.count(0) == len(col) - 1 and (s := sum(col)) in (1, -1)
        ]
        self.L = L = lcm(*[a.denominator for a in chain(*M)])
        self.rows = [[a.numerator * (L // a.denominator) for a in row] for row in M]
        self.cols = list(zip(*self.rows)) or [()] * ncols


def solve_standard_form(M: Sequence[Sequence] | _Program, rhs: Sequence, obj: Sequence) -> KernelOutcome:
    """Maximize ``<obj, t>`` over ``M t = rhs, t >= 0`` with certified outcomes; an entry
    that is not an ``int`` or a ``Fraction`` (a ``bool`` too) is refused by :func:`_exact`.
    ``M`` is rows, or the :class:`_Program` of rows prepared for many solves."""
    P = M if isinstance(M, _Program) else _Program(M, len(obj))
    ncols, nrows, kappa = P.ncols, len(P.K), P.kappa
    if len(obj) != ncols:
        raise DimensionMismatchError("obj length", ncols, len(obj))
    if len(rhs) != nrows:
        raise DimensionMismatchError("rhs length", nrows, len(rhs))
    if not {*map(type, chain(rhs, obj))} <= {int, Q}:
        for name, src in (("rhs", rhs), ("obj", obj)):
            for j, a in enumerate(src):
                _exact(a, f"{name} entry {j}")

    # Integer tableau: P's rows, the rhs scaled by sigma, the phase-2 costs
    # by tau, each the lcm of the denominators it clears; a row with a
    # negative rhs is negated.
    sigma = lcm(*[r.denominator for r in rhs])
    tau = lcm(*[c.denominator for c in obj])
    flip = [-1 if r.numerator < 0 else 1 for r in rhs]
    basis = [-1] * nrows
    for j, i, s in P.units:
        if s == flip[i] and basis[i] == -1:
            basis[i] = j
    unit_col = list(basis)  # a column that started as e_i, used to read duals

    need_art = [i for i in range(nrows) if basis[i] == -1]
    total_cols = ncols + len(need_art)
    art = [0] * len(need_art)
    tab = []
    for src, r, f in zip(P.K, rhs, flip):
        row = src + art if f > 0 else [-a for a in src] + art  # a new row: P is not changed
        row.append(f * r.numerator * (sigma // r.denominator))
        tab.append(row)
    for col, i in enumerate(need_art, ncols):
        tab[i][col] = 1
        basis[i] = unit_col[i] = col
    row_ids = list(range(nrows))
    d = 1  # the shared determinant: the rational tableau is tab / d

    def pivot(pr: int, pc: int) -> None:
        nonlocal d
        if tab[pr][pc] < 0:
            # Negating the pivot row negates the whole tableau after the
            # step, d included, so d stays positive and the sign of every
            # entry is the sign of the rational entry.
            tab[pr] = [-a for a in tab[pr]]
        d = _bareiss_pivot(tab, pr, pc, d)
        basis[pr] = pc

    def run(costs: List[int]) -> Tuple[List[int], int]:
        """Bland-rule iteration with the objective row ``d * (costs - costs_B
        B^-1 [M | rhs])`` pivoted along as the tableau's last row; returns that
        row and the entering column of an improving ray (-1 at an optimum)."""
        m = len(tab)
        objrow = [d * c for c in costs] + [0]
        for i in range(m):
            f = costs[basis[i]]
            if f:
                objrow = [a - f * b for a, b in zip(objrow, tab[i])]
        tab.append(objrow)
        while True:
            objrow = tab[m]
            pc = next((j for j in range(ncols) if objrow[j] > 0), -1)
            if pc < 0:
                break
            # Ratio test by cross-multiplication; ties go to the lowest
            # basic column.
            best = -1
            for i in range(m):
                a = tab[i][pc]
                if a > 0:
                    b = tab[i][-1]
                    if best < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[best]
                    ):
                        best, best_a, best_b = i, a, b
            if best < 0:
                break
            pivot(best, pc)
        return tab.pop(), pc

    if need_art:
        phase1 = [0] * ncols + [-1] * len(need_art)
        objrow, pc = run(phase1)
        if pc >= 0:
            raise InternalError("phase-1 objective is bounded above by zero")
        if objrow[-1] != 0:
            # Infeasible: assemble the Farkas certificate from the row duals.
            g = (-flip[i] * (d * phase1[col] - objrow[col]) for i, col in zip(row_ids, unit_col))
            return _verified(P, rhs, obj, KernelInfeasible(tuple(_ratio(a, d) for a in g)))
        # Feasible: drive artificial columns out of the basis, dropping any
        # row that has become identically zero (a redundant equality).
        to_drop = []
        for i in range(len(tab)):
            if basis[i] >= ncols:
                pc = next((j for j in range(ncols) if tab[i][j]), -1)
                if pc < 0:
                    if tab[i][-1] != 0:
                        raise InternalError("redundant row with nonzero rhs after phase 1")
                    to_drop.append(i)
                else:
                    pivot(i, pc)
        for i in reversed(to_drop):
            del tab[i], basis[i], unit_col[i], row_ids[i]

    costs2 = [k * c.numerator * (tau // c.denominator) for k, c in zip(kappa, obj)]
    costs2 += [0] * (total_cols - ncols)
    objrow, pc = run(costs2)

    def current_point() -> Vec:
        t = [ZERO] * ncols
        for i, bcol in enumerate(basis):
            if bcol >= ncols:
                raise InternalError("artificial variable still basic after phase 1")
            t[bcol] = _ratio(kappa[bcol] * tab[i][-1], sigma * d)
        return tuple(t)

    if pc >= 0:
        if pc >= ncols:
            raise InternalError("artificial column selected as unbounded direction")
        ray = [ZERO] * ncols
        ray[pc] = ONE
        for i, brow in enumerate(tab):
            ray[basis[i]] = _ratio(-kappa[basis[i]] * brow[pc], kappa[pc] * d)
        return _verified(P, rhs, obj, KernelUnbounded(current_point(), tuple(ray)))
    t = current_point()
    value = _ratio(-objrow[-1], sigma * tau * d)
    duals = [ZERO] * nrows
    for i, col in zip(row_ids, unit_col):
        duals[i] = _ratio(flip[i] * (d * costs2[col] - objrow[col]), tau * d)
    return _verified(P, rhs, obj, KernelOptimal(t, value, tuple(duals)))


def _verified(P: _Program, rhs, obj, out: KernelOutcome) -> KernelOutcome:
    """``out`` if its certificate holds exactly for the program
    :func:`solve_standard_form` prepared, ``P``, else :class:`InternalError`;
    the checks run in integers, on the checker's own rows of ``M``, as the
    module docstring says."""
    L, rows, cols = P.L, P.rows, P.cols
    (R, S), (C, E) = _integer_point(rhs), _integer_point(obj)
    if isinstance(out, KernelInfeasible):
        G = _integer_point(out.farkas)[0]
        if any(sum(map(mul, G, col)) > 0 for col in cols):
            raise InternalError("farkas certificate fails g^T M <= 0")
        if sum(map(mul, G, R)) <= 0:
            raise InternalError("farkas certificate fails g^T rhs > 0")
        return out
    T, D = _integer_point(out.t0 if isinstance(out, KernelUnbounded) else out.t)
    if any(v < 0 for v in T):
        raise InternalError("primal point has a negative coordinate")
    if any(sum(map(mul, row, T)) * S != r * L * D for row, r in zip(rows, R)):
        raise InternalError("primal point violates an equality row")
    if isinstance(out, KernelUnbounded):
        ray = _integer_point(out.ray)[0]
        if any(sum(map(mul, row, ray)) for row in rows):
            raise InternalError("unbounded ray is not in the kernel of M")
        if any(r < 0 for r in ray):
            raise InternalError("unbounded ray has a negative component")
        if sum(map(mul, C, ray)) <= 0:
            raise InternalError("unbounded ray does not improve the objective")
        return out
    vn, vd = out.value.numerator, out.value.denominator
    if sum(map(mul, C, T)) * vd != vn * E * D:
        raise InternalError("objective value mismatch")
    Y, F = _integer_point(out.duals)
    if any(c * F * L > sum(map(mul, Y, col)) * E for c, col in zip(C, cols)):
        raise InternalError("positive reduced cost at claimed optimum")
    if sum(map(mul, Y, R)) * vd != vn * F * S:
        raise InternalError("strong duality violated")
    return out


# ---------------------------------------------------------------------------
# H-form wrappers
# ---------------------------------------------------------------------------


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve the H-form program; outcomes are verified exactly before return.

    The kernel sees free variables split and slacks added: its columns are
    ``(u, w, s)`` with ``x = u - w`` and ``A x + s = b``, and its objective is
    ``(c, -c, 0)``.  The matrix ``[A | -A | I]`` is prepared once per
    polyhedron (:attr:`HPolyhedron._split`), so a call builds only the
    objective.  At an optimal basis at most one of ``u_k``, ``w_k`` is
    nonzero (their columns are opposite), so ``x_k`` is read from that one,
    and an exact 0, 1 or -1 in ``x`` is a shared constant.  The kernel's check
    of that program is the only check, because each of its identities is an
    H-form one in these coordinates:

    - ``M t = b`` with ``t >= 0``: ``x`` is feasible and ``s = b - A x``, so
      the active set is ``{i : s_i = 0}``;
    - no positive reduced cost: the ``u`` and ``w`` columns give
      ``A^T y >= c`` and ``A^T y <= c``, so ``A^T y = c``, and the slack
      columns give ``y >= 0``;
    - strong duality ``<c, x> = <b, y>`` with ``A^T y = c`` gives
      ``<y, s> = 0``, which with ``y, s >= 0`` is complementary slackness;
    - a ray ``r >= 0`` with ``M r = 0`` gives ``A d = -r_s <= 0`` for
      ``d = r_u - r_w``, and ``<c, d> = <obj, r> > 0``;
    - a Farkas vector ``g`` with ``g^T M <= 0``: the ``u`` and ``w`` columns
      give ``g^T A = 0`` and the slack columns ``g <= 0``, so ``-g`` is the
      H-form certificate, and ``-g^T b < 0``."""
    _of_type(lp, LinearProgram, "lp")
    P = lp.constraints
    n, m = P.dim, P.m
    obj = [*lp.objective, *[-c for c in lp.objective], *[ZERO] * m]
    res = solve_standard_form(P._split, P.b, obj)
    if isinstance(res, KernelOptimal):
        u, w = res.t[:n], res.t[n : 2 * n]
        x = tuple(a if not b else a - b if a else _MINUS_ONE if b is ONE else -b for a, b in zip(u, w))
        active = frozenset(i for i in range(m) if res.t[2 * n + i] == 0)
        return Optimal(x, res.value, res.duals, active)
    if isinstance(res, KernelUnbounded):
        x0 = tuple(res.t0[k] - res.t0[n + k] for k in range(n))
        return Unbounded(x0, tuple(res.ray[k] - res.ray[n + k] for k in range(n)))
    return Infeasible(tuple(-g for g in res.farkas))


def feasible_point(P: HPolyhedron) -> Point | Infeasible:
    """A feasible point of ``P``, or a Farkas certificate: :func:`solve_lp`
    with the zero objective, so the kernel stops at its first feasible basis."""
    _of_type(P, HPolyhedron, "P", "an")
    res = solve_lp(LinearProgram(zeros(P.dim), P))
    if isinstance(res, Optimal):
        return Point(res.x)
    if isinstance(res, Infeasible):
        return res
    raise InternalError("feasibility program cannot be unbounded")
