"""Polyhedral functions and the nondegeneracy certifier.

A :class:`PolyhedralFunction` is a max of affine pieces restricted to an
H-polyhedron (value +inf outside).  Its subdifferential at a point is the
finitely generated set

    conv{ gradients of active pieces } + cone{ normals of active constraints },

activity meaning exact rational equality — there are no tolerances anywhere.
:func:`certify` classifies a direction ``v`` against that set: strictly inside
its relative interior (nondegenerate), on the relative boundary (degenerate
critical), or outside (not critical).  :func:`strict_complementarity` exposes
the LP face of the same trichotomy.

:func:`_read_off`, the one place where multipliers become a verdict, decides
the same trichotomy with no LP when the lifted active generators are linearly
independent: it eliminates the lifted system's rows as integers, checks the
integer multipliers, and builds ``Fraction``s only for a Nondegenerate verdict.

Two conventions about the data ``(pieces, domain)`` live here and nowhere
else: a function without pieces is the zero function on its domain, read
through :attr:`PolyhedralFunction.terms`, and the argmin set of a tilted
function is the polyhedron built by :func:`argmin_face`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Dict, List, Optional, Tuple

from .errors import DimensionMismatchError, InternalError, NotOptimalError, OutsideDomainError
from .geometry import (
    Boundary,
    GeneratedSet,
    Interior,
    Outside,
    _lifted,
    ri_membership,
)
from .linalg import (
    ONE,
    Q,
    Rat,
    Vec,
    ZERO,
    _eliminate,
    _exact,
    _integer_point,
    _of_type,
    _pairs,
    _ratio,
    _size,
    dot,
    mat,
    vec,
    vsub,
    zeros,
)
from .simplex import (
    HPolyhedron,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    solve_lp,
)

Piece = Tuple[Vec, Rat]  # (c, d) meaning <c, x> + d


@dataclass(frozen=True)
class PolyhedralFunction:
    """max_j (<c_j, x> + d_j) on ``domain``, +inf outside; no pieces means the
    zero function on the domain, whose one piece :attr:`terms` supplies."""

    pieces: Tuple[Piece, ...]
    domain: HPolyhedron
    dim: int

    def __post_init__(self):
        if _of_type(self.domain, HPolyhedron, "domain", "an").dim != _size(self.dim, "dim"):
            raise DimensionMismatchError("domain dimension", self.dim, self.domain.dim)
        pieces = _pairs(self.pieces, "pieces", "(gradient, offset)")
        gradients = mat([c for c, _ in pieces], self.dim, "piece gradient")
        offsets = vec([d for _, d in pieces], what="piece offset")
        object.__setattr__(self, "pieces", tuple(zip(gradients, offsets)))

    @cached_property
    def terms(self) -> Tuple[Piece, ...]:
        """The pieces, or the single zero piece ``(0, 0)`` when there are none.
        Kept from the first use, like :attr:`integer_terms`."""
        return self.pieces if self.pieces else ((zeros(self.dim), ZERO),)

    @cached_property
    def integer_terms(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """The rows ``(*C_j, E_j) = L·(*c_j, d_j)`` of :attr:`terms` and ``L``,
        their common denominator: one :func:`~nondegen.linalg._integer_point`
        of the flattened terms.  The scale is common to all terms, so the
        piece values at a point compare as the rows' values do.  Kept from
        the first use; not a field, so ``==``, ``hash`` and ``repr`` do not
        see it."""
        flat, L = _integer_point([q for c, d in self.terms for q in (*c, d)])
        w = self.dim + 1
        return tuple(tuple(flat[i : i + w]) for i in range(0, len(flat), w)), L

    @cached_property
    def _points(self) -> Dict[Vec, Vec]:
        """Each point that :func:`minimize_perturbed` or
        :func:`~nondegen.experiments._candidate_points` has returned, keyed by itself:
        many tilts, or many enumerations, keep one tuple per point, not one per call.
        A minimizer is a basic solution of the epigraph LP and a candidate the point of
        a subset of finitely many planes, so there are finitely many.  Not a field."""
        return {}

    @cached_property
    def _cells(self) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], GeneratedSet]:
        """The subdifferential :func:`certify` reads at a point, keyed by the point's
        active pieces and active constraints, which determine it.  Each set keeps its
        prepared relative-interior program (:attr:`~nondegen.geometry.GeneratedSet._ri_program`),
        so certifying many tilts at one point prepares it once.  The dict grows only
        with the cells visited.  Not a field."""
        return {}

    @cached_property
    def _epigraph(self) -> HPolyhedron:
        """The constraints of :func:`minimize_perturbed`'s LP over ``(x, t)``:
        ``<c_j, x> - t <= -d_j`` for each of :attr:`terms`, then ``A x <= b``.
        Kept from the first tilt with its prepared program
        (:attr:`HPolyhedron._split`), so that a later tilt builds only its
        objective.  Not a field."""
        rows = tuple((*c, -ONE) for c, _ in self.terms) + tuple((*a, ZERO) for a in self.domain.A)
        rhs = tuple(-d for _, d in self.terms) + self.domain.b
        return HPolyhedron(rows, rhs, self.dim + 1)

    @classmethod
    def build(cls, pieces, constraint_rows, constraint_rhs, dim: int) -> "PolyhedralFunction":
        """The constructor over a constraint list: the pieces are checked there, once."""
        return cls(pieces, HPolyhedron(constraint_rows, constraint_rhs, dim), dim)

    @classmethod
    def indicator(cls, P: HPolyhedron) -> "PolyhedralFunction":
        return cls((), P, P.dim)

    @classmethod
    def max_affine(cls, pieces, dim: int) -> "PolyhedralFunction":
        return cls.build(pieces, [], [], dim)


def evaluate(f: PolyhedralFunction, x: Vec) -> Rat | float:
    """Exact value of ``f`` at ``x``; ``math.inf`` outside the domain.  With
    ``x = X / D``, converted once for :meth:`HPolyhedron._scan` and the pieces,
    it is ``max_j (C_j·X + E_j·D) / (L·D)`` on :attr:`PolyhedralFunction.integer_terms`."""
    _of_type(f, PolyhedralFunction, "f")
    x = vec(x, f.dim, "point dimension")
    X, D = _integer_point(x)
    if f.domain._scan(X, D)[0] is not None:
        return math.inf
    rows, L = f.integer_terms
    return Q(max(sum(map(mul, row, X)) + row[-1] * D for row in rows), L * D)


def _active_structure(f: PolyhedralFunction, x: Vec):
    """(points, rays, active piece indices, active constraint indices) at ``x``.

    Raises when ``x`` is outside the domain (the subdifferential is empty
    there by convention, surfaced as an error, never as an empty set), naming
    the first violated row.

    With ``x = X / D``, :meth:`HPolyhedron._scan` gives the violated and the
    active rows; the active pieces are those where ``C_j·X + E_j·D`` takes
    its maximum over the rows of :attr:`PolyhedralFunction.integer_terms`.
    """
    if len(x) != f.dim:
        raise DimensionMismatchError("point dimension", f.dim, len(x))
    X, D = _integer_point(x)
    violated, active_cons = f.domain._scan(X, D)
    if violated is not None:
        raise OutsideDomainError(violated)
    values = [sum(map(mul, row, X)) + row[-1] * D for row in f.integer_terms[0]]
    top = max(values)
    active_pieces = tuple(j for j, val in enumerate(values) if val == top)
    terms = f.terms
    points = tuple(terms[j][0] for j in active_pieces)
    rays = tuple(f.domain.A[i] for i in active_cons)
    return points, rays, active_pieces, active_cons


def subdifferential(f: PolyhedralFunction, x: Vec) -> GeneratedSet:
    """The convex subdifferential at a domain point: convex hull of active
    piece gradients plus the cone of active constraint normals."""
    _of_type(f, PolyhedralFunction, "f")
    points, rays, _, _ = _active_structure(f, vec(x, f.dim, "point dimension"))
    return GeneratedSet(points, rays, f.dim)


@dataclass(frozen=True, slots=True)
class Minimizer:
    x: Vec
    value: Rat


MinimizeOutcome = Minimizer | Unbounded | Infeasible


def minimize_perturbed(f: PolyhedralFunction, v: Vec) -> MinimizeOutcome:
    """Minimize ``f(x) - <v, x>`` via the epigraph LP over ``(x, t)``:

        maximize <v, x> - t   s.t.   <c_j, x> - t <= -d_j,   A x <= b.

    Returns one exact minimizer (the deterministic solver's choice, the same
    tuple for the same point: :attr:`PolyhedralFunction._points`), an
    improving ray, or infeasibility (improper ``f``) with a Farkas vector over
    the domain rows: the ``t`` column forces the term rows' multipliers to 0.
    At the checked optimum ``t = f(x)``: the rows give ``t >= f(x)``, and a
    slack ``t`` could be lowered to beat the optimal value.  The rows and the
    kernel's program of them are built on ``f``'s first tilt and kept
    (:attr:`PolyhedralFunction._epigraph`), so a tilt builds only its
    objective ``(v, -1)``."""
    _of_type(f, PolyhedralFunction, "f")
    v = vec(v, f.dim, "tilt dimension")
    n = f.dim
    res = solve_lp(LinearProgram((*v, -ONE), f._epigraph))
    if isinstance(res, Optimal):
        x = res.x[:n]
        x = f._points.setdefault(x, x)
        return Minimizer(x, res.x[n] - dot(v, x))
    if isinstance(res, Unbounded):
        return Unbounded(res.x0[:n], res.ray[:n])
    return Infeasible(res.farkas[len(f.terms):])


def argmin_face(f: PolyhedralFunction, v: Vec, value: Rat) -> HPolyhedron:
    """The argmin set of ``f - <v, .>`` when its minimum is ``value``:

        {x : A x <= b,  <c_j - v, x> <= value - d_j for every term j},

    with the domain rows first, then one row per term in order."""
    _of_type(f, PolyhedralFunction, "f")
    v = vec(v, f.dim, "tilt dimension")
    value = _exact(value, "value")
    terms = f.terms
    rows = list(f.domain.A) + [vsub(c, v) for c, _ in terms]
    rhs = list(f.domain.b) + [value - d for _, d in terms]
    return HPolyhedron(rows, rhs, f.dim)


def canonical_minimizer(f: PolyhedralFunction, v: Vec) -> MinimizeOutcome:
    """Like :func:`minimize_perturbed`, but pivot-order independent: among all
    minimizers, return the lexicographically greatest one.

    Each coordinate is maximized over the :func:`argmin_face` in turn, fixing
    the result before moving to the next.  When the argmin set is unbounded in
    some coordinate direction, that coordinate is kept from the point of the
    last Optimal refinement, else of the base solve (still deterministic, no
    longer canonical).  That point minimizes: the base one by the epigraph
    LP's checked optimum, a refinement's as the kernel checked it against
    every :func:`argmin_face` row, so ``f(x) - <v, x> <= value``."""
    res = minimize_perturbed(f, v)
    if not isinstance(res, Minimizer):
        return res
    n = f.dim
    face = argmin_face(f, v, res.value)
    rows: List[Vec] = list(face.A)
    rhs: List[Rat] = list(face.b)
    x = list(res.x)
    for d in range(n):
        e_d = tuple(ONE if j == d else ZERO for j in range(n))
        face = HPolyhedron(rows, rhs, n)
        step = solve_lp(LinearProgram(e_d, face))
        if isinstance(step, Optimal):
            x = list(step.x)
        elif not isinstance(step, Unbounded):
            raise InternalError("argmin polyhedron reported infeasible")
        rows.append(e_d)
        rhs.append(x[d])
        rows.append(tuple(-a for a in e_d))
        rhs.append(-x[d])
    return Minimizer(tuple(x), res.value)


@dataclass(frozen=True, slots=True)
class NotCritical:
    pass


@dataclass(frozen=True, slots=True)
class DegenerateCritical:
    pass


# each fieldless verdict is returned as one shared instance, so a caller
# that keeps many verdicts keeps no bytes per verdict
NOT_CRITICAL = NotCritical()
DEGENERATE_CRITICAL = DegenerateCritical()


@dataclass(frozen=True, slots=True)
class Nondegenerate:
    """``v`` lies in the relative interior of the subdifferential.

    ``witness`` holds coefficients strictly positive on every active piece
    gradient and active constraint normal, so ``piece_weights`` and
    ``constraint_multipliers``, which scatter them over the full
    piece/constraint lists (zeros off the active set), are a strictly
    complementary dual certificate.
    """

    witness: Vec
    piece_weights: Vec
    constraint_multipliers: Vec


CertificationResult = NotCritical | DegenerateCritical | Nondegenerate


def certify(f: PolyhedralFunction, v: Vec, x_bar: Vec) -> CertificationResult:
    """Trichotomy of ``v`` against the subdifferential at ``x_bar``, by
    :func:`~nondegen.geometry.ri_membership`.  The subdifferential is read
    through :attr:`PolyhedralFunction._cells` by the active set at ``x_bar``,
    so its relative-interior program is prepared on the first tilt at that
    cell and later tilts there build only their right-hand side."""
    _of_type(f, PolyhedralFunction, "f")
    v = vec(v, f.dim, "direction dimension")
    x_bar = vec(x_bar, f.dim, "point dimension")
    points, rays, active_pieces, active_cons = _active_structure(f, x_bar)
    S = f._cells.get((active_pieces, active_cons))
    if S is None:
        S = f._cells[active_pieces, active_cons] = GeneratedSet(points, rays, f.dim)
    status = ri_membership(S, v)
    if isinstance(status, Outside):
        return NOT_CRITICAL
    if isinstance(status, Boundary):
        return DEGENERATE_CRITICAL
    assert isinstance(status, Interior)
    return _scattered(f, status.point_coeffs, status.ray_coeffs, active_pieces, active_cons)


def _scattered(
    f: PolyhedralFunction, point_coeffs: Vec, ray_coeffs: Vec, active_pieces, active_cons
) -> Nondegenerate:
    """The verdict of positive coefficients on the active piece gradients and
    constraint normals, scattered over all pieces and constraints."""
    pw = [ZERO] * len(f.terms)
    for coeff, j in zip(point_coeffs, active_pieces):
        pw[j] = coeff
    cm = [ZERO] * f.domain.m
    for coeff, i in zip(ray_coeffs, active_cons):
        cm[i] = coeff
    return Nondegenerate(point_coeffs + ray_coeffs, tuple(pw), tuple(cm))


def _read_off(f: PolyhedralFunction, w: Vec, active, given: Optional[Tuple[List[int], int]] = None):
    """``certify(f, w, x)`` read off the multipliers of ``w`` over the active
    generators at ``x``, with no LP; None when it cannot be.

    ``active`` is ``_active_structure(f, x)``.  The system is
    ``sum mu_j (c_j, 1) + sum lam_i (a_i, 0) = (w, 1)``, the one of
    :func:`~nondegen.geometry._lifted` over the lifted generators (a point
    with a trailing 1, a ray with a trailing 0), with each row of ``[M | rhs]``
    scaled to integers by one :func:`~nondegen.linalg._integer_point`.  The
    multipliers ``z = Z / d`` (points first, then rays) may be the caller's,
    ``given = (Z, d)`` with integers ``Z`` and ``d`` nonzero, read as they
    are; otherwise :func:`~nondegen.linalg._eliminate` reduces the integer
    rows and ``d`` is its last pivot.  No solution at all is
    NotCritical, and dependent generators leave the verdict undecided.
    Independence makes ``z`` the only representation of ``w`` as
    ``sum mu_j c_j + sum lam_i a_i`` with ``sum mu = 1``, so its signs, those
    of ``Z·d``, are the verdict (Rockafellar, Thm 6.9): all positive is
    Nondegenerate, a zero is DegenerateCritical, a negative is NotCritical.
    ``z`` must rebuild ``w`` exactly before any verdict is returned: each
    integer row ``R`` must give ``R·Z = R[-1]·d``, and a failed check raises
    ``InternalError``.  The check holds for any given ``z``, but the verdict
    counts only when the lifted generators are independent.  Given or
    solved for, the multipliers become ``Fraction``s only for a
    Nondegenerate verdict, each through :func:`~nondegen.linalg._ratio`, so
    an exact 1 is the shared ``ONE``.
    """
    points, rays, active_pieces, active_cons = active
    M, rhs = _lifted(points, rays, w)
    rows = [_integer_point((*row, r))[0] for row, r in zip(M, rhs)]
    ncols = len(points) + len(rays)
    if given is None:
        E = list(rows)
        pivots, d = _eliminate(E, ncols)
        if any(row[ncols] for row in E[len(pivots) :]):
            return NOT_CRITICAL
        if len(pivots) < ncols:
            return None
        Z = [row[ncols] for row in E[:ncols]]
    else:
        Z, d = given
    if any(sum(map(mul, row, Z)) != row[ncols] * d for row in rows):
        raise InternalError("multipliers do not rebuild the query")
    if any(c * d < 0 for c in Z):
        return NOT_CRITICAL
    if not all(Z):
        return DEGENERATE_CRITICAL
    z = tuple([_ratio(c, d) for c in Z])
    k = len(points)
    return _scattered(f, z[:k], z[k:], active_pieces, active_cons)


@dataclass(frozen=True, slots=True)
class Witness:
    """Dual-feasible multipliers, strictly positive exactly on the active set."""

    lam: Vec


def strict_complementarity(lp: LinearProgram, x_bar: Vec) -> Optional[Witness]:
    """A strictly complementary dual solution at the optimum ``x_bar`` of
    ``max <objective, x> over constraints``, or None when none exists.

    It is the kernel-checked witness of ``certify(indicator, objective,
    x_bar)``: positive exactly on the rows active at ``x_bar``, with
    ``A^T lam = objective``.  That verdict decides optimality as well, being
    NotCritical iff the objective is outside the normal cone at ``x_bar``;
    only then does :func:`solve_lp` run, for the exact ``gap`` or unboundedness.
    """
    _of_type(lp, LinearProgram, "lp")
    try:
        cert = certify(PolyhedralFunction.indicator(lp.constraints), lp.objective, x_bar)
    except OutsideDomainError as e:
        raise NotOptimalError(f"point violates constraint {e.index}") from None
    if cert is NOT_CRITICAL:
        res = solve_lp(lp)
        if isinstance(res, Unbounded):
            raise NotOptimalError("objective is unbounded above on the feasible set")
        gap = res.value - dot(lp.objective, x_bar)
        if gap == 0:
            raise InternalError("the point is optimal, but its objective is not in the normal cone")
        raise NotOptimalError("point is suboptimal", gap=gap)
    if cert is DEGENERATE_CRITICAL:
        return None
    return Witness(cert.constraint_multipliers)
