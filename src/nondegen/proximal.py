"""Exact proximal maps and critical points of quadratically tilted functions.

``prox(f, c)`` minimizes ``f(x) + 1/2 |x - c|^2`` by enumerating candidate
active sets, solving each square KKT equality system in exact arithmetic, and
keeping the (necessarily unique) candidate whose multipliers pass all sign
checks.  The sign test runs on a support's multipliers as soon as they are
solved, so a support with a negative multiplier never has its point built.
Carathéodory's theorem caps useful supports at ``n + 1`` generators;
minimal supports give nonsingular systems, so nothing is missed by skipping
singular ones.  The x-block of every KKT system is ``x_coef * I``, so ``x`` is
eliminated by a Schur complement: each support costs one s x s solve in its
multipliers, s = |J| + |I| <= n + 1, built from one Gram matrix per call.

Each enumeration, here and in :func:`~nondegen.experiments.construct_degenerate`,
first passes :func:`_check_bound`: a ``PolyhedralFunction`` with at most
``$GENERIC_NONDEGEN_ENUM_BOUND`` (default 20) pieces plus constraints.

Each support's system reaches the eliminator as integer rows: the Gram
matrix and the right-hand sides are built in integers once per call from the
generators' integer form.  The multipliers are the eliminated rows over the
last pivot, their signs are tested as integers, and a support that passes
builds ``Fraction``s only for its point ``x``, one integer sum per coordinate
over the same pivot.  Its multipliers stay integers through the read-off's
rebuild check, and become ``Fraction``s only inside a kept Nondegenerate
verdict.

``minty_transport`` composes the prox of the convex part ``g`` into the map
``c -> (x, c - (1 + rho) x)`` that carries subgradients of ``g`` at ``x`` to
subgradients of ``f = g - (rho/2)|.|^2`` — including their boundary/interior
status.  ``find_critical_points`` enumerates *all* solutions of
``v + rho x in dg(x)`` the same way and certifies each one.  Both run one
candidate loop, :func:`_stationary_points`, whose certificate check is the
exact rebuild in the shared read-off (:func:`~nondegen.functions._read_off`),
so ``prox`` runs no LP.  A critical point reached by a support equal to its
active set takes the read-off's verdict: that support's generators are
affinely independent, so its multipliers are the only representation of
``v + rho x``.  A critical point is always reached by a support inside its
active set with nonnegative multipliers (a Carathéodory representation has
independent lifted generators, so its system is nonsingular); a point that
no such support reaches is not critical, with no LP.  Only the points left
go through :func:`~nondegen.functions.certify`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import List, Tuple

from .errors import EnumerationBoundError, InfeasibleDomainError, InternalError, OutsideDomainError
from .functions import (
    NOT_CRITICAL,
    CertificationResult,
    PolyhedralFunction,
    _active_structure,
    _read_off,
    certify,
)
from .linalg import (
    ONE, Rat, Vec, _eliminate, _exact, _integer_point, _of_type, _parse_integer, _ratio, vec,
)
from .simplex import Infeasible, feasible_point

DEFAULT_ENUM_BOUND = 20
ENUM_BOUND_ENV = "GENERIC_NONDEGEN_ENUM_BOUND"


def resolve_enum_bound() -> int:
    """``$GENERIC_NONDEGEN_ENUM_BOUND`` if set, else 20; a value that is not
    a nonnegative integer raises ``ValueError``."""
    env = os.environ.get(ENUM_BOUND_ENV)
    if env is None:
        return DEFAULT_ENUM_BOUND
    try:
        bound = _parse_integer(env)
    except ValueError:
        raise ValueError(f"{ENUM_BOUND_ENV} must be an integer, got {env!r}") from None
    if bound < 0:
        raise ValueError(f"enumeration bound must be nonnegative, got {bound}")
    return bound


@dataclass(frozen=True)
class LowerC2Instance:
    """``f = g - (rho/2) |.|^2`` with convex polyhedral ``g`` and ``rho > 0``."""

    g: PolyhedralFunction
    rho: Rat

    def __post_init__(self):
        _of_type(self.g, PolyhedralFunction, "g")
        if not _exact(self.rho, "rho") > 0:
            raise ValueError("rho must be positive")


def _check_bound(f: PolyhedralFunction) -> int:
    """The bound, once ``f`` has no more generators than it."""
    _of_type(f, PolyhedralFunction, "f")
    limit = resolve_enum_bound()
    count = len(f.pieces) + f.domain.m
    if count > limit:
        raise EnumerationBoundError(count, limit)
    return limit


def _raise_if_infeasible(f: PolyhedralFunction) -> None:
    """Raise ``InfeasibleDomainError`` with a Farkas vector over ``f.domain``
    if it is empty.  Callers whose results are domain points run this LP only
    when they found none."""
    fp = feasible_point(f.domain)
    if isinstance(fp, Infeasible):
        raise InfeasibleDomainError(fp.farkas)


def _kkt_solutions(f: PolyhedralFunction, x_coef: Rat, rhs_vec: Vec):
    """Solutions of the square stationarity systems over candidate supports.

    For each support (J, I) with J a nonempty piece subset, I a constraint
    subset, and |J| + |I| <= n + 1, solve

        x_coef * x + sum_J mu_j c_j + sum_I lam_i a_i = rhs_vec
        sum_J mu_j = 1
        pieces in J tie pairwise;  constraints in I hold with equality.

    ``x_coef`` is nonzero, so ``x = (rhs_vec - sum_g z_g g) / x_coef`` for the
    support's generators ``g`` and multipliers ``z = (mu, lam)``; substituted,
    it leaves a system in ``z`` alone whose determinant is the full one's over
    ``x_coef**n``, so exactly the same supports are uniquely solvable.

    The work is in integers up to the sign test.  One
    :func:`~nondegen.linalg._integer_point` scales the generators and
    ``rhs_vec`` together, ``G / hscale`` and ``R / hscale``, and one the
    offsets, ``off / L``; the Gram matrix is ``L·G_i·G_j`` and the
    right-hand sides ``t`` are ``L·G_i·R + off_i·hscale²`` (one factor per
    call, which keeps every system's solutions).  Each support's rows
    ``[rows | rhs]`` go through :func:`~nondegen.linalg._eliminate`: fewer
    than ``s`` pivots means a singular system, and otherwise the multipliers are ``z = Z / D``, with
    ``Z`` the pivot rows' right-hand sides and ``D`` the last pivot, both
    negated when ``D < 0``.  The signs are tested on ``Z``, and only a
    support that passes builds ``Fraction``s: its ``x``, one integer sum per
    coordinate over ``Z`` and ``D``, each through
    :func:`~nondegen.linalg._ratio`, so an exact 0 or 1 is the shared
    ``ZERO`` or ``ONE``.  No multiplier becomes a ``Fraction`` here.

    Yields (x, Z, D, J, I) for every uniquely solvable system whose
    multipliers are all nonnegative: ``Z`` holds the integer multipliers,
    J's first, then I's, over the positive ``D``.  The sign test runs before
    ``x`` is built.  Supports exceeding the Carathéodory cap or yielding singular
    systems cannot hide a solution that no minimal support produces, so they
    are skipped.  Skipping a uniquely solvable support with a negative
    multiplier loses nothing either: no nonnegative smaller support, padded
    with zeros, solves its system.
    """
    n = f.dim
    pieces = f.terms
    k = len(pieces)
    m = f.domain.m
    gens = [c for c, _ in pieces] + list(f.domain.A)
    nk = len(gens)
    # generator g is G_g / hscale and rhs_vec is R / hscale
    H, hscale = _integer_point([q for g in gens for q in g] + list(rhs_vec))
    gen_num = [H[i * n : i * n + n] for i in range(nk)]
    rhs_num = H[nk * n :]
    # the tie of j with j0 reads <c_j - c_j0, sum_g z_g g> = t[j] - t[j0], and
    # a tight constraint <a_i, sum_g z_g g> = t[k + i]; the Gram matrix and t
    # are scaled by L hscale^2, with L the offsets' denominator
    off, L = _integer_point([x_coef * d for _, d in pieces] + [-x_coef * b for b in f.domain.b])
    hh = hscale * hscale
    gram = [[L * sum(map(mul, G, G2)) for G2 in gen_num] for G in gen_num]
    t = [L * sum(map(mul, G, rhs_num)) + o * hh for G, o in zip(gen_num, off)]
    # with z = Z / D, x_d is (R[d] D - sum_g Z_g G_g[d]) / (hscale D x_coef)
    x_den = hscale * x_coef.numerator
    for jsize in range(1, min(k, n + 1) + 1):
        for J in combinations(range(k), jsize):
            j0 = J[0]
            for isize in range(0, min(m, n + 1 - jsize) + 1):
                for I in combinations(range(m), isize):
                    support = [*J, *(k + i for i in I)]
                    s = jsize + isize
                    M = [[1] * jsize + [0] * isize + [1]]
                    for j in J[1:]:
                        M.append([gram[j][g] - gram[j0][g] for g in support] + [t[j] - t[j0]])
                    for i in I:
                        M.append([gram[k + i][g] for g in support] + [t[k + i]])
                    pivots, D = _eliminate(M, s)
                    if len(pivots) < s:
                        continue
                    # a square system of full rank: row r / D is z_r.  D is a
                    # Gram determinant here, so positive, but z = -Z / -D too
                    Z = [row[s] for row in M]
                    if D < 0:
                        Z, D = [-a for a in Z], -D
                    if any(a < 0 for a in Z):
                        continue
                    num = [r * D for r in rhs_num]
                    for zg, g in zip(Z, support):
                        if zg:
                            num = [a - zg * b for a, b in zip(num, gen_num[g])]
                    den = x_den * D
                    # from lists: tuple(generator) grows the tuple free lists on every call
                    x = tuple([_ratio(a * x_coef.denominator, den) for a in num])
                    yield x, Z, D, J, I


def _stationary_points(g: PolyhedralFunction, x_coef: Rat, rhs_vec: Vec):
    """Every domain point ``x`` that a support of :func:`_kkt_solutions`
    inside its active set reaches, mapped to ``(w, verdict)`` for
    ``w = rhs_vec - x_coef x``.  The multipliers are nonnegative:
    :func:`_kkt_solutions` yields no other.

    The integer multipliers ``Z``, spread over the active generators with 0
    off the support, pass :func:`~nondegen.functions._read_off`'s exact
    rebuild of ``w`` over the same ``D``; its verdict is kept when the
    support is the whole active set and is None otherwise.
    """
    found = {}
    for x, Z, D, J, I in _kkt_solutions(g, x_coef, rhs_vec):
        if x in found and found[x][1]:
            continue
        try:
            active = _active_structure(g, x)
        except OutsideDomainError:
            continue
        _, _, active_pieces, active_cons = active
        # the support ties J to J[0] and makes I tight, so it lies in the
        # active set iff J[0] is at the top
        if J[0] not in active_pieces:
            continue
        w = tuple(r - x_coef * xi for r, xi in zip(rhs_vec, x))
        on_j, on_i = dict(zip(J, Z)), dict(zip(I, Z[len(J) :]))
        z = [*[on_j.get(j, 0) for j in active_pieces], *[on_i.get(i, 0) for i in active_cons]]
        verdict = _read_off(g, w, active, (z, D))
        found[x] = (w, verdict if J == active_pieces and I == active_cons else None)
    return found


def prox(f: PolyhedralFunction, c: Vec) -> Vec:
    """The unique minimizer of ``f(x) + 1/2 |x - c|^2``, exactly: the one
    point of :func:`_stationary_points` with ``x_coef = 1``.  No LP runs
    unless there is none, to raise ``InfeasibleDomainError``."""
    _check_bound(f)
    accepted = _stationary_points(f, ONE, vec(c, f.dim, "center dimension"))
    if not accepted:
        _raise_if_infeasible(f)
        raise InternalError("no KKT candidate passed the sign checks")
    if len(accepted) > 1:
        raise InternalError("strictly convex prox objective admitted two minimizers")
    (x_star,) = accepted
    return x_star


def minty_transport(inst: LowerC2Instance, c: Vec) -> Tuple[Vec, Vec]:
    """``x = prox(g, c)`` and ``h = c - (1 + rho) x``; then ``h`` is a
    subgradient of ``f = g - (rho/2)|.|^2`` at ``x``, with the same
    interior/boundary status that ``c`` has against ``dg(x) + x``."""
    _of_type(inst, LowerC2Instance, "inst")
    x = prox(inst.g, c)
    scale = ONE + inst.rho
    h = tuple(ci - scale * xi for ci, xi in zip(c, x))
    return x, h


def find_critical_points(inst: LowerC2Instance, v: Vec) -> List[Tuple[Vec, CertificationResult]]:
    """All critical points of ``f_v = g - (rho/2)|.|^2 - <v, .>`` with their
    nondegeneracy certification, sorted by coordinates.

    ``x`` is critical iff ``v + rho x in dg(x)``; the candidates are
    :func:`_stationary_points` with ``x_coef = -rho``, as in prox.  A point
    that some candidate reaches with the active set at ``x`` as its support
    keeps the verdict :func:`~nondegen.functions._read_off` gave that
    candidate's multipliers, with no LP; any other point in the map is
    certified by :func:`certify`, and a point outside the map is not
    critical.  A point in the map has ``v + rho x`` rebuilt from nonnegative
    multipliers over its active generators, so a NotCritical verdict for it
    raises ``InternalError``.  An empty domain raises
    ``InfeasibleDomainError``, as in :func:`prox`.
    """
    _of_type(inst, LowerC2Instance, "inst")
    g = inst.g
    _check_bound(g)
    points = _stationary_points(g, -inst.rho, vec(v, g.dim, "tilt dimension"))
    verdicts = {x: verdict or certify(g, w, x) for x, (w, verdict) in points.items()}
    if NOT_CRITICAL in verdicts.values():
        raise InternalError("a stationary point was certified not critical")
    found = sorted(verdicts.items())
    if not found:
        _raise_if_infeasible(g)
    return found
