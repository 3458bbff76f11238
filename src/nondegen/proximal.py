"""Exact proximal maps and critical points of quadratically tilted functions.

``prox(f, c)`` minimizes ``f(x) + 1/2 |x - c|^2`` by enumerating candidate
active sets, solving each square KKT equality system in exact arithmetic, and
keeping the (necessarily unique) candidate whose multipliers pass all sign
checks.  Carathéodory's theorem caps useful supports at ``n + 1`` generators;
minimal supports give nonsingular systems, so nothing is missed by skipping
singular ones.  The x-block of every KKT system is ``x_coef * I``, so ``x`` is
eliminated by a Schur complement: each support costs one s x s solve in its
multipliers, s = |J| + |I| <= n + 1, built from one Gram matrix per call.

``minty_transport`` composes the prox of the convex part ``g`` into the map
``c -> (x, c - (1 + rho) x)`` that carries subgradients of ``g`` at ``x`` to
subgradients of ``f = g - (rho/2)|.|^2`` — including their boundary/interior
status.  ``find_critical_points`` enumerates *all* solutions of
``v + rho x in dg(x)`` the same way and certifies each one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from .errors import EnumerationBoundError, InfeasibleDomainError, InternalError
from .functions import (
    CertificationResult,
    NotCritical,
    PolyhedralFunction,
    certify,
    subdifferential,
)
from .geometry import member
from .linalg import ONE, Rat, Vec, ZERO, _parse_integer, dot, solve_linear, UniqueSolution, vsub
from .simplex import Infeasible, feasible_point

DEFAULT_ENUM_BOUND = 20
ENUM_BOUND_ENV = "GENERIC_NONDEGEN_ENUM_BOUND"


def resolve_enum_bound(bound: Optional[int]) -> int:
    """``bound`` if given, else ``$GENERIC_NONDEGEN_ENUM_BOUND``, else 20.

    A negative bound, or an environment value that is not an integer, raises
    ``ValueError``.
    """
    if bound is None:
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
        if not self.rho > 0:
            raise ValueError("rho must be positive")


def _check_bound(f: PolyhedralFunction, bound: Optional[int]) -> None:
    limit = resolve_enum_bound(bound)
    count = len(f.pieces) + f.domain.m
    if count > limit:
        raise EnumerationBoundError(count, limit)


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

    Yields (x, mu, lam, J, I) for every uniquely solvable system.  Supports
    exceeding the Carathéodory cap or yielding singular systems cannot hide a
    solution that no minimal support produces, so they are skipped.
    """
    n = f.dim
    pieces = f.terms
    k = len(pieces)
    m = f.domain.m
    gens = [c for c, _ in pieces] + list(f.domain.A)
    gram = [[dot(g, h) for h in gens] for g in gens]
    to_rhs = [dot(g, rhs_vec) for g in gens]
    for jsize in range(1, min(k, n + 1) + 1):
        for J in combinations(range(k), jsize):
            j0 = J[0]
            for isize in range(0, min(m, n + 1 - jsize) + 1):
                for I in combinations(range(m), isize):
                    support = [*J, *(k + i for i in I)]
                    rows = [[ONE] * jsize + [ZERO] * isize]
                    rhs = [ONE]
                    for j in J[1:]:
                        rows.append([gram[j][g] - gram[j0][g] for g in support])
                        rhs.append(to_rhs[j] - to_rhs[j0] - x_coef * (pieces[j0][1] - pieces[j][1]))
                    for i in I:
                        rows.append([gram[k + i][g] for g in support])
                        rhs.append(to_rhs[k + i] - x_coef * f.domain.b[i])
                    sol = solve_linear(rows, rhs)
                    if not isinstance(sol, UniqueSolution):
                        continue
                    z = sol.x
                    # from a list: tuple(generator) grows the tuple free lists on every call
                    x = tuple([
                        (rhs_vec[d] - sum(zg * gens[g][d] for zg, g in zip(z, support))) / x_coef
                        for d in range(n)
                    ])
                    yield x, z[:jsize], z[jsize:], J, I


def prox(f: PolyhedralFunction, c: Vec, enum_bound: Optional[int] = None) -> Vec:
    """The unique minimizer of ``f(x) + 1/2 |x - c|^2``, exactly."""
    _check_bound(f, enum_bound)
    pieces = f.terms
    accepted = set()
    for x, mu, lam, J, I in _kkt_solutions(f, ONE, c):
        if any(w < 0 for w in mu) or any(w < 0 for w in lam):
            continue
        if f.domain.violation_index(x) is not None:
            continue
        top = max(dot(cj, x) + dj for cj, dj in pieces)
        if dot(pieces[J[0]][0], x) + pieces[J[0]][1] != top:
            continue
        accepted.add(x)
    if not accepted:
        _raise_if_infeasible(f)
        raise InternalError("no KKT candidate passed the sign checks")
    if len(accepted) > 1:
        raise InternalError("strictly convex prox objective admitted two minimizers")
    (x_star,) = accepted
    if not member(subdifferential(f, x_star), vsub(c, x_star)):
        raise InternalError("prox optimality condition fails membership check")
    return x_star


def minty_transport(
    inst: LowerC2Instance, c: Vec, enum_bound: Optional[int] = None
) -> Tuple[Vec, Vec]:
    """``x = prox(g, c)`` and ``h = c - (1 + rho) x``; then ``h`` is a
    subgradient of ``f = g - (rho/2)|.|^2`` at ``x``, with the same
    interior/boundary status that ``c`` has against ``dg(x) + x``."""
    x = prox(inst.g, c, enum_bound)
    scale = ONE + inst.rho
    h = tuple(ci - scale * xi for ci, xi in zip(c, x))
    return x, h


def find_critical_points(
    inst: LowerC2Instance, v: Vec, enum_bound: Optional[int] = None
) -> List[Tuple[Vec, CertificationResult]]:
    """All critical points of ``f_v = g - (rho/2)|.|^2 - <v, .>`` with their
    nondegeneracy certification, sorted by coordinates.

    ``x`` is critical iff ``v + rho x in dg(x)``; candidates come from the
    same support enumeration as prox (with stationarity coefficient ``-rho``),
    and each survivor is re-certified against the true subdifferential, which
    discards supports that turned out inactive or sign-infeasible.  An empty
    domain raises ``InfeasibleDomainError``, as in :func:`prox`.
    """
    g = inst.g
    _check_bound(g, enum_bound)
    found = {}
    for x, mu, lam, J, I in _kkt_solutions(g, -inst.rho, v):
        if x in found:
            continue
        if g.domain.violation_index(x) is not None:
            continue
        w = tuple(vi + inst.rho * xi for vi, xi in zip(v, x))
        cert = certify(g, w, x)
        if isinstance(cert, NotCritical):
            continue
        found[x] = cert
    if not found:
        _raise_if_infeasible(g)
    return sorted(found.items())
