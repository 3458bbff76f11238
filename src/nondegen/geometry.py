"""Finitely generated convex sets and exact relative-interior queries.

A :class:`GeneratedSet` is ``conv(points) + cone(rays)``.  The central
operation is :func:`ri_membership`, which classifies a query point as lying in
the relative interior, on the relative boundary, or outside the set — decided
exactly by one auxiliary LP that maximizes the smallest generator coefficient.
The relative interior of a finitely generated set is the set of strictly
positive combinations of *all* its generators, redundant ones included
(Rockafellar, Convex Analysis, Thm 6.9), so no generator is dropped first.

Every program here is built from one lifted system, :func:`_lifted`:
``sum mu_j p_j + sum lam_i r_i = y`` with ``sum mu = 1`` when there are
points.  Membership, pruning and the cone tests solve it as it is
(:func:`_in_set`), the relative-interior LP adds one column to it, and
:func:`nondegen.functions._read_off` solves it by integer elimination.
Only the right-hand side ``(y, 1)`` depends on the query, so a set keeps its
relative-interior program, prepared once by the LP kernel
(:attr:`GeneratedSet._ri_program`), and each query builds only its
right-hand side and objective.

Also here: pruning of redundant generators, the positive-span subspace test,
and exposed faces of V-polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from .errors import DegeneratePolytopeError, EmptyGeneratedSetError, InternalError
from .linalg import Mat, ONE, Rat, Vec, ZERO, _of_type, _size, dot, mat, rank, vec, vsub, zeros
from .simplex import (
    KernelInfeasible,
    KernelOptimal,
    _Program,
    solve_standard_form,
)


@dataclass(frozen=True)
class GeneratedSet:
    """``conv(points) + cone(rays)`` in ``R^dim``, points nonempty."""

    points: Mat
    rays: Mat
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "points", mat(self.points, _size(self.dim, "dim"), "point"))
        object.__setattr__(self, "rays", mat(self.rays, self.dim, "ray"))
        if not self.points:
            raise EmptyGeneratedSetError()

    @cached_property
    def _ri_program(self) -> _Program:
        """The kernel's program of :func:`ri_membership` on this set: the rows of
        :func:`_lifted` with the ``t`` column, each row's sum, appended, prepared
        once by :class:`~nondegen.simplex._Program`.  The rows do not depend on
        the query.  Kept from the first query; not a field, so ``==``, ``hash``
        and ``repr`` do not see it."""
        M, _ = _lifted(self.points, self.rays, zeros(self.dim))
        return _Program([[*row, sum(row, ZERO)] for row in M], len(self.points) + len(self.rays) + 1)


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a nonempty stored vertex list (may contain redundant points)."""

    vertices: Mat

    def __post_init__(self):
        object.__setattr__(self, "vertices", mat(self.vertices, what="vertex"))
        if not self.vertices:
            raise DegeneratePolytopeError("vertex list is empty")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True, slots=True)
class Interior:
    """In the relative interior, witnessed by strictly positive coefficients.

    ``point_coeffs``/``ray_coeffs`` cover every supplied point and ray, in
    order, redundant ones included; the combination reproduces the query
    point exactly.
    """

    point_coeffs: Vec
    ray_coeffs: Vec

    @property
    def witness(self) -> Vec:
        return self.point_coeffs + self.ray_coeffs


@dataclass(frozen=True, slots=True)
class Boundary:
    pass


@dataclass(frozen=True, slots=True)
class Outside:
    pass


# each fieldless verdict is returned as one shared instance, so a caller
# that keeps many verdicts keeps no bytes per verdict
BOUNDARY = Boundary()
OUTSIDE = Outside()


RiStatus = Interior | Boundary | Outside


# ---------------------------------------------------------------------------
# membership LPs (standard-form kernel, no free-variable split needed)
# ---------------------------------------------------------------------------


def _lifted(points: Mat, rays: Mat, y: Vec) -> Tuple[List[List[Rat]], List[Rat]]:
    """The lifted system ``sum mu_j p_j + sum lam_i r_i = y`` as ``(M, rhs)``:
    one row per coordinate, a column per point and then a column per ray, and
    the convex row ``sum mu = 1`` when there are points."""
    M = [[p[d] for p in points] + [r[d] for r in rays] for d in range(len(y))]
    rhs = list(y)
    if points:
        M.append([ONE] * len(points) + [ZERO] * len(rays))
        rhs.append(ONE)
    return M, rhs


def _in_set(points: Mat, rays: Mat, y: Vec) -> bool:
    """Exact test ``y in conv(points) + cone(rays)`` by one phase-one kernel
    call on :func:`_lifted`, with ``conv()`` of no points read as ``{0}``.
    With no columns at all the kernel itself decides ``y = 0``."""
    M, rhs = _lifted(points, rays, y)
    res = solve_standard_form(M, rhs, [ZERO] * (len(points) + len(rays)))
    return isinstance(res, KernelOptimal)


def member(S: GeneratedSet, y: Vec) -> bool:
    """Exact test ``y in conv(points) + cone(rays)`` by phase-one simplex."""
    _of_type(S, GeneratedSet, "S")
    y = vec(y, S.dim, "query dimension")
    return _in_set(S.points, S.rays, y)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def prune(S: GeneratedSet) -> Tuple[GeneratedSet, Tuple[int, ...], Tuple[int, ...]]:
    """Drop redundant generators; returns the pruned set and the surviving
    original indices ``(point_index, ray_index)``.

    A ray is redundant when it is a nonnegative combination of the other
    remaining rays; a point is redundant when it is a convex combination of
    the other remaining points plus the ray cone.  Generators are examined in
    index order against the currently remaining ones, so the result is
    deterministic.
    """
    _of_type(S, GeneratedSet, "S")
    ray_idx = list(range(len(S.rays)))
    # Linearly independent rays can never be nonnegative combinations of one
    # another, so the per-ray LPs are skipped in that (common) case.
    if S.rays and rank(S.rays) < len(S.rays):
        i = 0
        while i < len(ray_idx):
            others = [S.rays[j] for pos, j in enumerate(ray_idx) if pos != i]
            if _in_set((), others, S.rays[ray_idx[i]]):
                del ray_idx[i]
            else:
                i += 1
    rays = [S.rays[j] for j in ray_idx]
    point_idx = list(range(len(S.points)))
    if len(point_idx) > 1:
        i = 0
        while i < len(point_idx):
            others = [S.points[j] for pos, j in enumerate(point_idx) if pos != i]
            # conv() of no points is empty, so the last point is never
            # redundant; without this guard _in_set would read conv() as {0}
            # and could drop every point.
            if others and _in_set(others, rays, S.points[point_idx[i]]):
                del point_idx[i]
            else:
                i += 1
    pruned = GeneratedSet([S.points[j] for j in point_idx], rays, S.dim)
    return pruned, tuple(point_idx), tuple(ray_idx)


# ---------------------------------------------------------------------------
# relative interior
# ---------------------------------------------------------------------------


def ri_membership(S: GeneratedSet, y: Vec) -> RiStatus:
    """Classify ``y`` against ``S``: Interior (with a witness strictly
    positive on every generator), Boundary, or Outside.

    One LP maximizes t with y = sum mu_j p_j + sum lam_i r_i, sum mu = 1,
    mu_j >= t, lam_i >= t: infeasible is Outside, ``t* = 0`` is Boundary.
    Substituting mu = t + e, lam = t + f (e, f >= 0) makes the program
    :func:`_lifted` plus a ``t`` column equal to each row's sum, so the
    kernel columns are (e, f, t).  A GeneratedSet has ``k >= 1`` points, so
    the convex row reads ``k t + sum e = 1``, ``0 <= t <= 1/k <= 1`` and the
    program is bounded.

    The kernel's exact check of this program is the witness check.  It
    checks ``e, f, t >= 0``, so at ``t != 0`` every ``mu = t + e`` and
    ``lam = t + f`` is positive, and it checks the first ``dim`` rows,
    ``sum e_j p_j + sum f_i r_i + t (sum p_j + sum r_i) = y``, which is
    ``sum mu_j p_j + sum lam_i r_i = y`` regrouped.

    The program's matrix depends on ``S`` alone and is prepared on the first
    query (:attr:`GeneratedSet._ri_program`); a query builds ``(y, 1)`` and
    the objective.  A coefficient whose ``e`` or ``f`` is 0 is ``t`` itself."""
    _of_type(S, GeneratedSet, "S")
    y = vec(y, S.dim, "query dimension")
    P, k = S._ri_program, len(S.points)
    res = solve_standard_form(P, (*y, ONE), [ZERO] * (P.ncols - 1) + [ONE])
    if isinstance(res, KernelInfeasible):
        return OUTSIDE
    if not isinstance(res, KernelOptimal):
        raise InternalError("bounded auxiliary program reported unbounded")
    *coeffs, t = res.t
    if t == 0:
        return BOUNDARY
    coeffs = tuple([t + e if e else t for e in coeffs])
    return Interior(coeffs[:k], coeffs[k:])


def positive_span_is_subspace(S: GeneratedSet) -> bool:
    """True iff the positive span ``R+ . S`` is a linear subspace.

    The positive span is the cone jointly generated by the points and rays.
    A cone is a subspace iff some combination of its generators with every
    coefficient >= 1 equals zero: given such a combination, ``-g`` is a
    nonnegative combination for each generator ``g``; conversely summing
    certificates ``-g in cone`` over all generators produces one.
    Substituting coefficients ``1 + s`` turns the test into one
    cone-membership query.
    """
    _of_type(S, GeneratedSet, "S")
    gens = list(S.points) + list(S.rays)
    total = [ZERO] * S.dim
    for g in gens:
        total = [a + b for a, b in zip(total, g)]
    return _in_set((), gens, tuple(-a for a in total))


def translate(S: GeneratedSet, v: Vec) -> GeneratedSet:
    """The set ``S - v`` (points shifted, rays unchanged)."""
    _of_type(S, GeneratedSet, "S")
    v = vec(v, S.dim, "translation dimension")
    return GeneratedSet(tuple(vsub(p, v) for p in S.points), S.rays, S.dim)


# ---------------------------------------------------------------------------
# exposed faces
# ---------------------------------------------------------------------------


def exposed_face(F: VPolytope, c: Vec) -> Tuple[int, ...]:
    """Indices of the stored vertices attaining ``max <c, x>`` (all of them
    when ``c = 0``)."""
    _of_type(F, VPolytope, "F")
    c = vec(c, F.dim, "direction dimension")
    values = [dot(c, v) for v in F.vertices]
    best = max(values)
    return tuple(i for i, val in enumerate(values) if val == best)
