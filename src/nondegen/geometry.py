"""Finitely generated convex sets and exact relative-interior queries.

A :class:`GeneratedSet` is ``conv(points) + cone(rays)``.  The central
operation is :func:`ri_membership`, which classifies a query point as lying in
the relative interior, on the relative boundary, or outside the set — decided
exactly by one auxiliary LP that maximizes the smallest generator coefficient.
The relative interior of a finitely generated set is the set of strictly
positive combinations of *all* its generators, redundant ones included
(Rockafellar, Convex Analysis, Thm 6.9), so no generator is dropped first.

Also here: pruning of redundant generators, the positive-span subspace test,
and exposed faces of V-polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    EmptyGeneratedSetError,
    InternalError,
)
from .linalg import Mat, ONE, Q, Rat, Vec, ZERO, dot, mat, rank, vsub
from .simplex import (
    KernelInfeasible,
    KernelOptimal,
    solve_standard_form,
)


@dataclass(frozen=True)
class GeneratedSet:
    """``conv(points) + cone(rays)`` in ``R^dim``; empty iff ``points`` is empty."""

    points: Mat
    rays: Mat
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dimension", "positive integer", self.dim)
        for label, vecs in (("point", self.points), ("ray", self.rays)):
            for i, v in enumerate(vecs):
                if len(v) != self.dim:
                    raise DimensionMismatchError(f"{label} {i} dimension", self.dim, len(v))

    @property
    def is_empty(self) -> bool:
        return not self.points


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a nonempty stored vertex list (may contain redundant points)."""

    vertices: Mat

    def __post_init__(self):
        if not self.vertices:
            raise DegeneratePolytopeError("vertex list is empty")
        d = len(self.vertices[0])
        for i, v in enumerate(self.vertices):
            if len(v) != d:
                raise DimensionMismatchError(f"vertex {i} dimension", d, len(v))

    @classmethod
    def from_vertices(cls, vertices) -> "VPolytope":
        return cls(mat(vertices))

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


RiStatus = Interior | Boundary | Outside


# ---------------------------------------------------------------------------
# membership LPs (standard-form kernel, no free-variable split needed)
# ---------------------------------------------------------------------------


def _combination(gens: Sequence[Vec], y: Vec, convex_count: int) -> Optional[Vec]:
    """Coefficients ``z >= 0`` with ``sum z_i gens_i = y`` and, when
    ``convex_count > 0``, the first ``convex_count`` coefficients summing to 1.
    Returns None when no such combination exists."""
    n = len(y)
    ncols = len(gens)
    M: List[List[Rat]] = []
    rhs: List[Rat] = []
    for d in range(n):
        M.append([g[d] for g in gens])
        rhs.append(y[d])
    if convex_count:
        M.append([ONE] * convex_count + [ZERO] * (ncols - convex_count))
        rhs.append(ONE)
    res = solve_standard_form(M, rhs, [ZERO] * ncols)
    if isinstance(res, KernelOptimal):
        return res.t
    return None


def _cone_member(gens: Sequence[Vec], y: Vec) -> bool:
    """Exact test ``y in cone(gens)`` (the empty cone is ``{0}``)."""
    if not gens:
        return all(c == 0 for c in y)
    return _combination(gens, y, 0) is not None


def _cone_is_subspace(gens: Sequence[Vec], dim: int) -> bool:
    """Single-LP test that ``cone(gens)`` is a linear subspace.

    The cone is a subspace iff some combination with every coefficient >= 1
    equals zero: given such a combination, ``-g`` is a nonnegative combination
    for each generator ``g``; conversely summing certificates ``-g in cone``
    over all generators produces one.  Substituting coefficients ``1 + s``
    turns the test into one cone-membership query.
    """
    if not gens:
        return True
    total = [ZERO] * dim
    for g in gens:
        total = [a + b for a, b in zip(total, g)]
    return _cone_member(gens, tuple(-a for a in total))


def member(S: GeneratedSet, y: Vec) -> bool:
    """Exact test ``y in conv(points) + cone(rays)`` by phase-one simplex."""
    if len(y) != S.dim:
        raise DimensionMismatchError("query dimension", S.dim, len(y))
    if S.is_empty:
        return False
    gens = list(S.points) + list(S.rays)
    return _combination(gens, y, len(S.points)) is not None


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
    if S.is_empty:
        raise EmptyGeneratedSetError()
    ray_idx = list(range(len(S.rays)))
    # Linearly independent rays can never be nonnegative combinations of one
    # another, so the per-ray LPs are skipped in that (common) case.
    if S.rays and rank(S.rays) < len(S.rays):
        i = 0
        while i < len(ray_idx):
            others = [S.rays[j] for pos, j in enumerate(ray_idx) if pos != i]
            if _cone_member(others, S.rays[ray_idx[i]]):
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
            # redundant; without this guard _combination would degenerate to a
            # pure cone-membership test and could drop every point.
            if others and _combination(
                others + rays, S.points[point_idx[i]], len(others)
            ) is not None:
                del point_idx[i]
            else:
                i += 1
    pruned = GeneratedSet(
        tuple(S.points[j] for j in point_idx), tuple(rays), S.dim
    )
    return pruned, tuple(point_idx), tuple(ray_idx)


# ---------------------------------------------------------------------------
# relative interior
# ---------------------------------------------------------------------------


def _max_min_coefficient(points: Mat, rays: Mat, y: Vec):
    """Maximize t with y = sum mu_j p_j + sum lam_i r_i, sum mu = 1,
    mu_j >= t, lam_i >= t, 0 <= t <= 1.  Returns None when infeasible
    (y outside the set), else (t*, mu, lam).

    Substituting mu = t + e, lam = t + f (e, f >= 0) keeps the kernel tableau
    small: columns are (e, f, t, u) with u the slack of t <= 1.
    """
    n = len(y)
    k, l = len(points), len(rays)
    ncols = k + l + 2
    t_col = k + l
    M: List[List[Rat]] = []
    rhs: List[Rat] = []
    for d in range(n):
        row = [p[d] for p in points] + [r[d] for r in rays]
        gsum = ZERO
        for c in row:
            gsum += c
        row.append(gsum)
        row.append(ZERO)
        M.append(row)
        rhs.append(y[d])
    M.append([ONE] * k + [ZERO] * l + [Q(k), ZERO])
    rhs.append(ONE)
    M.append([ZERO] * (k + l) + [ONE, ONE])
    rhs.append(ONE)
    obj = [ZERO] * ncols
    obj[t_col] = ONE
    res = solve_standard_form(M, rhs, obj)
    if isinstance(res, KernelInfeasible):
        return None
    if not isinstance(res, KernelOptimal):
        raise InternalError("bounded auxiliary program reported unbounded")
    t = res.t[t_col]
    mu = tuple(t + res.t[j] for j in range(k))
    lam = tuple(t + res.t[k + i] for i in range(l))
    return t, mu, lam


def ri_membership(S: GeneratedSet, y: Vec) -> RiStatus:
    """Classify ``y`` against ``S``: Interior (with a witness strictly
    positive on every generator), Boundary, or Outside.

    The kernel's exact check of :func:`_max_min_coefficient`'s program is
    the witness check.  It checks ``e, f, t >= 0``, so at ``t != 0`` every
    ``mu = t + e`` and ``lam = t + f`` is positive, and it checks the first
    ``dim`` rows, ``sum e_j p_j + sum f_i r_i + t (sum p_j + sum r_i) = y``,
    which is ``sum mu_j p_j + sum lam_i r_i = y`` regrouped."""
    if len(y) != S.dim:
        raise DimensionMismatchError("query dimension", S.dim, len(y))
    if S.is_empty:
        raise EmptyGeneratedSetError()
    res = _max_min_coefficient(S.points, S.rays, y)
    if res is None:
        return Outside()
    t, mu, lam = res
    if t == 0:
        return Boundary()
    return Interior(mu, lam)


def positive_span_is_subspace(S: GeneratedSet) -> bool:
    """True iff the positive span ``R+ . S`` is a linear subspace.

    The positive span is the cone jointly generated by the points and rays,
    so one :func:`_cone_is_subspace` LP decides it.
    """
    if S.is_empty:
        raise EmptyGeneratedSetError()
    return _cone_is_subspace(list(S.points) + list(S.rays), S.dim)


def translate(S: GeneratedSet, v: Vec) -> GeneratedSet:
    """The set ``S - v`` (points shifted, rays unchanged)."""
    if len(v) != S.dim:
        raise DimensionMismatchError("translation dimension", S.dim, len(v))
    return GeneratedSet(tuple(vsub(p, v) for p in S.points), S.rays, S.dim)


# ---------------------------------------------------------------------------
# exposed faces
# ---------------------------------------------------------------------------


def exposed_face(F: VPolytope, c: Vec) -> Tuple[int, ...]:
    """Indices of the stored vertices attaining ``max <c, x>`` (all of them
    when ``c = 0``)."""
    if len(c) != F.dim:
        raise DimensionMismatchError("direction dimension", F.dim, len(c))
    values = [dot(c, v) for v in F.vertices]
    best = max(values)
    return tuple(i for i, val in enumerate(values) if val == best)
