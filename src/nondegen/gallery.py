"""Ready-made instances for experiments and tests.

Boxes, simplices, a pyramid whose apex packs four facets into three
dimensions (deliberately degenerate), the absolute value, and seeded random
polytopes in both H- and V-representation.  Random constructions resample
deterministically from a single stream until the stated shape properties
(nonempty, bounded, enough distinct vertices) hold exactly, so a given seed
always names the same instance.  Every size (``n``, ``m``, ``k``) must be an
``int`` of at least 1, as a problem file's ``dim`` must; anything else
raises ``ValueError``.
"""

from __future__ import annotations

from itertools import islice
from typing import List

from .errors import DegeneratePolytopeError, InternalError
from .experiments import SamplerConfig, SplitMix64, _draws, _stream_vector
from .functions import PolyhedralFunction
from .geometry import GeneratedSet, VPolytope, positive_span_is_subspace
from .linalg import ONE, Q, Rat, Vec, ZERO, _exact, _of_type, _size, rank, vsub
from .simplex import HPolyhedron, LinearProgram, Optimal, solve_lp


def box(n: int, radius: Rat = ONE) -> HPolyhedron:
    """The box ``[-radius, radius]^n``: rows x_k <= r, then -x_k <= r."""
    n = _size(n, "n")
    rows = []
    r = _exact(radius, "radius")
    for sign in (ONE, -ONE):
        for k in range(n):
            row = [ZERO] * n
            row[k] = sign
            rows.append(row)
    return HPolyhedron(rows, [r] * 2 * n, n)


def box_indicator(n: int, radius: Rat = ONE) -> PolyhedralFunction:
    return PolyhedralFunction.indicator(box(n, radius))


def standard_simplex(n: int = 3) -> HPolyhedron:
    """{x : x_k >= 0, sum x <= 1}."""
    n = _size(n, "n")
    rows = []
    for k in range(n):
        row = [ZERO] * n
        row[k] = -ONE
        rows.append(row)
    rows.append([ONE] * n)
    return HPolyhedron(rows, [ZERO] * n + [ONE], n)


def simplex_indicator(n: int = 3) -> PolyhedralFunction:
    return PolyhedralFunction.indicator(standard_simplex(n))


def pyramid() -> HPolyhedron:
    """Square-based pyramid in R^3; four slanted facets meet at the apex
    (0, 0, 1), so the apex normal cone has four generators — a built-in
    degenerate vertex."""
    rows = (
        (ONE, ZERO, ONE),
        (-ONE, ZERO, ONE),
        (ZERO, ONE, ONE),
        (ZERO, -ONE, ONE),
        (ZERO, ZERO, -ONE),
    )
    return HPolyhedron(rows, (ONE, ONE, ONE, ONE, ZERO), 3)


def pyramid_indicator() -> PolyhedralFunction:
    return PolyhedralFunction.indicator(pyramid())


def abs_function() -> PolyhedralFunction:
    """f(x) = |x| on R."""
    return PolyhedralFunction.max_affine([((ONE,), ZERO), ((-ONE,), ZERO)], 1)


def point_indicator(n: int = 2) -> PolyhedralFunction:
    """Indicator of the single point {0} in R^n."""
    return PolyhedralFunction.indicator(box(n, ZERO))


def random_polytope(seed: int, n: int = 3, m: int = 8) -> HPolyhedron:
    """A bounded nonempty H-polytope with ``m`` random facet normals.

    Normals are sampled in [-1, 1]^n with positive right-hand sides (so 0 is
    always strictly feasible); the batch is resampled until the normals
    positively span R^n, which is exactly boundedness of the polytope.
    Fewer than ``n + 1`` normals never do, so ``m <= n`` raises
    ``ValueError``.
    """
    if _exact(m, "m", fraction_ok=False) <= _size(n, "n"):
        raise ValueError(f"{m} facet normals cannot positively span R^{n}; need at least {n + 1}")
    cfg = SamplerConfig(seed=seed, bits=16)
    stream = SplitMix64(seed)
    for _ in range(1000):
        rows: List[Vec] = []
        rhs: List[Rat] = []
        for _ in range(m):
            rows.append(_stream_vector(stream, cfg, n))
            rhs.append(Q((stream.next_u64() & 0xFFFF) + 1, 1 << 16))
        if rank(rows) == n and positive_span_is_subspace(GeneratedSet(rows, (), n)):
            return HPolyhedron(rows, rhs, n)
    raise InternalError("random polytope resampling did not terminate")


def square_vertices() -> VPolytope:
    return VPolytope(((ONE, ONE), (ONE, -ONE), (-ONE, ONE), (-ONE, -ONE)))


def cube_vertices() -> VPolytope:
    verts = []
    for sx in (ONE, -ONE):
        for sy in (ONE, -ONE):
            for sz in (ONE, -ONE):
                verts.append((sx, sy, sz))
    return VPolytope(verts)


def random_vpolytope(seed: int, n: int = 3, k: int = 10) -> VPolytope:
    """``k`` random points in [-1, 1]^n (resampled until all distinct)."""
    n, k = _size(n, "n"), _size(k, "k")
    draws = _draws(SamplerConfig(seed=seed, bits=32), 0, n)
    for _ in range(1000):
        pts = tuple(islice(draws, k))
        if len(set(pts)) == k:
            return VPolytope(pts)
    raise InternalError("random vertex resampling did not terminate")


def edge_direction(F: VPolytope) -> Vec:
    """A direction whose exposed face contains >= 2 distinct vertices, found
    exactly.

    Take the lexicographically largest vertex u (a true extreme point).  For
    each other distinct vertex w, maximize t subject to <c, u - w> = 0 and
    <c, u - p> >= t for all remaining p, with c in [-1, 1]^n: optimal t > 0
    means c exposes exactly {u, w}.  Some neighbor w of u along an edge of the
    hull always yields t > 0 when the polytope has >= 2 distinct vertices;
    fewer raise ``DegeneratePolytopeError``, as in ``run_larman``, and an ``F``
    that is not a ``VPolytope`` raises ``ValueError``.
    """
    _of_type(F, VPolytope, "F")
    distinct = sorted(set(F.vertices), reverse=True)
    if len(distinct) < 2:
        raise DegeneratePolytopeError("fewer than 2 distinct vertices")
    u = distinct[0]
    n = F.dim
    for w in distinct[1:]:
        uw = vsub(u, w)
        rows = [(*uw, ZERO), (*(-a for a in uw), ZERO)]
        rhs = [ZERO, ZERO]
        for p in distinct[1:]:
            if p == w:
                continue
            rows.append((*vsub(p, u), ONE))
            rhs.append(ZERO)
        for k_ in range(n):
            for sign in (ONE, -ONE):
                row = [ZERO] * (n + 1)
                row[k_] = sign
                rows.append(row)
                rhs.append(ONE)
        lp = LinearProgram([ZERO] * n + [ONE], HPolyhedron(rows, rhs, n + 1))
        res = solve_lp(lp)
        if isinstance(res, Optimal) and res.value > 0:
            return res.x[:n]
    raise InternalError("no edge-exposing direction found")
