"""Shared helpers for the test suite: exact-value constructors and seeded
random instance generators.  The package's rationals are `fractions.Fraction`,
what the oracles speak, so its values go to an oracle as they are."""

import random

from nondegen import GeneratedSet, HPolyhedron, PolyhedralFunction, Q


def qv(*tokens):
    """A vector of ``Q`` from ints and ``'p/q'`` tokens."""
    return tuple(map(Q, tokens))


def vadd(u, v):
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vscale(s, u):
    s = Q(s)
    return tuple(s * a for a in u)


def rand_rat(rng: random.Random, span: int = 4, den: int = 4):
    return Q(rng.randint(-span, span), rng.randint(1, den))


def rand_vec(rng: random.Random, dim: int, span: int = 4, den: int = 4):
    return tuple(rand_rat(rng, span, den) for _ in range(dim))


def rand_hpoly(rng: random.Random, dim: int, m: int) -> HPolyhedron:
    """Random inequality system; usually feasible near the origin but not
    always — callers that need feasibility must check."""
    rows, rhs = [], []
    for _ in range(m):
        row = rand_vec(rng, dim)
        while all(c == 0 for c in row):
            row = rand_vec(rng, dim)
        rows.append(row)
        rhs.append(rand_rat(rng))
    return HPolyhedron(rows, rhs, dim)


def rand_genset(rng: random.Random, dim: int) -> GeneratedSet:
    npts = rng.randint(1, 4)
    nrays = rng.randint(0, 3)
    points = tuple(rand_vec(rng, dim, span=3, den=3) for _ in range(npts))
    rays = []
    for _ in range(nrays):
        r = rand_vec(rng, dim, span=3, den=3)
        if any(c != 0 for c in r):
            rays.append(r)
    return GeneratedSet(points, tuple(rays), dim)


def rand_polyfun(rng: random.Random, dim: int) -> PolyhedralFunction:
    """Random proper polyhedral function: affine pieces, box-ish domain, or
    both.  The domain always contains a point (a box around a random center)."""
    kind = rng.randrange(3)
    pieces = []
    if kind != 1:
        for _ in range(rng.randint(1, 3)):
            pieces.append((rand_vec(rng, dim), rand_rat(rng)))
    rows, rhs = [], []
    if kind != 0:
        center = rand_vec(rng, dim, span=2, den=2)
        radius = Q(rng.randint(1, 3))
        for i in range(dim):
            unit = tuple(Q(1) if j == i else Q(0) for j in range(dim))
            rows.append(unit)
            rhs.append(center[i] + radius)
            rows.append(tuple(-u for u in unit))
            rhs.append(radius - center[i])
        for _ in range(rng.randint(0, 2)):
            row = rand_vec(rng, dim)
            if all(c == 0 for c in row):
                continue
            rows.append(row)
            # keep the center feasible so the instance stays proper
            margin = Q(rng.randint(0, 2))
            rhs.append(sum(a * c for a, c in zip(row, center)) + margin)
    domain = HPolyhedron(rows, rhs, dim)
    return PolyhedralFunction(tuple(pieces), domain, dim)


def feasible_points_of(f: PolyhedralFunction, rng: random.Random, count: int = 3):
    """A few exact points of dom f: vertices and midpoints found by probing
    the constraint arrangement with random objectives."""
    from nondegen import LinearProgram, Optimal, solve_lp

    pts = []
    for _ in range(count * 3):
        if len(pts) >= count:
            break
        w = rand_vec(rng, f.dim)
        res = solve_lp(LinearProgram(w, f.domain))
        if isinstance(res, Optimal) and res.x not in pts:
            pts.append(res.x)
    if not pts:
        from nondegen import Point, feasible_point

        fp = feasible_point(f.domain)
        if isinstance(fp, Point):
            pts.append(fp.x)
    return pts
