"""Independent brute-force oracles that pin down expected test values.

Everything here runs on `fractions.Fraction` and deliberately avoids importing
the package under test, so a library bug cannot hide inside its own oracle.
The one exception, `construct_degenerate_loop_oracle`, is a reference for a
loop over the package's primitives, not for the primitives themselves.
The implementations favour obviousness over speed; they are only ever run on
desk-scale inputs (dim <= 3 and a handful of generators; the candidate-point
enumeration goes to dim 5).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

F = Fraction

MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# exact dense linear algebra (self-contained)


def dot_oracle(u, v):
    """Σ u_i v_i as a plain ``Fraction`` sum, one product and one addition
    at a time."""
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def solve_square(rows, rhs):
    """Solve the square system A x = b exactly; None if A is singular."""
    n = len(rows)
    aug = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def rref(rows, ncols):
    """Reduced row echelon form of the rows over their first `ncols` columns
    (later columns ride along), by plain Fraction Gauss-Jordan elimination.
    Returns the reduced rows and the pivot columns."""
    m = len(rows)
    aug = [[F(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = F(1) / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    return aug, pivots


def gauss_any_solution(rows, rhs, ncols):
    """Any exact solution of A x = b (free variables zero), or None."""
    aug, pivots = rref([list(row) + [rhs[i]] for i, row in enumerate(rows)], ncols)
    if any(aug[i][ncols] != 0 for i in range(len(pivots), len(aug))):
        return None
    x = [F(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return x


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} via reduced row echelon form."""
    aug, pivots = rref(rows, ncols)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -aug[i][fc]
        basis.append(v)
    return basis


def solve_linear_oracle(rows, rhs, ncols):
    """Classify A x = b: ("inconsistent",), ("unique", x) or
    ("underdetermined", x, basis), with free variables zero in x and each
    kernel basis vector signed so that its leading nonzero entry is positive."""
    x = gauss_any_solution(rows, rhs, ncols)
    if x is None:
        return ("inconsistent",)
    basis = kernel_basis(rows, ncols)
    if not basis:
        return ("unique", x)
    signed = [v if next(a for a in v if a != 0) > 0 else [-a for a in v] for v in basis]
    return ("underdetermined", x, signed)


# ---------------------------------------------------------------------------
# KKT stationarity systems in all unknowns (x, mu, lam)


def kkt_solutions_oracle(pieces, rows, rhs, dim, x_coef, target):
    """Unique solutions (x, mu, lam, J, I) of the square KKT systems

        x_coef * x + sum_J mu_j c_j + sum_I lam_i a_i = target
        sum_J mu_j = 1;  pieces in J tie;  constraints in I are tight

    in the n + |J| + |I| unknowns, over supports with |J| + |I| <= n + 1,
    in lexicographic order of (|J|, J, |I|, I).  `pieces` lists (c, d) pairs
    (the zero function when empty); `rows`/`rhs` are the constraints a x <= b.
    """
    n = dim
    pieces = [([F(v) for v in c], F(d)) for c, d in pieces] or [([F(0)] * n, F(0))]
    k, m = len(pieces), len(rows)
    out = []
    for jsize in range(1, min(k, n + 1) + 1):
        for J in combinations(range(k), jsize):
            for isize in range(0, min(m, n + 1 - jsize) + 1):
                for I in combinations(range(m), isize):
                    nvars = n + jsize + isize
                    system, values = [], []
                    for d in range(n):
                        row = [F(0)] * nvars
                        row[d] = F(x_coef)
                        for pos, j in enumerate(J):
                            row[n + pos] = pieces[j][0][d]
                        for pos, i in enumerate(I):
                            row[n + jsize + pos] = F(rows[i][d])
                        system.append(row)
                        values.append(F(target[d]))
                    system.append([F(0)] * n + [F(1)] * jsize + [F(0)] * isize)
                    values.append(F(1))
                    j0 = J[0]
                    for j in J[1:]:
                        tie = [a - b for a, b in zip(pieces[j][0], pieces[j0][0])]
                        system.append(tie + [F(0)] * (jsize + isize))
                        values.append(pieces[j0][1] - pieces[j][1])
                    for i in I:
                        system.append([F(a) for a in rows[i]] + [F(0)] * (jsize + isize))
                        values.append(F(rhs[i]))
                    z = solve_square(system, values)
                    if z is not None:
                        out.append((z[:n], z[n : n + jsize], z[n + jsize :], J, I))
    return out


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection oracle for conv(points) + cone(rays)


def _primitive(coeffs, rhs):
    """Scale a rational inequality row to coprime integers."""
    denominator_lcm = 1
    for c in list(coeffs) + [rhs]:
        denominator_lcm = lcm(denominator_lcm, F(c).denominator)
    ints = [int(F(c) * denominator_lcm) for c in coeffs]
    r = int(F(rhs) * denominator_lcm)
    g = 0
    for v in ints + [r]:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(ints), r


def fm_h_representation(points, rays, dim):
    """H-representation of conv(points)+cone(rays) by eliminating the
    combination weights with Fourier-Motzkin.

    Starts from the defining system over (mu, lam, y) -- the coordinate
    equations, the convexity row, and the sign constraints -- and projects out
    every mu and lam.  Imbert's first acceptance criterion (a row surviving k
    eliminations is provably redundant once its ancestor set exceeds k+1
    original rows) keeps the intermediate systems small; dropping such rows
    never changes the projection.  Returns primitive integer rows (a, b)
    meaning a . y <= b.
    """
    if not points:
        raise ValueError("empty generated set has no H-representation here")
    k, l = len(points), len(rays)
    nv = k + l + dim

    base = []
    for i in range(dim):
        co = [F(0)] * nv
        for j, p in enumerate(points):
            co[j] = -F(p[i])
        for t, r in enumerate(rays):
            co[k + t] = -F(r[i])
        co[k + l + i] = F(1)
        base.append((tuple(co), F(0)))
        base.append((tuple(-c for c in co), F(0)))
    co = [F(0)] * nv
    for j in range(k):
        co[j] = F(1)
    base.append((tuple(co), F(1)))
    base.append((tuple(-c for c in co), F(-1)))
    for j in range(k + l):
        co = [F(0)] * nv
        co[j] = F(-1)
        base.append((tuple(co), F(0)))

    work = []
    for idx, (co, rhs) in enumerate(base):
        ico, irhs = _primitive(co, rhs)
        work.append((ico, irhs, frozenset([idx])))

    remaining = list(range(k + l))
    eliminated = 0
    while remaining:
        var = min(
            remaining,
            key=lambda cand: (
                sum(1 for co, _, _ in work if co[cand] > 0)
                * sum(1 for co, _, _ in work if co[cand] < 0)
            ),
        )
        remaining.remove(var)
        eliminated += 1
        keep, pos, neg = [], [], []
        for row in work:
            c = row[0][var]
            (pos if c > 0 else neg if c < 0 else keep).append(row)
        derived = {}
        for cp, bp, ap in pos:
            for cn, bn, an in neg:
                ancestors = ap | an
                if len(ancestors) > eliminated + 1:
                    continue
                s, t = cp[var], -cn[var]
                co = tuple(t * a + s * b for a, b in zip(cp, cn))
                rhs = t * bp + s * bn
                ico, irhs = _primitive(co, rhs)
                if all(v == 0 for v in ico):
                    if irhs < 0:
                        raise AssertionError("generated set projected to empty")
                    continue
                prev = derived.get((ico, irhs))
                if prev is None or len(ancestors) < len(prev):
                    derived[(ico, irhs)] = ancestors
        work = keep + [(co, rhs, anc) for (co, rhs), anc in derived.items()]

    final = set()
    for co, rhs, _ in work:
        assert all(c == 0 for c in co[: k + l])
        a = co[k + l :]
        if all(v == 0 for v in a):
            if rhs < 0:
                raise AssertionError("generated set projected to empty")
            continue
        final.add((a, rhs))
    return sorted(final)


def ri_status_oracle(points, rays, dim, y):
    """'outside' / 'boundary' / 'interior' classification of y against
    conv(points)+cone(rays), decided from the Fourier-Motzkin H-form.

    An inequality is an implicit equality exactly when it is tight at every
    point generator and annihilates every ray; relative-interior membership
    means strict satisfaction of every non-implicit row.
    """
    if not points:
        return "outside"
    rows = fm_h_representation(points, rays, dim)
    for a, b in rows:
        if dot_oracle(a, y) > b:
            return "outside"
    strict = True
    for a, b in rows:
        implicit = all(dot_oracle(a, p) == b for p in points) and all(
            dot_oracle(a, r) == 0 for r in rays
        )
        if implicit:
            continue
        if dot_oracle(a, y) == b:
            strict = False
    return "interior" if strict else "boundary"


# ---------------------------------------------------------------------------
# LP oracle: basic-point enumeration inside a huge bounding box


def lp_enum_oracle(objective, rows, rhs, dim, box=F(2) ** 80):
    """Classify max objective.x over {A x <= b} without a simplex method.

    All dim-subsets of the constraints plus box walls are solved exactly and
    filtered for feasibility; the box is vast relative to the instance data,
    so: no feasible basic point => infeasible; optimum growing with the box =>
    unbounded; otherwise the optimum is the boxed maximum, attained at a
    vertex well inside the walls.
    """

    def boxed_max(limit):
        ext_rows = [tuple(F(v) for v in row) for row in rows]
        ext_rhs = [F(v) for v in rhs]
        for i in range(dim):
            unit = [F(0)] * dim
            unit[i] = F(1)
            ext_rows.append(tuple(unit))
            ext_rhs.append(limit)
            ext_rows.append(tuple(-v for v in unit))
            ext_rhs.append(limit)
        best = None
        for subset in combinations(range(len(ext_rows)), dim):
            x = solve_square([ext_rows[i] for i in subset], [ext_rhs[i] for i in subset])
            if x is None:
                continue
            if all(dot_oracle(ext_rows[i], x) <= ext_rhs[i] for i in range(len(ext_rows))):
                val = dot_oracle(objective, x)
                if best is None or val > best:
                    best = val
        return best

    inner = boxed_max(box)
    if inner is None:
        return ("infeasible", None)
    outer = boxed_max(2 * box)
    if outer > inner:
        return ("unbounded", None)
    return ("optimal", inner)


def bland_simplex_oracle(M, rhs, obj):
    """Maximize obj.t over {M t = rhs, t >= 0} on a dense `Fraction` tableau.

    The textbook two-phase method with Bland's rule, pivot for pivot the one
    the package's integer kernel must reproduce: rows with a negative rhs are
    negated; a column equal to e_i is adopted as row i's starting basic
    column, and every other row gets an artificial column; the lowest column
    with a positive reduced cost enters; the ratio test breaks ties toward the
    lowest basic column; an artificial that leaves never re-enters.  After
    phase 1, each artificial still basic is pivoted out on the lowest nonzero
    original column of its row (whatever its sign), or its row is dropped.
    Duals and the Farkas vector are read off the reduced costs of each row's
    starting unit column.  Returns ("optimal", t, value, duals),
    ("unbounded", t0, ray) or ("infeasible", farkas), each vector a tuple of
    Fractions.
    """
    nrows, ncols = len(M), len(obj)
    sign = [-1 if F(r) < 0 else 1 for r in rhs]
    rows = [[s * F(a) for a in row] + [s * F(r)] for row, r, s in zip(M, rhs, sign)]
    basis = [-1] * nrows
    for j in range(ncols):
        nonzero = [i for i in range(nrows) if rows[i][j] != 0]
        if len(nonzero) == 1 and rows[nonzero[0]][j] == 1 and basis[nonzero[0]] == -1:
            basis[nonzero[0]] = j
    arts = [i for i in range(nrows) if basis[i] == -1]
    for k, i in enumerate(arts):
        for row in rows:
            row.insert(ncols + k, F(int(row is rows[i])))
        basis[i] = ncols + k
    unit_col = list(basis)
    total = ncols + len(arts)
    enterable = [True] * total

    def pivot(r, c):
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        basis[r] = c

    def reduced(costs):
        out = list(costs) + [F(0)]
        for i, row in enumerate(rows):
            out = [a - costs[basis[i]] * b for a, b in zip(out, row)]
        return out

    def run(costs):
        while True:
            red = reduced(costs)
            enter = [j for j in range(total) if enterable[j] and red[j] > 0]
            if not enter:
                return red, None
            c = enter[0]
            ratios = [(row[-1] / row[c], basis[i], i) for i, row in enumerate(rows) if row[c] > 0]
            if not ratios:
                return red, c
            r = min(ratios)[2]
            if basis[r] >= ncols:
                enterable[basis[r]] = False
            pivot(r, c)

    def dual(red, costs, i):
        return sign[i] * (costs[unit_col[i]] - red[unit_col[i]])

    ids = list(range(nrows))
    if arts:
        phase1 = [F(0)] * ncols + [F(-1)] * len(arts)
        red, _ = run(phase1)
        if red[-1] != 0:
            return ("infeasible", tuple(-dual(red, phase1, i) for i in range(nrows)))
        for i in range(nrows):
            if basis[i] >= ncols:
                nonzero = [j for j in range(ncols) if rows[i][j] != 0]
                if nonzero:
                    pivot(i, nonzero[0])
        for i in range(nrows - 1, -1, -1):
            if basis[i] >= ncols:
                del rows[i], basis[i], ids[i]
        for j in range(ncols, total):
            enterable[j] = False
    costs = [F(c) for c in obj] + [F(0)] * len(arts)
    red, c = run(costs)
    t = [F(0)] * ncols
    for i, row in enumerate(rows):
        t[basis[i]] = row[-1]
    if c is not None:
        ray = [F(0)] * ncols
        ray[c] = F(1)
        for i, row in enumerate(rows):
            ray[basis[i]] = -row[c]
        return ("unbounded", tuple(t), tuple(ray))
    duals = [F(0)] * nrows
    for i in ids:
        duals[i] = dual(red, costs, i)
    return ("optimal", tuple(t), -red[-1], tuple(duals))


# ---------------------------------------------------------------------------
# one-dimensional breakpoint oracles


def _domain_interval(cons):
    """[lo, hi] interval of {a x <= b}; None bounds mean unbounded; returns
    'empty' when infeasible."""
    lo, hi = None, None
    for a, b in cons:
        a, b = F(a), F(b)
        if a == 0:
            if b < 0:
                return "empty"
        elif a > 0:
            cand = b / a
            if hi is None or cand < hi:
                hi = cand
        else:
            cand = b / a
            if lo is None or cand > lo:
                lo = cand
    if lo is not None and hi is not None and lo > hi:
        return "empty"
    return (lo, hi)


def _inside(x, lo, hi):
    return (lo is None or x >= lo) and (hi is None or x <= hi)


def _value_1d(pieces, x, v=F(0)):
    if pieces:
        fx = max(F(c) * x + F(d) for c, d in pieces)
    else:
        fx = F(0)
    return fx - F(v) * x


def _tie_points(pieces):
    ties = set()
    for (c1, d1), (c2, d2) in combinations(pieces, 2):
        c1, d1, c2, d2 = F(c1), F(d1), F(c2), F(d2)
        if c1 != c2:
            ties.add((d2 - d1) / (c1 - c2))
    return ties


def minimize_1d(pieces, cons, v):
    """Minimize max-affine(pieces) - v*x over {a x <= b} by breakpoint scan.

    Returns ("infeasible",), ("unbounded",) or ("optimal", sorted argmin
    candidates, value).  The argmin list contains every breakpoint candidate
    attaining the optimum (the true argmin may be an interval between them).
    """
    v = F(v)
    interval = _domain_interval(cons)
    if interval == "empty":
        return ("infeasible",)
    lo, hi = interval
    slope_hi = (max(F(c) for c, _ in pieces) if pieces else F(0)) - v
    slope_lo = (min(F(c) for c, _ in pieces) if pieces else F(0)) - v
    if hi is None and slope_hi < 0:
        return ("unbounded",)
    if lo is None and slope_lo > 0:
        return ("unbounded",)
    candidates = set()
    if lo is not None:
        candidates.add(lo)
    if hi is not None:
        candidates.add(hi)
    for t in _tie_points(pieces):
        if _inside(t, lo, hi):
            candidates.add(t)
    anchor = max(candidates, default=F(0))
    if hi is None and slope_hi == 0:
        candidates.add(anchor + 1)
    anchor = min(candidates, default=F(0))
    if lo is None and slope_lo == 0:
        candidates.add(anchor - 1)
    if not candidates:
        candidates.add(F(0) if _inside(F(0), lo, hi) else lo if lo is not None else hi)
    best = min(_value_1d(pieces, x, v) for x in candidates)
    argmin = sorted(x for x in candidates if _value_1d(pieces, x, v) == best)
    return ("optimal", argmin, best)


def prox_1d(pieces, cons, c):
    """Unique minimizer of max-affine(pieces) + (x-c)^2/2 over {a x <= b}."""
    c = F(c)
    interval = _domain_interval(cons)
    if interval == "empty":
        raise ValueError("empty domain")
    lo, hi = interval

    def clamp(x):
        if lo is not None and x < lo:
            return lo
        if hi is not None and x > hi:
            return hi
        return x

    candidates = set()
    if lo is not None:
        candidates.add(lo)
    if hi is not None:
        candidates.add(hi)
    for t in _tie_points(pieces):
        if _inside(t, lo, hi):
            candidates.add(t)
    if pieces:
        for cj, _ in pieces:
            candidates.add(clamp(c - F(cj)))
    else:
        candidates.add(clamp(c))

    def objective(x):
        return _value_1d(pieces, x) + (x - c) ** 2 / 2

    best_x = min(candidates, key=lambda x: (objective(x), x))
    ties = [x for x in candidates if objective(x) == objective(best_x)]
    assert len(ties) == 1, "strictly convex objective cannot tie"
    return best_x


def subdiff_interval_1d(pieces, cons, x):
    """Subdifferential [lo, hi] of max-affine + domain indicator at x; None
    endpoints encode -oo / +oo; raises when x is outside the domain."""
    x = F(x)
    interval = _domain_interval(cons)
    if interval == "empty":
        raise ValueError("empty domain")
    dlo, dhi = interval
    if not _inside(x, dlo, dhi):
        raise ValueError("outside domain")
    if pieces:
        fx = max(F(c) * x + F(d) for c, d in pieces)
        active = [F(c) for c, d in pieces if F(c) * x + F(d) == fx]
        lo, hi = min(active), max(active)
    else:
        lo = hi = F(0)
    if dlo is not None and x == dlo:
        lo = None
    if dhi is not None and x == dhi:
        hi = None
    return lo, hi


def critical_points_1d(pieces, cons, rho, v):
    """All x with v + rho*x in the subdifferential of max-affine + indicator,
    with 'nondegenerate'/'degenerate' classification of v + rho*x against the
    relative interior of that interval."""
    rho, v = F(rho), F(v)
    interval = _domain_interval(cons)
    if interval == "empty":
        return []
    lo, hi = interval
    candidates = set()
    if lo is not None:
        candidates.add(lo)
    if hi is not None:
        candidates.add(hi)
    for t in _tie_points(pieces):
        if _inside(t, lo, hi):
            candidates.add(t)
    if pieces:
        for cj, _ in pieces:
            candidates.add((F(cj) - v) / rho)
    else:
        candidates.add(-v / rho)
    found = []
    for x in sorted(candidates):
        if not _inside(x, lo, hi):
            continue
        slo, shi = subdiff_interval_1d(pieces, cons, x)
        w = v + rho * x
        if (slo is not None and w < slo) or (shi is not None and w > shi):
            continue
        singleton = slo is not None and shi is not None and slo == shi
        if singleton:
            status = "nondegenerate"
        elif (slo is None or w > slo) and (shi is None or w < shi):
            status = "nondegenerate"
        else:
            status = "degenerate"
        found.append((x, status))
    return found


# ---------------------------------------------------------------------------
# strict complementarity via dual basic solutions


def dual_witness_oracle(rows, rhs, v, xbar):
    """Maximal-support dual solution for max v.x over {A x <= b} at xbar.

    Enumerates all vertices (independent active-normal subsets solved for
    nonnegative multipliers) and extreme rays (subsets whose normals have a
    one-dimensional sign-definite kernel) of the dual optimal face.  A strict
    complementarity witness exists iff the union of their supports covers the
    whole active set; the returned witness is the average of the vertices
    plus the sum of the rays, or None.
    """
    m, dim = len(rows), len(xbar)
    active = [i for i in range(m) if dot_oracle(rows[i], xbar) == F(rhs[i])]
    assert all(dot_oracle(rows[i], xbar) <= F(rhs[i]) for i in range(m)), "xbar infeasible"
    vertices = []
    ray_list = []
    for size in range(0, min(len(active), dim) + 1):
        for subset in combinations(active, size):
            cols = [rows[i] for i in subset]
            if size == 0:
                if all(F(c) == 0 for c in v):
                    vertices.append({})
                continue
            # columns must be independent for a basic solution
            if len(kernel_basis([[F(cols[j][i]) for j in range(size)] for i in range(dim)], size)) > 0:
                continue
            sol = gauss_any_solution(
                [[F(cols[j][i]) for j in range(size)] for i in range(dim)],
                [F(v[i]) for i in range(dim)],
                size,
            )
            if sol is None or any(s < 0 for s in sol):
                continue
            vertices.append(dict(zip(subset, sol)))
    for size in range(1, len(active) + 1):
        for subset in combinations(active, size):
            cols = [[F(rows[j][i]) for j in subset] for i in range(dim)]
            kb = kernel_basis(cols, size)
            if len(kb) != 1:
                continue
            d = kb[0]
            if all(val >= 0 for val in d) and any(val > 0 for val in d):
                ray_list.append(dict(zip(subset, d)))
            elif all(val <= 0 for val in d) and any(val < 0 for val in d):
                ray_list.append(dict(zip(subset, [-val for val in d])))
    if not vertices:
        return None
    support = set()
    for sol in vertices + ray_list:
        support |= {i for i, val in sol.items() if val > 0}
    if support != set(active):
        return None
    lam = [F(0)] * m
    for sol in vertices:
        for i, val in sol.items():
            lam[i] += val / len(vertices)
    for sol in ray_list:
        for i, val in sol.items():
            lam[i] += val
    assert all(
        sum(lam[i] * F(rows[i][j]) for i in range(m)) == F(v[j]) for j in range(dim)
    )
    return lam


# ---------------------------------------------------------------------------
# PRNG reference recomputation


def splitmix_oracle(seed, count):
    """First `count` outputs of SplitMix64, written out longhand."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
        z = z ^ (z >> 31)
        out.append(z)
    return out


def sample_vector_oracle(seed, trial_index, dim, bits=64, radius=F(1)):
    """Recompute the documented sampling pipeline from scratch."""
    raws = splitmix_oracle(seed ^ trial_index, 2 * dim)
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    coords = []
    for i in range(dim):
        num = (raws[2 * i] & mask) - half
        den = (raws[2 * i + 1] & mask) + 1
        coords.append(F(radius) * F(num, den * half))
    return coords


# ---------------------------------------------------------------------------
# the adversarial construction: candidate points and the per-generator loop


def candidate_points_oracle(f):
    """The sorted domain points that solve some subset of at most ``f.dim``
    planes, the domain rows and then the piece ties ``<c_j - c_l, x> =
    d_l - d_j`` (``j < l``): one Fraction solve per subset (free variables
    zero), then one Fraction check per domain row."""
    n = f.dim
    planes = list(zip(f.domain.A, f.domain.b))
    for (cj, dj), (cl, dl) in combinations(f.pieces, 2):
        planes.append(([F(a) - F(b) for a, b in zip(cj, cl)], F(dl) - F(dj)))
    seen = set()
    for size in range(n + 1):
        for subset in combinations(planes, size):
            x = gauss_any_solution([row for row, _ in subset], [rhs for _, rhs in subset], n)
            if x is not None and all(dot_oracle(row, x) <= b for row, b in zip(f.domain.A, f.domain.b)):
                seen.add(tuple(x))
    return sorted(seen)


def construct_degenerate_loop_oracle(f):
    """``construct_degenerate`` as one ``certify`` call per tried generator,
    with the domain proved feasible by ``feasible_point`` before anything
    else.  Unlike the rest of this module it is built on the package: it pins
    the loop (which pairs are emitted, which error is raised), and the
    subdifferentials and verdicts it reads come from the package's own
    primitives.  Its candidate points come from
    :func:`candidate_points_oracle`."""
    from nondegen.errors import InfeasibleDomainError
    from nondegen.experiments import AdversarialReport
    from nondegen.functions import DegenerateCritical, certify, subdifferential
    from nondegen.proximal import _check_bound
    from nondegen.simplex import Infeasible, feasible_point

    _check_bound(f)
    fp = feasible_point(f.domain)
    if isinstance(fp, Infeasible):
        raise InfeasibleDomainError(fp.farkas)
    pairs = []
    for x in candidate_points_oracle(f):
        S = subdifferential(f, x)
        for v in S.rays + S.points:
            if isinstance(certify(f, v, x), DegenerateCritical):
                pairs.append((v, x))
                break
    if pairs:
        return AdversarialReport(tuple(pairs), "ok")
    return AdversarialReport(
        (), "no candidate point has a subdifferential with nonempty relative boundary"
    )
