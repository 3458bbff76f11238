"""Exact simplex: outcomes, certificates, determinism, and oracle agreement."""

import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qv, rand_genset, rand_hpoly, rand_vec
from nondegen import (
    GeneratedSet,
    HPolyhedron,
    Infeasible,
    LinearProgram,
    Optimal,
    Point,
    Unbounded,
    feasible_point,
    solve_lp,
)
from nondegen import geometry, ri_membership, simplex
from nondegen.errors import InternalError
from nondegen.experiments import SamplerConfig, sample_objective
from nondegen.functions import Minimizer, PolyhedralFunction, minimize_perturbed
from nondegen.gallery import box, box_indicator, pyramid, pyramid_indicator, random_polytope
from nondegen.linalg import ONE, ZERO, _MINUS_ONE, dot
from nondegen.simplex import KernelInfeasible, KernelOptimal, KernelUnbounded, solve_standard_form
from oracles import bland_simplex_oracle, dot_oracle, lp_enum_oracle
from test_geometry import check_trichotomy


def lp(objective, rows, rhs):
    return LinearProgram(qv(*objective), HPolyhedron(rows, rhs, len(objective)))


def test_box_lp_full_outcome():
    res = solve_lp(LinearProgram(qv(1, 1), box(2)))
    assert isinstance(res, Optimal)
    assert res.x == qv(1, 1)
    assert res.value == 2
    assert res.duals == qv(1, 1, 0, 0)
    assert res.active_set == frozenset({0, 1})


def test_unbounded_lp_certificate():
    res = solve_lp(lp([1], [[-1]], [0]))
    assert isinstance(res, Unbounded)
    assert res.ray == qv(1)
    # x0 feasible and the ray improves the objective
    assert res.x0 == qv(0)


def test_infeasible_lp_certificate():
    res = solve_lp(lp([1], [[1], [-1]], [0, -1]))
    assert isinstance(res, Infeasible)
    assert res.farkas == qv(1, 1)


def test_degenerate_vertex_four_active_facets():
    """Pyramid apex: four facets meet at (0,0,1); the solver must still
    report an exact optimum with complementary duals."""
    res = solve_lp(LinearProgram(qv(0, 0, 1), pyramid()))
    assert isinstance(res, Optimal)
    assert res.x == qv(0, 0, 1)
    assert res.value == 1
    assert sum(1 for i in res.active_set) >= 4


def test_duplicate_rows_are_tolerated():
    res = solve_lp(lp([1], [[1], [1], [-1]], [2, 2, 0]))
    assert isinstance(res, Optimal)
    assert res.value == 2
    assert res.duals[0] + res.duals[1] == 1


def test_resolve_is_bit_identical():
    program = LinearProgram(qv(1, 1), box(2))
    assert solve_lp(program) == solve_lp(program)


def test_feasible_point_box():
    res = feasible_point(box(2))
    assert isinstance(res, Point)
    assert box(2).contains(res.x)


def test_feasible_point_infeasible():
    res = feasible_point(HPolyhedron([[1], [-1]], [-1, 0], 1))
    assert isinstance(res, Infeasible)


def test_feasible_point_farkas_certificate_is_verified():
    P = HPolyhedron([[1, 0], [-1, 0], [0, 1]], [1, -2, 0], 2)
    res = feasible_point(P)
    assert isinstance(res, Infeasible)
    assert all(y >= 0 for y in res.farkas)
    assert all(sum(y * row[k] for y, row in zip(res.farkas, P.A)) == 0 for k in range(2))
    assert dot(res.farkas, P.b) < 0
    assert res == solve_lp(LinearProgram(qv(0, 0), P))


def test_feasible_point_whole_space():
    res = feasible_point(HPolyhedron([], [], 3))
    assert isinstance(res, Point)
    assert res.x == qv(0, 0, 0)


def _check_invariants(program: LinearProgram, res) -> None:
    A, b = program.constraints.A, program.constraints.b
    if isinstance(res, Optimal):
        for i, (row, bi) in enumerate(zip(A, b)):
            lhs = dot(row, res.x)
            assert lhs <= bi
            assert (lhs == bi) == (i in res.active_set)
            if res.duals[i] > 0:
                assert i in res.active_set
            assert res.duals[i] >= 0
        assert dot(program.objective, res.x) == res.value
        assert sum(d * bi for d, bi in zip(res.duals, b)) == res.value
    elif isinstance(res, Unbounded):
        assert program.constraints.contains(res.x0)
        assert all(dot(row, res.ray) <= 0 for row in A)
        assert dot(program.objective, res.ray) > 0
    else:
        assert isinstance(res, Infeasible)
        assert all(g >= 0 for g in res.farkas)
        for j in range(program.constraints.dim):
            assert sum(g * A[i][j] for i, g in enumerate(res.farkas)) == 0
        assert sum(g * bi for g, bi in zip(res.farkas, b)) < 0


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_random_lp_invariants(seed):
    """Zero duality gap, complementary slackness, and certificate validity on
    random instances, all exact."""
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    P = rand_hpoly(rng, dim, rng.randint(1, 6))
    program = LinearProgram(rand_vec(rng, dim), P)
    _check_invariants(program, solve_lp(program))


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_random_lp_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    P = rand_hpoly(rng, dim, rng.randint(1, 6))
    objective = rand_vec(rng, dim)
    res = solve_lp(LinearProgram(objective, P))
    kind, value = lp_enum_oracle(objective, P.A, P.b, dim)
    if isinstance(res, Optimal):
        assert kind == "optimal" and res.value == value
    elif isinstance(res, Unbounded):
        assert kind == "unbounded"
    else:
        assert kind == "infeasible"


def test_zero_objective_returns_feasible_point():
    res = solve_lp(LinearProgram(qv(0, 0), box(2)))
    assert isinstance(res, Optimal)
    assert res.value == 0
    assert box(2).contains(res.x)


def test_active_set_is_exact_equality():
    res = solve_lp(lp([1, 0], [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1]))
    assert isinstance(res, Optimal)
    # only the x1 <= 1 wall need be active; duals of slack rows are zero
    assert 0 in res.active_set
    assert res.duals[2] == res.duals[3] == 0


# ---------------------------------------------------------------------------
# the standard-form kernel against a plain Fraction Bland tableau
# ---------------------------------------------------------------------------


def _kernel_fields(out):
    if isinstance(out, KernelOptimal):
        return ("optimal", out.t, out.value, out.duals)
    if isinstance(out, KernelUnbounded):
        return ("unbounded", out.t0, out.ray)
    return ("infeasible", out.farkas)


def _entry(rng):
    k = rng.random()
    if k < 0.4:
        return Fraction(0)
    if k < 0.5:
        return Fraction(rng.choice([1, -1]))
    if k < 0.55:  # 64-bit denominators
        return Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64))
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _standard_form_program(rng):
    """A random ``(M, rhs, obj)`` and the features it has: rows with a
    negative rhs, a redundant row, adopted unit columns, no rows at all.
    Zero rhs entries are common, so ratio ties and artificials left basic
    after phase 1 (the drive-out) are common too."""
    m, n = rng.randint(0, 4), rng.randint(1, 5)
    M = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.5:
        # rhs = M t for some t >= 0, so that the program is feasible
        t = [Fraction(rng.randint(0, 2)) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, t)) for row in M]
    else:
        rhs = [_entry(rng) for _ in range(m)]
    units = 0
    if m and rng.random() < 0.5:
        for i in rng.sample(range(m), rng.randint(1, m)):
            pos = rng.randint(0, len(M[0]))
            for r, row in enumerate(M):
                row.insert(pos, Fraction(int(r == i)))
            units += 1
    redundant = m >= 2 and rng.random() < 0.3
    if redundant:
        a, b = rng.sample(range(m), 2)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        M.append([x + s * y for x, y in zip(M[a], M[b])])
        rhs.append(rhs[a] + s * rhs[b])
    obj = [_entry(rng) for _ in range(len(M[0]) if M else n)]
    features = {
        "negative rhs": any(r < 0 for r in rhs),
        "redundant row": redundant,
        "unit columns": units > 0,
        "64-bit denominators": any(
            a.denominator.bit_length() > 32 for row in M + [rhs, obj] for a in row
        ),
        "no rows": not M,
    }
    return M, rhs, obj, features


def test_kernel_matches_the_bland_oracle():
    """Every outcome of the integer kernel is the Fraction tableau's, field by
    field and down to the repr: the same Bland pivots on positively scaled
    columns, rhs and costs give the same basis, point, duals, ray and Farkas
    vector."""
    rng = random.Random(6021)
    outcomes, features = Counter(), Counter()
    for _ in range(2400):
        M, rhs, obj, feats = _standard_form_program(rng)
        got = _kernel_fields(solve_standard_form(M, rhs, obj))
        assert repr(got) == repr(bland_simplex_oracle(M, rhs, obj)), (M, rhs, obj)
        outcomes[got[0]] += 1
        features.update(k for k, v in feats.items() if v)
    assert min(outcomes[k] for k in ("optimal", "unbounded", "infeasible")) >= 300, outcomes
    assert min(features.values()) >= 100 and len(features) == 5, features


# ---------------------------------------------------------------------------
# the tolerance-free guarantee: a wrong read-out raises, it is never returned
# ---------------------------------------------------------------------------

# Every message of the kernel's certificate checks.
KERNEL_CHECKS = {
    "farkas certificate fails g^T M <= 0",
    "farkas certificate fails g^T rhs > 0",
    "primal point has a negative coordinate",
    "primal point violates an equality row",
    "unbounded ray is not in the kernel of M",
    "unbounded ray has a negative component",
    "unbounded ray does not improve the objective",
    "objective value mismatch",
    "positive reduced cost at claimed optimum",
    "strong duality violated",
}


def _certificate_holds(M, rhs, obj, out):
    """The kernel's outcome certificate, checked with plain ``Fraction`` sums."""
    cols = [[row[j] for row in M] for j in range(len(obj))]
    if isinstance(out, KernelInfeasible):
        g = out.farkas
        return all(dot_oracle(g, col) <= 0 for col in cols) and dot_oracle(g, rhs) > 0
    t = out.t0 if isinstance(out, KernelUnbounded) else out.t
    if any(a < 0 for a in t) or any(dot_oracle(row, t) != b for row, b in zip(M, rhs)):
        return False
    if isinstance(out, KernelUnbounded):
        d = out.ray
        return (all(a >= 0 for a in d) and all(dot_oracle(row, d) == 0 for row in M)
                and dot_oracle(obj, d) > 0)
    y = out.duals
    return (dot_oracle(obj, t) == out.value == dot_oracle(y, rhs)
            and all(c <= dot_oracle(y, col) for c, col in zip(obj, cols)))


def _perturbations(out):
    """``out`` with one entry changed, for every entry of its point, duals,
    value, ray or Farkas vector and several changes of each."""
    for name in [f.name for f in fields(out)]:
        value = getattr(out, name)
        entries = value if isinstance(value, tuple) else (value,)
        for k, a in enumerate(entries):
            for b in {a + 1, a - 1, a + Fraction(1, 2), -a, 2 * a, Fraction(0)} - {a}:
                changed = entries[:k] + (b,) + entries[k + 1:]
                yield replace(out, **{name: changed if isinstance(value, tuple) else b})


# Small programs on which, between them, each check is the first to catch some
# change: t0 + t1 = 1 (optimal), t0 = 1 with t1 free to grow (unbounded),
# 0 t0 = 1 (infeasible), two infeasible programs with a negative rhs, which
# flips its row, an optimum with rational duals, and two programs with no
# columns, the empty cone {0} as geometry asks it: with rhs = 0 only an
# optimum has a valid certificate, and with rhs = (1, 0) only a Farkas vector.
MUTATION_PROGRAMS = [
    ([[1, 1]], [1], [1, 0]),
    ([[1, 0]], [1], [0, 1]),
    ([[0]], [1], [0]),
    ([[1, 2], [1, -1]], [-1, 2], [1, 1]),
    ([[1, 1, 0], [1, -1, 1]], [-2, 1], [1, -1, 0]),
    ([[2, 1, 0], [0, 1, 1]], [4, Fraction(3, 2)], [1, 1, -1]),
    ([[], []], [0, 0], []),
    ([[], []], [1, 0], []),
]


def test_every_perturbed_kernel_read_out_raises_or_is_a_valid_certificate(monkeypatch):
    """Each entry that the kernel's read-out builds is changed, one at a time,
    before the kernel checks it: the kernel either raises InternalError or
    returns a certificate that a plain Fraction check accepts.  Every check
    is the one that raises on some change, so deleting any check fails."""
    rng = random.Random(9)
    programs = MUTATION_PROGRAMS + [_standard_form_program(rng)[:3] for _ in range(40)]
    checked = simplex._verified
    raised, kinds = Counter(), Counter()
    for M, rhs, obj in programs:
        monkeypatch.setattr(simplex, "_verified", checked)
        out = solve_standard_form(M, rhs, obj)
        assert _certificate_holds(M, rhs, obj, out)
        kinds[type(out).__name__] += 1
        for changed in _perturbations(out):
            perturbed = lambda M, rhs, obj, _: checked(M, rhs, obj, changed)  # noqa: E731
            monkeypatch.setattr(simplex, "_verified", perturbed)
            try:
                got = solve_standard_form(M, rhs, obj)
            except InternalError as e:
                raised[str(e)] += 1
            else:
                assert got == changed, (M, rhs, obj, changed)
                assert _certificate_holds(M, rhs, obj, got), (M, rhs, obj, changed)
    assert set(raised) == KERNEL_CHECKS, raised
    assert min(kinds.values()) >= 5 and len(kinds) == 3, kinds
    # With no rows every dual combination is zero, so a positive cost still fails.
    with pytest.raises(InternalError, match="positive reduced cost"):
        checked(simplex._Program([], 1), [], [Fraction(1)], KernelOptimal((Fraction(0),), Fraction(0), ()))


def _unequal_denominator_program(rng):
    """A random ``(M, rhs, obj)`` whose columns have pairwise different prime
    denominators, each held by some entry, so that the checker's ``L``, the lcm
    of all of ``M``'s denominators, differs from every column's ``kappa_j``.
    Some have a zero column (``kappa_j = 1``), along which a ray's entry can
    change and stay in the kernel of ``M``."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    cols = []
    for p in rng.sample([2, 3, 5, 7, 11], n):
        col = [Fraction(rng.randint(-3, 3), p) for _ in range(m)]
        col[rng.randrange(m)] = Fraction(rng.choice([-1, 1]), p)
        cols.append(col)
    if rng.random() < 0.3:
        cols.insert(rng.randint(0, n), [Fraction(0)] * m)
        n += 1
    M = [list(row) for row in zip(*cols)]
    if rng.random() < 0.6:
        t = [Fraction(rng.randint(0, 2)) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, t)) for row in M]
    else:
        rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
    obj = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
    return M, rhs, obj


def test_every_perturbed_read_out_of_unequal_denominators_raises_or_is_a_valid_certificate(monkeypatch):
    """The perturbation check of the test above, on programs whose checker
    scale ``L`` is no column's scale: the checker's integers are never the
    tableau's, and every check still catches some change."""
    rng = random.Random(33)
    programs = [_unequal_denominator_program(rng) for _ in range(60)]
    checked = simplex._verified
    raised, kinds = Counter(), Counter()
    for M, rhs, obj in programs:
        L = lcm(*[a.denominator for row in M for a in row])
        assert all(L != lcm(*[row[j].denominator for row in M]) for j in range(len(obj)))
        monkeypatch.setattr(simplex, "_verified", checked)
        out = solve_standard_form(M, rhs, obj)
        assert _certificate_holds(M, rhs, obj, out)
        kinds[type(out).__name__] += 1
        for changed in _perturbations(out):
            monkeypatch.setattr(simplex, "_verified", lambda M, rhs, obj, _, c=changed: checked(M, rhs, obj, c))
            try:
                got = solve_standard_form(M, rhs, obj)
            except InternalError as e:
                raised[str(e)] += 1
            else:
                assert got == changed and _certificate_holds(M, rhs, obj, got), (M, rhs, obj, changed)
    assert set(raised) == KERNEL_CHECKS, raised
    assert min(kinds.values()) >= 5 and len(kinds) == 3, kinds


def test_read_outs_share_the_exact_zero_one_and_minus_one(monkeypatch):
    """Every exact 0 and 1 that the kernel reads out (points, values, duals,
    rays, Farkas vectors) is the shared ``ZERO`` or ``ONE``, on seeded kernel
    programs and on the programs of ``solve_lp`` and ``ri_membership``; and
    every exact 0, 1 and -1 of an optimal ``solve_lp`` point is shared too."""
    kernel, outs = simplex.solve_standard_form, []

    def recording(M, rhs, obj):
        outs.append(kernel(M, rhs, obj))
        return outs[-1]

    monkeypatch.setattr(simplex, "solve_standard_form", recording)
    monkeypatch.setattr(geometry, "solve_standard_form", recording)
    rng = random.Random(34)
    for _ in range(150):
        recording(*_standard_form_program(rng)[:3])
    xs = list(solve_lp(LinearProgram(qv(-1, 1), box(2))).x)
    for _ in range(150):
        dim = rng.randint(1, 3)
        res = solve_lp(LinearProgram(rand_vec(rng, dim), rand_hpoly(rng, dim, rng.randint(1, 5))))
        xs.extend(res.x if isinstance(res, Optimal) else ())
    for _ in range(150):
        dim = rng.randint(1, 3)
        ri_membership(rand_genset(rng, dim), rand_vec(rng, dim, span=2, den=2))
    fields_of = [getattr(out, f.name) for out in outs for f in fields(out)]
    values = [q for v in fields_of for q in (v if isinstance(v, tuple) else (v,))]
    assert {type(out) for out in outs} == {KernelOptimal, KernelUnbounded, KernelInfeasible}
    assert {ZERO, ONE} <= set(values) and {ZERO, ONE, -ONE} <= set(xs)
    assert all(q is ZERO for q in values + xs if q == 0) and all(q is ONE for q in values + xs if q == 1)
    assert all(q is _MINUS_ONE for q in xs if q == -1)


def _under_each_perturbation(monkeypatch, check):
    """Runs ``check()`` as it is, then once for each perturbation of the read-out
    of its first kernel LP, which ``_verified`` is handed in place of the real
    one; later LPs (an oracle's own) are checked as they are.  A perturbed run
    must raise one of the kernel's own checks or pass ``check``'s oracle.
    Returns the type of the unperturbed outcome."""
    checked = simplex._verified
    seen = []

    def record(M, rhs, obj, out):
        seen.append(out)
        return checked(M, rhs, obj, out)

    monkeypatch.setattr(simplex, "_verified", record)
    kind = type(check())
    for changed in _perturbations(seen[0]):
        calls = []

        def once(M, rhs, obj, out):
            calls.append(out)
            return checked(M, rhs, obj, changed if len(calls) == 1 else out)

        monkeypatch.setattr(simplex, "_verified", once)
        try:
            check()
        except InternalError as e:
            assert str(e) in KERNEL_CHECKS, (e, changed)
    return kind


def _checked_lp(program):
    res = solve_lp(program)
    _check_invariants(program, res)
    return res


def test_every_perturbed_kernel_read_out_gives_callers_an_error_or_a_valid_outcome(monkeypatch):
    """The kernel's check is the only check of an LP certificate, and it
    guards the callers too: with each kernel read-out entry changed in turn,
    ``solve_lp`` either raises one of the kernel's checks or returns an
    outcome that holds in H-form, and ``ri_membership`` either raises or
    gives a verdict that ``check_trichotomy`` accepts."""
    rng = random.Random(12)
    programs = [
        LinearProgram(qv(1, 1), box(2)),
        LinearProgram(qv(0, 0, 1), pyramid()),
        lp([1, 0], [[1, 0], [1, 0], [0, 1]], [1, 1, 1]),
        lp([1, 2], [], []),
        lp([0, 0], [], []),
        lp([1], [[-1]], [0]),
        lp([1, 1], [[1, -1], [-1, 1]], [1, 1]),
        lp([1], [[1], [-1]], [0, -1]),
        lp([1, 0], [[1, 1], [-1, -1]], [-1, -1]),
        lp([0, 1], [[1, 0], [-1, 0], [0, 1]], [Fraction(1, 3), Fraction(-1, 2), 1]),
        lp([1, 1, 1], [[1, 1, 1], [-1, -1, -1], [1, 0, 0]], [1, -2, 0]),
        lp([1, -1], [[Fraction(1, 2), Fraction(2, 3)], [-1, 0]], [Fraction(3, 4), 0]),
    ]
    for _ in range(40):
        dim = rng.randint(1, 3)
        programs.append(LinearProgram(rand_vec(rng, dim), rand_hpoly(rng, dim, rng.randint(1, 5))))
    kinds = Counter(_under_each_perturbation(monkeypatch, lambda: _checked_lp(p)) for p in programs)
    assert min(kinds.values()) >= 5 and len(kinds) == 3, kinds

    redundant = GeneratedSet((qv(0, 0), qv(2, 0), qv(1, 0)), (qv(1, 0), qv(2, 0)), 2)
    queries = [(redundant, qv(3, 0)), (redundant, qv(0, 0)), (redundant, qv(0, 1))]
    for _ in range(40):
        dim = rng.randint(1, 3)
        S = rand_genset(rng, dim)
        y = S.points[rng.randrange(len(S.points))] if rng.random() < 0.6 else rand_vec(rng, dim)
        queries.append((S, y))
    kinds = Counter(
        _under_each_perturbation(monkeypatch, lambda: check_trichotomy(S, y)) for S, y in queries
    )
    assert min(kinds.values()) >= 5 and len(kinds) == 3, kinds


# ---------------------------------------------------------------------------
# a function's prepared epigraph program: the kernel's scaling and the
# checker's are kept apart
# ---------------------------------------------------------------------------

EPIGRAPHS = {
    # |x - 1/2| + 1/3 on x <= 3: its minimizer and minimum are not 0
    "abs": lambda: PolyhedralFunction.build(
        [((1,), Fraction(-1, 6)), ((-1,), Fraction(5, 6))], [(1,)], [3], 1
    ),
    "box2": lambda: box_indicator(2),
    "pyramid": pyramid_indicator,
    "random101": lambda: PolyhedralFunction.indicator(random_polytope(101, 3, 8)),
}


def _tilts(f):
    """Three sampled tilts of ``f`` and the minimizer that an untouched copy
    of ``f`` finds for each.  The first fills the prepared program, and the
    changed program then solves the other two."""
    tilts = [sample_objective(SamplerConfig(5), i, f.dim) for i in range(3)]
    return tilts, [minimize_perturbed(replace(f), v) for v in tilts]


def _change(P, kind, i, j):
    """Changes one entry of the prepared program ``P``: ``K[i][j]`` up by one,
    ``kappa[j]`` doubled, or entry ``(i, j)`` of the checker's ``rows`` or
    ``cols[j][i]`` down by one."""
    if kind == "K":
        P.K[i][j] += 1
    elif kind == "kappa":
        P.kappa[j] *= 2
    elif kind == "rows":
        P.rows[i][j] -= 1
    else:
        P.cols[j] = P.cols[j][:i] + (P.cols[j][i] - 1,) + P.cols[j][i + 1:]


def _corrupted_runs(f, kinds):
    """For each kind, each entry of that kind and each tilt after the first:
    ``(kind, v, outcome)``, the outcome of the tilt ``v`` on a copy of ``f``
    whose prepared epigraph program, filled by the first tilt, has had that
    entry changed, or the ``InternalError`` it raised."""
    tilts, _ = _tilts(f)
    P = f._epigraph._split
    for kind in kinds:
        entries = [(0, j) for j in range(P.ncols)] if kind == "kappa" else [
            (i, j) for i in range(len(P.K)) for j in range(P.ncols)
        ]
        for i, j in entries:
            for v in tilts[1:]:
                g = replace(f)
                minimize_perturbed(g, tilts[0])
                _change(g._epigraph._split, kind, i, j)
                try:
                    yield kind, v, minimize_perturbed(g, v)
                except InternalError as e:
                    assert str(e) in KERNEL_CHECKS, e
                    yield kind, v, e


@pytest.mark.parametrize("name", sorted(EPIGRAPHS))
def test_a_corrupted_kernel_scale_of_a_cached_epigraph_raises(name):
    """One entry of the scaled integer rows ``K``, or one ``kappa``, of a
    function's prepared epigraph program is changed after its first tilt.  The
    next tilt raises one of the kernel's checks or finds the minimizer that an
    untouched copy finds, never another: the checker's rows are its own scaling
    of the caller's program, not the tableau's.  Some changes of each kind
    raise, so the changed program is the one the kernel reads."""
    f = EPIGRAPHS[name]()
    tilts, expected = _tilts(f)
    want = dict(zip(tilts, map(repr, expected)))
    raised = Counter()
    for kind, v, got in _corrupted_runs(f, ("K", "kappa")):
        if isinstance(got, InternalError):
            raised[kind] += 1
        else:
            assert repr(got) == want[v], (kind, v)
    assert raised["K"] and raised["kappa"], raised


def _minimizer_holds(f, v, got, value):
    """``got`` is a point of the domain at which ``f - <v, .>`` takes the
    minimum ``value``, in plain ``Fraction`` sums."""
    x = got.x
    on_domain = all(dot_oracle(a, x) <= b for a, b in zip(f.domain.A, f.domain.b))
    at_x = max(dot_oracle(c, x) + d for c, d in f.terms) - dot_oracle(v, x)
    return isinstance(got, Minimizer) and on_domain and at_x == got.value == value


@pytest.mark.parametrize("name", sorted(EPIGRAPHS))
def test_a_corrupted_checker_row_of_a_cached_epigraph_raises_or_is_right(name):
    """One entry of the checker's scaled rows, or of its columns, of a
    function's prepared epigraph program is lowered by one after its first
    tilt.  The next tilt raises one of the kernel's checks or returns a
    minimizer that plain ``Fraction`` sums and the enumeration oracle accept.
    Some changes of each kind raise, so the checker reads its own rows and
    columns, not the tableau's."""
    f = EPIGRAPHS[name]()
    E = f._epigraph
    value = {v: -lp_enum_oracle((*v, -1), E.A, E.b, f.dim + 1)[1] for v in _tilts(f)[0][1:]}
    raised = Counter()
    for kind, v, got in _corrupted_runs(f, ("rows", "cols")):
        if isinstance(got, InternalError):
            raised[kind] += 1
        else:
            assert _minimizer_holds(f, v, got, value[v]), (kind, v, got)
    assert raised["rows"] and raised["cols"], raised
