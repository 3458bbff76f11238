"""Exact proximal maps, the Minty resolvent transport, and critical-point
enumeration for quadratically tilted polyhedral functions."""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_points_of, qv, rand_polyfun, rand_vec, vscale
from nondegen import geometry, proximal, simplex
from nondegen.errors import EnumerationBoundError, InfeasibleDomainError, InternalError
from nondegen.functions import (
    NOT_CRITICAL,
    DegenerateCritical,
    Nondegenerate,
    NotCritical,
    PolyhedralFunction,
    _active_structure,
    _read_off,
    certify,
    subdifferential,
)
from nondegen.gallery import (
    abs_function,
    box_indicator,
    pyramid_indicator,
    random_polytope,
    simplex_indicator,
)
from nondegen.geometry import Boundary, Interior, member, ri_membership, translate
from nondegen.linalg import ONE, ZERO, Q, UniqueSolution, dot, solve_linear, vsub, zeros
from nondegen.proximal import (
    LowerC2Instance,
    _kkt_solutions,
    find_critical_points,
    minty_transport,
    prox,
)
from oracles import critical_points_1d, kkt_solutions_oracle, prox_1d

ABS_RHO_1 = LowerC2Instance(abs_function(), Q(1))


# ---------------------------------------------------------------------------
# prox
# ---------------------------------------------------------------------------


def test_prox_abs_soft_threshold():
    assert prox(abs_function(), qv(3)) == qv(2)


def test_prox_abs_collapses_small_inputs():
    assert prox(abs_function(), qv("1/2")) == qv(0)


def test_prox_of_indicator_is_projection():
    assert prox(box_indicator(2), qv(3, 0)) == qv(1, 0)


def test_prox_enumeration_bound(monkeypatch):
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", "3")
    with pytest.raises(EnumerationBoundError) as info:
        prox(box_indicator(2), qv(0, 0))
    assert info.value.count == 4
    assert info.value.bound == 3
    assert "4" in str(info.value) and "3" in str(info.value)


def test_prox_infeasible_domain():
    f = PolyhedralFunction.build([], [(1,), (-1,)], [-1, -1], 1)
    with pytest.raises(InfeasibleDomainError):
        prox(f, qv(0))


def test_rho_must_be_positive():
    with pytest.raises(ValueError, match="rho must be positive"):
        LowerC2Instance(abs_function(), Q(0))
    with pytest.raises(ValueError, match="rho must be positive"):
        LowerC2Instance(abs_function(), Q(-1))


# ---------------------------------------------------------------------------
# minty_transport
# ---------------------------------------------------------------------------


def test_transport_shifts_smooth_region():
    x, h = minty_transport(ABS_RHO_1, qv(3))
    assert (x, h) == (qv(2), qv(-1))
    # h must be a subgradient of g - (rho/2)|.|^2 at x, i.e. of dg(x) - rho x
    S = subdifferential(abs_function(), x)
    assert member(translate(S, vscale(Q(1), x)), h)


def test_transport_fixes_the_kink():
    assert minty_transport(ABS_RHO_1, qv(0)) == (qv(0), qv(0))


def test_transport_preserves_boundary_status():
    x, h = minty_transport(ABS_RHO_1, qv(1))
    assert (x, h) == (qv(0), qv(1))
    S = subdifferential(abs_function(), x)
    before = ri_membership(translate(S, vscale(Q(-1), x)), qv(1))
    after = ri_membership(translate(S, vscale(Q(1), x)), h)
    assert type(before) is type(after)


# ---------------------------------------------------------------------------
# find_critical_points
# ---------------------------------------------------------------------------


def test_critical_points_of_untilted_abs():
    res = find_critical_points(ABS_RHO_1, qv(0))
    assert [x for x, _ in res] == [qv(-1), qv(0), qv(1)]
    assert all(isinstance(c, Nondegenerate) for _, c in res)


def test_critical_points_on_the_bad_tilt():
    res = find_critical_points(ABS_RHO_1, qv(1))
    assert [x for x, _ in res] == [qv(-2), qv(0)]
    assert isinstance(res[0][1], Nondegenerate)
    assert isinstance(res[1][1], DegenerateCritical)


def test_critical_points_on_a_generic_tilt():
    res = find_critical_points(ABS_RHO_1, qv("1/2"))
    assert [x for x, _ in res] == [qv("-3/2"), qv(0), qv("1/2")]
    assert all(isinstance(c, Nondegenerate) for _, c in res)


@pytest.mark.parametrize(
    "v, expected, certified",
    [
        (qv(0), [(-1, Nondegenerate), (0, Nondegenerate), (1, Nondegenerate)], []),
        # the kink is reached by the support {x} first, then by its active set
        (qv(1), [(-2, Nondegenerate), (0, DegenerateCritical)], []),
        # the kink's multipliers (-1, 2) rule it out; -2 is reached only by
        # the piece x, which is not active there, so it is not critical
        (qv(3), [(-4, Nondegenerate)], []),
    ],
)
def test_critical_points_reached_by_their_active_sets_need_no_lp(monkeypatch, v, expected, certified):
    calls = []

    def recording(g, w, x):
        calls.append(x)
        return certify(g, w, x)

    monkeypatch.setattr(proximal, "certify", recording)
    res = find_critical_points(ABS_RHO_1, v)
    assert [(x, type(c)) for x, c in res] == [(qv(x), kind) for x, kind in expected]
    assert calls == certified


@pytest.mark.parametrize(
    "name, inst, v",
    [
        # the apex is the one point of the pyramid that goes through certify
        ("certify", LowerC2Instance(pyramid_indicator(), Q(1)), qv(0, 0, 1)),
        ("_read_off", ABS_RHO_1, qv(0)),
    ],
)
def test_a_stationary_point_certified_not_critical_raises(monkeypatch, name, inst, v):
    """Every mapped point has ``v + rho x`` rebuilt from nonnegative
    multipliers over its active generators, so a NotCritical verdict for it
    is a solver bug: it raises instead of dropping the point."""
    monkeypatch.setattr(proximal, name, lambda *args: NOT_CRITICAL)
    with pytest.raises(InternalError, match="not critical"):
        find_critical_points(inst, v)


def _corrupting(kind):
    """``_kkt_solutions`` with one integer multiplier of every solution
    changed by one, that is by ``1 / D``."""
    solutions = proximal._kkt_solutions

    def corrupted(f, x_coef, rhs_vec):
        for x, Z, D, J, I in solutions(f, x_coef, rhs_vec):
            Z = list(Z)
            if kind == "mu":
                Z[0] += 1
            elif kind == "shift" and len(J) > 1:  # the sum stays 1
                Z[0], Z[1] = Z[0] + 1, Z[1] - 1
            elif kind == "lam" and I:
                Z[len(J)] += 1
            yield x, Z, D, J, I

    return corrupted


CALLS = {
    "find_critical_points": find_critical_points,
    "prox": lambda inst, c: prox(inst.g, c),
    "minty_transport": minty_transport,
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize(
    "kind, inst, c",
    [
        ("mu", LowerC2Instance(box_indicator(2), Q(1)), qv(3, 0)),  # the zero piece: only the sum moves
        ("shift", ABS_RHO_1, qv(0)),
        # from (3, 0) the facet x_1 <= 1 has a positive multiplier in prox too
        ("lam", LowerC2Instance(box_indicator(2), Q(1)), qv(3, 0)),
    ],
)
def test_corrupted_multipliers_fail_the_rebuild_check(monkeypatch, call, kind, inst, c):
    monkeypatch.setattr(proximal, "_kkt_solutions", _corrupting(kind))
    with pytest.raises(InternalError, match="do not rebuild"):
        CALLS[call](inst, c)


def test_prox_runs_no_kernel_call(monkeypatch):
    """prox's certificate check is the read-off's exact rebuild, not an LP:
    no kernel call at either binding, on a domain that has points."""
    calls = []
    kernel = simplex.solve_standard_form

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(simplex, "solve_standard_form", recording)
    monkeypatch.setattr(geometry, "solve_standard_form", recording)
    cases = [
        (abs_function(), [qv(3), qv("1/2"), qv(0), qv(-2)]),
        (box_indicator(2), [qv(3, 0), qv("1/2", -5), qv(0, 0), qv(2, 2)]),
        (pyramid_indicator(), [qv(0, 0, 2), qv(1, -1, "1/3"), qv(5, 5, -5)]),
    ]
    for g, centres in cases:
        for c in centres:
            x = prox(g, c)
            assert minty_transport(LowerC2Instance(g, Q(1)), c)[0] == x
    assert calls == []
    # both recording bindings are live: an LP through either module is seen
    geometry.member(subdifferential(abs_function(), qv(0)), qv(0))
    simplex.feasible_point(box_indicator(2).domain)
    assert len(calls) == 2


def test_critical_point_enumeration_respects_bound(monkeypatch):
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", "3")
    with pytest.raises(EnumerationBoundError):
        find_critical_points(LowerC2Instance(box_indicator(2), Q(1)), qv(0, 0))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _sq_norm(v):
    return sum(a * a for a in v)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_prox_is_one_lipschitz(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    g = rand_polyfun(rng, dim)
    c1 = rand_vec(rng, dim)
    c2 = rand_vec(rng, dim)
    x1 = prox(g, c1)
    x2 = prox(g, c2)
    assert _sq_norm(vsub(x1, x2)) <= _sq_norm(vsub(c1, c2))


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_prox_fixed_points_are_minimizers(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    g = rand_polyfun(rng, dim)
    for c in feasible_points_of(g, rng):
        fixed = prox(g, c) == tuple(c)
        has_zero_subgradient = member(subdifferential(g, c), zeros(dim))
        assert fixed == has_zero_subgradient


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_prox_satisfies_first_order_optimality(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    g = rand_polyfun(rng, dim)
    c = rand_vec(rng, dim)
    x = prox(g, c)
    assert member(subdifferential(g, x), vsub(c, x))


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_transport_lands_in_shifted_subdifferential(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    g = rand_polyfun(rng, dim)
    rho = Q(rng.randint(1, 3), rng.randint(1, 2))
    inst = LowerC2Instance(g, rho)
    c = rand_vec(rng, dim)
    x, h = minty_transport(inst, c)
    S = subdifferential(g, x)
    assert member(translate(S, vscale(rho, x)), h)
    before = ri_membership(translate(S, vscale(Q(-1), x)), c)
    after = ri_membership(translate(S, vscale(rho, x)), h)
    assert type(before) is type(after)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_univariate_prox_matches_breakpoint_oracle(seed):
    rng = random.Random(seed)
    g = rand_polyfun(rng, 1)
    c = rand_vec(rng, 1)
    pieces = [(cf[0], d) for cf, d in g.pieces]
    cons = [(row[0], b) for row, b in zip(g.domain.A, g.domain.b)]
    expected = prox_1d(pieces, cons, c[0])
    assert prox(g, c)[0] == expected


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_univariate_critical_points_match_oracle(seed):
    rng = random.Random(seed)
    g = rand_polyfun(rng, 1)
    rho = Q(rng.randint(1, 3))
    v = rand_vec(rng, 1)
    pieces = [(cf[0], d) for cf, d in g.pieces]
    cons = [(row[0], b) for row, b in zip(g.domain.A, g.domain.b)]
    expected = critical_points_1d(pieces, cons, rho, v[0])
    got = find_critical_points(LowerC2Instance(g, rho), v)
    assert [x[0] for x, _ in got] == [x for x, _ in expected]
    for (_, cert), (_, label) in zip(got, expected):
        if label == "nondegenerate":
            assert isinstance(cert, Nondegenerate)
        else:
            assert isinstance(cert, DegenerateCritical)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_critical_points_solve_the_inclusion(seed):
    """Every reported critical point satisfies v + rho*x in dg(x) exactly."""
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    g = rand_polyfun(rng, dim)
    rho = Q(rng.randint(1, 2))
    v = rand_vec(rng, dim)
    for x, cert in find_critical_points(LowerC2Instance(g, rho), v):
        w = tuple(vi + rho * xi for vi, xi in zip(v, x))
        assert member(subdifferential(g, x), w)
        status = ri_membership(subdifferential(g, x), w)
        if isinstance(cert, Nondegenerate):
            assert isinstance(status, Interior)
        else:
            assert isinstance(status, Boundary)


def _critical_points_reference(g, rho, v):
    """Every in-domain solution of the full KKT systems, certified by
    ``certify``; the points that are critical, sorted."""
    found = {}
    for x, *_ in kkt_solutions_oracle(g.pieces, g.domain.A, g.domain.b, g.dim, -rho, v):
        x = tuple(x)
        if x in found or g.domain.violation_index(x) is not None:
            continue
        cert = certify(g, tuple(vi + rho * xi for vi, xi in zip(v, x)), x)
        if not isinstance(cert, NotCritical):
            found[x] = cert
    return sorted(found.items())


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_critical_points_match_certify_on_every_candidate(seed):
    """Each returned verdict is ``certify``'s, whether it came from the
    multipliers or from the LP, and the points are those of certifying every
    in-domain candidate."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    g = rand_polyfun(rng, dim)
    while not g.pieces or len(g.pieces) + g.domain.m > 8:
        g = rand_polyfun(rng, dim)
    for rho in (Q(1, 2), Q(2)):
        for _ in range(3):
            v = rand_vec(rng, dim)
            got = find_critical_points(LowerC2Instance(g, rho), v)
            for x, cert in got:
                assert cert == certify(g, tuple(vi + rho * xi for vi, xi in zip(v, x)), x)
            assert got == _critical_points_reference(g, rho, v)


def _multipliers(Z, D, jsize):
    """The integer multipliers ``Z`` over ``D`` of a support with ``jsize``
    pieces as lists of rationals, ``mu`` then ``lam``."""
    z = [Q(a, D) for a in Z]
    return z[:jsize], z[jsize:]


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_reduced_kkt_systems_match_the_full_systems(seed):
    """The multiplier-only systems yield exactly the supports and solutions
    of the square systems in (x, mu, lam) whose multipliers are all
    nonnegative, for prox and for critical points: a support dropped or kept
    on a wrong sign changes the list."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    g = rand_polyfun(rng, dim)
    while len(g.pieces) + g.domain.m > 8:
        g = rand_polyfun(rng, dim)
    target = rand_vec(rng, dim)
    rho = Q(rng.randint(1, 4), rng.randint(1, 3))
    for x_coef in (Q(1), -rho):
        got = [
            (list(x), *_multipliers(Z, D, len(J)), J, I)
            for x, Z, D, J, I in _kkt_solutions(g, x_coef, target)
        ]
        expected = [
            (x, mu, lam, J, I)
            for x, mu, lam, J, I in kkt_solutions_oracle(
                g.pieces, g.domain.A, g.domain.b, dim, x_coef, target
            )
            if min(mu + lam) >= 0
        ]
        assert got == expected


def _kkt_solutions_by_solve_linear(f, x_coef, rhs_vec):
    """``_kkt_solutions`` as one ``solve_linear`` per support: the same
    multiplier systems, built from ``Fraction`` dot products, and the same
    order; ``x = (rhs_vec - sum_g z_g g) / x_coef`` in ``Fraction``s."""
    n, k, m = f.dim, len(f.terms), f.domain.m
    gens = [c for c, _ in f.terms] + list(f.domain.A)
    offset = [x_coef * d for _, d in f.terms] + [-x_coef * b for b in f.domain.b]
    t = [dot(g, rhs_vec) + off for g, off in zip(gens, offset)]
    out = []
    for jsize in range(1, min(k, n + 1) + 1):
        for J in combinations(range(k), jsize):
            j0 = J[0]
            for isize in range(0, min(m, n + 1 - jsize) + 1):
                for I in combinations(range(m), isize):
                    support = [*J, *(k + i for i in I)]
                    rows, rhs = [[1] * jsize + [0] * isize], [1]
                    for j in J[1:]:
                        rows.append([dot(vsub(gens[j], gens[j0]), gens[g]) for g in support])
                        rhs.append(t[j] - t[j0])
                    for i in I:
                        rows.append([dot(gens[k + i], gens[g]) for g in support])
                        rhs.append(t[k + i])
                    sol = solve_linear(rows, rhs)
                    if not isinstance(sol, UniqueSolution) or min(sol.x) < 0:
                        continue
                    z = sol.x
                    x = tuple(
                        (r - sum(zg * gens[g][d] for zg, g in zip(z, support))) / x_coef
                        for d, r in enumerate(rhs_vec)
                    )
                    out.append((x, z[:jsize], z[jsize:], J, I))
    return out


def _kkt_instances():
    """Seeded random functions and targets, and gallery functions at lattice
    points, each with ``x_coef`` 1 (prox) and ``-rho`` (critical points)."""
    rng = random.Random("kkt-by-solve-linear")
    cases = []
    for _ in range(30):
        dim = rng.randint(1, 3)
        g = rand_polyfun(rng, dim)
        while len(g.pieces) + g.domain.m > 8:
            g = rand_polyfun(rng, dim)
        cases.append((g, rand_vec(rng, dim), Q(rng.randint(1, 4), rng.randint(1, 3))))
    for g in (abs_function(), box_indicator(2), simplex_indicator(), pyramid_indicator()):
        for _ in range(3):
            cases.append((g, tuple(Q(rng.randint(-8, 8), 4) for _ in range(g.dim)), Q(1, 2)))
    return [(g, x_coef, target) for g, target, rho in cases for x_coef in (ONE, -rho)]


def _negated(eliminate):
    """``_eliminate`` that hands back its rows and last pivot negated: the
    same reduced rows ``M / d``.  A nonsingular support's last pivot is a
    Gram determinant, so it is positive as eliminated; this reaches the sign
    flip for ``d < 0``."""

    def negated(M, ncols):
        pivots, d = eliminate(M, ncols)
        M[:] = [[-a for a in row] for row in M]
        return pivots, -d

    return negated


@pytest.mark.parametrize("last_pivot", ["as eliminated", "negated"])
def test_kkt_solutions_match_one_solve_linear_per_support(monkeypatch, last_pivot):
    """The integer elimination yields what ``solve_linear`` gives on each
    support's system, in the same order, with the same reprs, whatever the
    sign of the last pivot; the instances include singular supports."""
    eliminate = proximal._eliminate if last_pivot == "as eliminated" else _negated(proximal._eliminate)
    seen = set()  # "singular", or whether a nonsingular support's last pivot is positive

    def recording(M, ncols):
        pivots, d = eliminate(M, ncols)
        seen.add("singular" if len(pivots) < ncols else d > 0)
        return pivots, d

    monkeypatch.setattr(proximal, "_eliminate", recording)
    for g, x_coef, target in _kkt_instances():
        solutions = list(_kkt_solutions(g, x_coef, target))
        assert all(D > 0 for _, _, D, _, _ in solutions)
        got = [(x, *map(tuple, _multipliers(Z, D, len(J))), J, I) for x, Z, D, J, I in solutions]
        assert repr(got) == repr(_kkt_solutions_by_solve_linear(g, x_coef, target))
    assert seen == {"singular", last_pivot == "as eliminated"}


def test_kkt_solutions_share_the_exact_zero_and_one():
    """Every coordinate equal to 0 or 1 is the shared ``ZERO`` or ``ONE``,
    and the instances have both.  The multipliers stay integers; the
    read-off's test covers the ones a verdict keeps."""
    values = [
        q for g, x_coef, target in _kkt_instances() for x, *_ in _kkt_solutions(g, x_coef, target) for q in x
    ]
    assert {ZERO, ONE} <= set(values)
    assert all(q is ZERO for q in values if q == 0)
    assert all(q is ONE for q in values if q == 1)


def _shares_zero_and_one(verdict):
    values = (*verdict.witness, *verdict.piece_weights, *verdict.constraint_multipliers)
    return all(q is ONE for q in values if q == 1) and all(q is ZERO for q in values if q == 0)


def test_read_off_verdicts_share_the_exact_zero_and_one(monkeypatch):
    """At the corner (1, 1) of the box, the query (1, 1) has the multipliers
    (1, 1, 1).  The read-off's witness is the shared ``ONE`` three times,
    whether it solved for the multipliers or was given them, and so are the
    weights and multipliers scattered from it; so are the verdicts that
    ``find_critical_points`` keeps from its own supports."""
    f = box_indicator(2)
    corner = qv(1, 1)
    active = _active_structure(f, corner)
    for given in (None, ([1, 1, 1], 1), ([3, 3, 3], 3)):
        verdict = _read_off(f, corner, active, given)
        assert verdict.witness == (ONE, ONE, ONE) and all(q is ONE for q in verdict.witness)
        assert _shares_zero_and_one(verdict)
    certified = []
    monkeypatch.setattr(proximal, "certify", lambda g, w, x: certified.append(x) or certify(g, w, x))
    found = dict(find_critical_points(LowerC2Instance(f, ONE), qv(0, 0)))
    assert found[corner].witness == (ONE, ONE, ONE) and corner not in certified
    assert all(_shares_zero_and_one(v) for v in found.values())


# the benchmark's prox instances, all at rho = 1/2
PROX_INSTANCES = {
    "abs": abs_function,
    "box2": lambda: box_indicator(2),
    "box3": lambda: box_indicator(3),
    "simplex3": simplex_indicator,
    "pyramid": pyramid_indicator,
    "random101": lambda: PolyhedralFunction.indicator(random_polytope(101, 3, 8)),
    "random202": lambda: PolyhedralFunction.indicator(random_polytope(202, 3, 8)),
}


def _prox_grid(name, dim):
    """24 seeded points per instance: 12 on the lattice of quarters in
    [-2, 2], where ties and zero multipliers are common, and 12 drawn as the
    benchmark draws them, with denominators 16..31."""
    rng = random.Random(f"prox-digest/{name}")
    lattice = [tuple(Q(rng.randint(-8, 8), 4) for _ in range(dim)) for _ in range(12)]
    drawn = [
        tuple(Q(rng.getrandbits(6) - 32, 16 + rng.getrandbits(4)) for _ in range(dim)) for _ in range(12)
    ]
    return lattice + drawn


def test_prox_outputs_match_the_golden_digest():
    """``minty_transport`` and ``find_critical_points`` on the benchmark's
    seven prox instances, over a seeded grid of points, are pinned by the
    SHA-256 of their repr in ``golden_csv_sha256.json``."""
    outputs = []
    for name, build in PROX_INSTANCES.items():
        inst = LowerC2Instance(build(), Q(1, 2))
        for y in _prox_grid(name, inst.g.dim):
            outputs.append((name, y, minty_transport(inst, y), find_critical_points(inst, y)))
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == golden["prox_repr"]
