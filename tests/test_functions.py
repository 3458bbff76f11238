"""Polyhedral functions: evaluation, subdifferentials, tilted minimization,
and the nondegeneracy certifier."""

import dataclasses
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_points_of, qv, rand_hpoly, rand_polyfun, rand_vec
from nondegen import geometry, simplex
from nondegen.errors import (
    DimensionMismatchError,
    InternalError,
    NotOptimalError,
    OutsideDomainError,
)
from nondegen.functions import (
    DegenerateCritical,
    Minimizer,
    NotCritical,
    Nondegenerate,
    PolyhedralFunction,
    Witness,
    argmin_face,
    canonical_minimizer,
    certify,
    evaluate,
    minimize_perturbed,
    strict_complementarity,
    subdifferential,
    _active_structure,
    _read_off,
)
from nondegen.experiments import (
    SamplerConfig, _candidate_points, construct_degenerate, genericity_trial, merge_trials, run_genericity, sample_objective
)
from nondegen.gallery import abs_function, box, box_indicator, pyramid_indicator, random_polytope
from nondegen.geometry import (
    Boundary,
    GeneratedSet,
    Interior,
    Outside,
    positive_span_is_subspace,
    ri_membership,
    translate,
)
from nondegen.linalg import ONE, Q, ZERO, _integer_point, dot, rank, zeros
from nondegen.simplex import (
    HPolyhedron,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    feasible_point,
    solve_lp,
)
from oracles import dot_oracle, dual_witness_oracle, minimize_1d

TIE = PolyhedralFunction.max_affine([((1,), 1), ((2,), 0)], 1)
SIMPLEX_2D = HPolyhedron([(-1, 0), (0, -1), (1, 1)], [0, 0, 1], 2)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_absolute_value():
    assert evaluate(abs_function(), qv(-3)) == Q(3)


def test_evaluate_indicator_outside_is_infinite():
    assert evaluate(box_indicator(2), qv(2, 0)) == math.inf


def test_evaluate_at_piece_tie():
    assert evaluate(TIE, qv(1)) == Q(2)


def test_evaluate_zero_function_on_domain():
    assert evaluate(box_indicator(2), qv(0, 0)) == Q(0)


def test_terms_of_zero_function_is_one_zero_piece():
    f = box_indicator(2)
    assert f.pieces == ()
    assert f.terms == ((qv(0, 0), Q(0)),)


def test_terms_are_the_pieces_when_there_are_some():
    assert TIE.terms == TIE.pieces
    assert abs_function().terms == abs_function().pieces


def test_terms_are_kept_from_the_first_use():
    """An indicator's zero piece is built once, outside the fields: ``==``,
    ``hash`` and ``repr`` read the same before and after."""
    f, twin = box_indicator(2), box_indicator(2)
    before = (hash(f), repr(f), f == twin)
    assert f.terms is f.terms
    assert "terms" in vars(f) and "terms" not in vars(twin)
    assert (hash(f), repr(f), f == twin) == before


def test_argmin_face_of_box_tilted_along_an_edge():
    # min over the box of -x_1 is -1, attained on the edge x_1 = 1
    f = box_indicator(2)
    face = argmin_face(f, qv(1, 0), Q(-1))
    assert face.A == box(2).A + (qv(-1, 0),)
    assert face.b == box(2).b + (Q(-1),)
    assert face.contains(qv(1, 0)) and face.contains(qv(1, -1))
    assert not face.contains(qv(0, 0))
    assert face.active_set(qv(1, 1)) == (0, 1, 4)


def test_argmin_face_has_one_row_per_piece():
    face = argmin_face(TIE, qv(1), Q(1))
    assert face.A == (qv(0), qv(1))
    assert face.b == (Q(0), Q(1))


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(abs_function(), qv(1, 2))


# ---------------------------------------------------------------------------
# subdifferential
# ---------------------------------------------------------------------------


def test_subdifferential_abs_at_kink():
    S = subdifferential(abs_function(), qv(0))
    assert set(S.points) == {qv(1), qv(-1)}
    assert S.rays == ()


def test_subdifferential_box_corner():
    S = subdifferential(box_indicator(2), qv(1, 1))
    assert S.points == (qv(0, 0),)
    assert set(S.rays) == {qv(1, 0), qv(0, 1)}


def test_subdifferential_smooth_region_is_singleton():
    S = subdifferential(abs_function(), qv(5))
    assert S.points == (qv(1),)
    assert S.rays == ()


def test_subdifferential_outside_domain_is_an_error():
    with pytest.raises(OutsideDomainError):
        subdifferential(box_indicator(2), qv(2, 0))


@pytest.mark.parametrize("seed", range(6))
def test_outside_point_names_the_first_violated_row(seed):
    """Two or more violated rows: subdifferential and certify name the one
    violation_index names, the lowest."""
    rng = random.Random(seed)
    f = rand_polyfun(rng, 2)
    while f.domain.m == 0:
        f = rand_polyfun(rng, 2)
    tried = 0
    for _ in range(100):
        x = rand_vec(rng, 2, span=40)
        violated = [i for i, (a, b) in enumerate(zip(f.domain.A, f.domain.b)) if dot_oracle(a, x) > b]
        if len(violated) < 2:
            continue
        tried += 1
        assert f.domain.violation_index(x) == violated[0]
        for call in (lambda: subdifferential(f, x), lambda: certify(f, zeros(2), x)):
            with pytest.raises(OutsideDomainError) as err:
                call()
            assert err.value.index == violated[0]
    assert tried >= 3


@pytest.mark.parametrize("seed", range(6))
def test_active_rows_are_the_active_set(seed):
    """The rays of ∂f(x) are the rows active_set(x) names, at vertices, edge
    points and interior points."""
    rng = random.Random(seed)
    n = 3
    f = box_indicator(n, Q(rng.randint(1, 4)))
    r = f.domain.b[0]

    def inside():
        return Q(rng.randint(-9, 9), 10) * r

    corner = [rng.choice((r, -r)) for _ in range(n)]
    edge = list(corner)
    edge[rng.randrange(n)] = inside()
    interior = [inside() for _ in range(n)]
    points = [tuple(corner), tuple(edge), tuple(interior)]
    g = rand_polyfun(rng, n)
    vertices = feasible_points_of(g, rng)
    points_g = vertices + [tuple((a + b) / 2 for a, b in zip(u, w)) for u in vertices for w in vertices]
    for h, xs in ((f, points), (g, points_g)):
        for x in xs:
            active = h.domain.active_set(x)
            assert subdifferential(h, x).rays == tuple(h.domain.A[i] for i in active)
    assert [len(f.domain.active_set(x)) for x in points] == [n, n - 1, 0]


# ---------------------------------------------------------------------------
# integer row scans against Fraction references
# ---------------------------------------------------------------------------


def _big_rational(rng):
    """A rational whose denominator is drawn up to 2**64."""
    return Q(rng.randrange(-(1 << 66), 1 << 66), rng.randrange(1, (1 << 64) + 1))


def _scan_functions(rng, dim):
    """A seeded function of each kind: ``rand_polyfun``'s, one without
    pieces on its domain, one on a ``rand_hpoly`` domain, and one whose
    pieces and rows have denominators near 2**64."""
    f = rand_polyfun(rng, dim)
    pieces = f.pieces or ((rand_vec(rng, dim), Q(rng.randint(-4, 4))),)
    wide = PolyhedralFunction(
        tuple((tuple(c + Q(1, (1 << 64) + 1) for c in cj), d - Q(1, (1 << 64) - 1)) for cj, d in pieces),
        HPolyhedron(f.domain.A, tuple(b + Q(1, 1 << 64) for b in f.domain.b), dim),
        dim,
    )
    return [
        f,
        PolyhedralFunction((), f.domain, dim),
        PolyhedralFunction(pieces, rand_hpoly(rng, dim, rng.randint(2, 6)), dim),
        wide,
    ]


def _scan_points(rng, f):
    """Domain vertices (active rows), their midpoints, points a 2**-64 step
    off a vertex, far points (several violated rows) and points with
    denominators up to 2**64."""
    dim = f.dim
    vertices = feasible_points_of(f, rng)
    points = list(vertices)
    points += [tuple((a + b) / 2 for a, b in zip(u, w)) for u in vertices for w in vertices]
    for u in vertices:
        step = Q(rng.choice((-1, 1)), (1 << 64) + rng.randrange(3))
        points.append(tuple(a + step * rng.randint(-1, 1) for a in u))
    points += [tuple(Q(rng.randint(-100, 100)) for _ in range(dim)) for _ in range(4)]
    points += [tuple(_big_rational(rng) for _ in range(dim)) for _ in range(4)]
    return points


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("seed", range(3))
def test_integer_scans_match_the_fraction_references(dim, seed):
    """``_active_structure``, ``violation_index`` and ``evaluate`` scan the
    kept integer rows; each answer is the one that ``Fraction`` sums
    (``dot_oracle``) and ``HPolyhedron.active_set`` give, and a point outside
    names its first violated row."""
    rng = random.Random(1000 * dim + seed)
    multi = 0
    for f in _scan_functions(rng, dim):
        A, b, terms = f.domain.A, f.domain.b, f.terms
        for x in _scan_points(rng, f):
            lhs = [dot_oracle(a, x) for a in A]
            violated = [i for i, (l, bi) in enumerate(zip(lhs, b)) if l > bi]
            values = [dot_oracle(c, x) + d for c, d in terms]
            assert f.domain.violation_index(x) == (violated[0] if violated else None)
            if violated:
                multi += len(violated) >= 2
                assert evaluate(f, x) == math.inf
                with pytest.raises(OutsideDomainError) as err:
                    _active_structure(f, x)
                assert err.value.index == violated[0]
                continue
            top = max(values)
            active_pieces = tuple(j for j, val in enumerate(values) if val == top)
            active_cons = f.domain.active_set(x)
            assert active_cons == tuple(i for i, (l, bi) in enumerate(zip(lhs, b)) if l == bi)
            value = evaluate(f, x)
            assert type(value) is Fraction and value == top
            assert _active_structure(f, x) == (
                tuple(terms[j][0] for j in active_pieces),
                tuple(A[i] for i in active_cons),
                active_pieces,
                active_cons,
            )
    assert multi >= 1


def test_integer_scans_check_the_dimension_first():
    f = PolyhedralFunction.build([((1, 2), 0)], [(1, 0)], [-1], 2)
    calls = (
        lambda: _active_structure(f, qv(5)),
        lambda: evaluate(f, qv(5)),
        lambda: f.domain.violation_index(qv(5)),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


def _fresh_function():
    return PolyhedralFunction.build(
        [((1, 0), 0), ((0, 1), 0), (qv("-1/3", "-1/3"), Q(1, 7))],
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
        [1, 1, 1, 1, Q(3, 2)],
        2,
    )


def test_the_kept_integer_form_is_invisible():
    """The integer rows are kept on first use, outside the fields: ``==``,
    ``hash``, ``repr`` and ``dataclasses.fields`` read the same before and
    after the first scan, and a scanned object equals an unscanned one."""
    f, unscanned = _fresh_function(), _fresh_function()
    objects = [(f, unscanned), (f.domain, unscanned.domain)]
    before = [(hash(o), repr(o), dataclasses.fields(o), o == twin) for o, twin in objects]
    _active_structure(f, qv(1, "1/2"))
    assert evaluate(f, qv(0, 0)) == Q(1, 7)
    assert f.domain.violation_index(qv(1, 1)) == 4
    assert "integer_terms" in vars(f) and "integer_rows" in vars(f.domain)
    assert "integer_terms" not in vars(unscanned) and "integer_rows" not in vars(unscanned.domain)
    after = [(hash(o), repr(o), dataclasses.fields(o), o == twin) for o, twin in objects]
    assert after == before
    assert all(eq for *_, eq in after)
    assert {f, unscanned} == {f} and {f.domain, unscanned.domain} == {f.domain}


def test_threads_certifying_on_one_fresh_function_agree():
    """Four threads first touch the kept integer form of one shared function
    together (``cached_property`` takes no lock on Python 3.12 and later),
    and each certifies the same queries as a single thread does."""
    queries = [
        (v, x)
        for x in (qv(1, "1/2"), qv("1/2", 1), qv(0, 0), qv(-1, -1), qv("3/4", "3/4"))
        for v in (qv(1, 0), qv(0, 1), qv("1/2", "1/2"), qv(-1, 0), qv(2, 2))
    ]
    reference = [certify(_fresh_function(), v, x) for v, x in queries]
    shared = _fresh_function()
    start = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        start.wait(timeout=30)
        results[k] = [certify(shared, v, x) for v, x in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [reference] * 4


# ---------------------------------------------------------------------------
# minimize_perturbed
# ---------------------------------------------------------------------------


def test_minimize_tilted_box_indicator():
    res = minimize_perturbed(box_indicator(2), qv(1, 1))
    assert res == Minimizer(qv(1, 1), Q(-2))


def test_one_function_keeps_one_tuple_per_minimizer():
    """Tilts with the same minimizer get the same tuple, and the kept points
    leave the function's ``==``, ``hash`` and ``repr`` as they were."""
    f = box_indicator(3)
    first, again = (minimize_perturbed(f, v).x for v in (qv(1, 2, 3), qv("1/7", 5, 1)))
    other = minimize_perturbed(f, qv(-1, 2, 3)).x
    assert first == again == qv(1, 1, 1) and first is again
    assert other == qv(-1, 1, 1) and other is not first
    assert f == box_indicator(3) and hash(f) == hash(box_indicator(3)) and repr(f) == repr(box_indicator(3))


def _fresh(f):
    """A copy of ``f`` built anew, down to its domain: nothing is cached on it."""
    return PolyhedralFunction(f.pieces, HPolyhedron(f.domain.A, f.domain.b, f.dim), f.dim)


GENERICITY_FUNCTIONS = {
    "abs": abs_function,
    "box3": lambda: box_indicator(3),
    "pyramid": pyramid_indicator,
    "random101": lambda: PolyhedralFunction.indicator(random_polytope(101, 3, 8)),
    # negative right-hand sides, whose rows the kernel negates
    "shifted": lambda: PolyhedralFunction.build(
        [((1, 0), 1), ((-1, 1), Q(1, 2))], [(-1, 0), (1, 0), (0, -1), (0, 1)], [-1, 3, 2, 5], 2
    ),
}


@pytest.mark.parametrize("bits", [8, 64])
def test_a_reused_function_gives_the_records_of_fresh_copies(bits):
    """No state crosses tilts: ``run_genericity`` on one function, whose
    epigraph program is prepared on the first tilt and reused after it, gives
    records repr-identical to trials that each run on a fresh copy.  At 8 bits
    the box's trials include non_unique ones."""
    cfg = SamplerConfig(seed=42, bits=bits)
    non_unique = 0
    for name, build in GENERICITY_FUNCTIONS.items():
        f = build()
        reused = run_genericity(f, cfg, 200)
        fresh = merge_trials([genericity_trial(_fresh(f), cfg, i) for i in range(200)], cfg.seed)
        assert repr(reused) == repr(fresh), name
        non_unique += reused.non_unique
    assert (non_unique > 0) == (bits == 8), non_unique


def test_the_prepared_programs_leave_eq_hash_and_repr_as_they_were():
    """The epigraph (:attr:`PolyhedralFunction._epigraph`) and the split
    programs (:attr:`HPolyhedron._split`) are cached properties, not fields."""
    f = pyramid_indicator()
    before = [(repr(P), hash(P)) for P in (f, f.domain)]
    minimize_perturbed(f, qv(1, 2, 3))
    feasible_point(f.domain)
    assert {"_epigraph"} <= vars(f).keys() and {"_split"} <= vars(f._epigraph).keys() & vars(f.domain).keys()
    assert [(repr(P), hash(P)) for P in (f, f.domain)] == before
    g = pyramid_indicator()
    assert f == g and f.domain == g.domain and f._epigraph == g._epigraph
    assert hash(f._epigraph) == hash(g._epigraph) and repr(f._epigraph) == repr(g._epigraph)


def test_fifty_tilts_prepare_one_program_and_build_one_polyhedron(monkeypatch):
    """Over 50 tilts of one function the epigraph program is prepared once,
    on the first tilt, and no ``HPolyhedron`` is built after it."""
    built = Counter()

    class Counting(simplex._Program):
        def __init__(self, *args):
            built["program"] += 1
            super().__init__(*args)

    post_init = HPolyhedron.__post_init__

    def counting(self):
        built["polyhedron"] += 1
        post_init(self)

    f = pyramid_indicator()
    monkeypatch.setattr(simplex, "_Program", Counting)
    monkeypatch.setattr(HPolyhedron, "__post_init__", counting)
    tilts = [sample_objective(SamplerConfig(seed=9), i, f.dim) for i in range(50)]
    assert isinstance(minimize_perturbed(f, tilts[0]), Minimizer)
    assert built == {"program": 1, "polyhedron": 1}
    assert all(isinstance(minimize_perturbed(f, v), Minimizer) for v in tilts[1:])
    assert built == {"program": 1, "polyhedron": 1}


class _CountingProgram(simplex._Program):
    """A ``_Program`` that counts its builds in ``built``."""

    built = 0

    def __init__(self, *args):
        _CountingProgram.built += 1
        super().__init__(*args)


def test_fifty_queries_and_fifty_tilts_prepare_one_relative_interior_program(monkeypatch):
    """50 ``ri_membership`` queries on one ``GeneratedSet`` prepare one
    program, on the first query; so do 50 ``certify`` tilts at one vertex,
    whose cell :attr:`PolyhedralFunction._cells` keeps."""
    monkeypatch.setattr(simplex, "_Program", _CountingProgram)
    monkeypatch.setattr(geometry, "_Program", _CountingProgram)
    monkeypatch.setattr(_CountingProgram, "built", 0)
    cfg = SamplerConfig(seed=9)
    S = GeneratedSet((qv(0, 0), qv(1, 0)), (qv(0, 1), qv(1, 1)), 2)
    statuses = Counter(type(ri_membership(S, sample_objective(cfg, i, 2))).__name__ for i in range(50))
    assert _CountingProgram.built == 1 and len(statuses) == 2, statuses
    f, apex = pyramid_indicator(), qv(0, 0, 1)
    verdicts = Counter(type(certify(f, sample_objective(cfg, i, 3), apex)).__name__ for i in range(50))
    assert _CountingProgram.built == 2 and len(f._cells) == 1 and len(verdicts) == 2, verdicts


def test_a_reused_function_gives_the_verdicts_and_reports_of_fresh_copies():
    """No state crosses the tilts of one cell: ``certify`` on one function,
    whose cells and their programs are kept, gives verdicts repr-identical to
    those on fresh copies, at every candidate point, on tilts of all three
    kinds; and ``construct_degenerate`` of the reused function gives the fresh
    copy's report, whose points are the same tuples from one call to the
    next."""
    cfg = SamplerConfig(seed=11, bits=8)
    for name, build in GENERICITY_FUNCTIONS.items():
        f = build()
        kinds = Counter()
        for k, x in enumerate(_candidate_points(f)):
            gens = [g for part in _active_structure(f, x)[:2] for g in part]
            total = tuple(map(sum, zip(*gens)))
            drawn = [sample_objective(cfg, 10 * k + i, f.dim) for i in range(3)]
            for v in (*gens, *(tuple(3 * a for a in g) for g in gens), total, tuple(-a for a in total), *drawn):
                got = certify(f, v, x)
                assert repr(got) == repr(certify(_fresh(f), v, x)), (name, x, v)
                kinds[type(got).__name__] += 1
        assert len(kinds) == 3, (name, kinds)
        first, again = construct_degenerate(f), construct_degenerate(f)
        assert repr(first) == repr(again) == repr(construct_degenerate(_fresh(f))), name
        assert all(a is b for (_, a), (_, b) in zip(first.pairs, again.pairs)), name


def test_a_generated_set_keeps_eq_hash_and_repr_after_its_program_is_built():
    """:attr:`GeneratedSet._ri_program` is a cached property, not a field."""
    S, T = (GeneratedSet((qv(0, 0), qv(1, 0)), (qv(0, 1),), 2) for _ in range(2))
    before = (repr(S), hash(S))
    assert isinstance(ri_membership(S, qv("1/2", 1)), Interior)
    assert "_ri_program" in vars(S) and "_ri_program" not in vars(T)
    assert S == T and (repr(S), hash(S)) == before == (repr(T), hash(T))


def test_minimize_tilted_abs():
    res = minimize_perturbed(abs_function(), qv("1/2"))
    assert res == Minimizer(qv(0), Q(0))


def test_minimize_zero_function_is_unbounded():
    f = PolyhedralFunction.build([], [], [], 1)
    res = minimize_perturbed(f, qv(1))
    assert isinstance(res, Unbounded)
    assert dot(qv(1), res.ray) > 0


def test_minimize_improper_function_is_infeasible():
    f = PolyhedralFunction.build([], [(1,), (-1,)], [-1, -1], 1)
    assert isinstance(minimize_perturbed(f, qv(0)), Infeasible)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_box_corner_nondegenerate():
    res = certify(box_indicator(2), qv(1, 1), qv(1, 1))
    assert isinstance(res, Nondegenerate)
    assert res.piece_weights == (Q(1),)
    assert res.constraint_multipliers == qv(1, 1, 0, 0)
    assert all(w > 0 for w in res.witness)


def test_certify_box_edge_direction_degenerate():
    res = certify(box_indicator(2), qv(1, 0), qv(1, 1))
    assert isinstance(res, DegenerateCritical)


def test_certify_abs_at_zero_nondegenerate():
    res = certify(abs_function(), qv(0), qv(0))
    assert isinstance(res, Nondegenerate)
    assert res.piece_weights == qv("1/2", "1/2")
    assert res.constraint_multipliers == ()


def test_certify_abs_boundary_and_outside():
    assert isinstance(certify(abs_function(), qv(1), qv(0)), DegenerateCritical)
    assert isinstance(certify(abs_function(), qv(2), qv(0)), NotCritical)


def test_fieldless_verdicts_are_shared_instances():
    """A verdict with no fields is one shared object, so a caller that keeps
    many of them keeps no bytes per verdict."""
    f, x = box_indicator(2), qv(1, 1)
    first, second = certify(f, qv(1, 0), x), certify(f, qv(0, 1), x)
    assert isinstance(first, DegenerateCritical) and first is second
    assert isinstance(certify(f, qv(-1, 0), x), NotCritical)
    assert certify(f, qv(-1, 0), x) is certify(f, qv(0, -1), x)
    S = GeneratedSet((qv(0, 0),), (qv(1, 0), qv(0, 1)), 2)
    assert ri_membership(S, qv(1, 0)) is ri_membership(S, qv(0, 1))
    assert ri_membership(S, qv(-1, 0)) is ri_membership(S, qv(0, -1))


def test_certify_outside_domain_is_an_error():
    with pytest.raises(OutsideDomainError):
        certify(box_indicator(2), qv(0, 0), qv(2, 0))


def test_certify_multipliers_reconstruct_direction():
    f = box_indicator(2)
    res = certify(f, qv(1, 1), qv(1, 1))
    recon = zeros(2)
    for lam, row in zip(res.constraint_multipliers, f.domain.A):
        recon = tuple(a + lam * b for a, b in zip(recon, row))
    assert recon == qv(1, 1)


def test_certify_multipliers_are_positive_on_a_redundant_active_row():
    """x1 + x2 <= 2 is redundant at the corner (1, 1) of the box, yet active:
    the displayed certificate is strictly complementary, so it weighs that
    row too, and it agrees with strict_complementarity."""
    P = HPolyhedron(box(2).A + (qv(1, 1),), box(2).b + (Q(2),), 2)
    v, x = qv(2, 1), qv(1, 1)
    res = certify(PolyhedralFunction.indicator(P), v, x)
    assert isinstance(res, Nondegenerate)
    assert P.active_set(x) == (0, 1, 4)
    assert all(res.constraint_multipliers[i] > 0 for i in P.active_set(x))
    assert res.constraint_multipliers == qv("3/2", "1/2", 0, 0, "1/2")
    assert res.constraint_multipliers == strict_complementarity(LinearProgram(v, P), x).lam


# ---------------------------------------------------------------------------
# the multiplier read-off
# ---------------------------------------------------------------------------


def _at_origin(points, rays, dim):
    """A function whose subdifferential at 0 is ``conv(points) + cone(rays)``:
    one piece ``<p, x>`` per point and one row ``<r, x> <= 0`` per ray, all
    active at 0.  Returns it with its active structure there."""
    f = PolyhedralFunction.build([(p, 0) for p in points], rays, [0] * len(rays), dim)
    return f, _active_structure(f, zeros(dim))


def _agrees(verdict, status):
    if isinstance(status, Outside):
        return isinstance(verdict, NotCritical)
    if isinstance(status, Boundary):
        return isinstance(verdict, DegenerateCritical)
    # independent generators admit one representation, so the LP's witness
    # is the read-off's
    return isinstance(verdict, Nondegenerate) and verdict.witness == status.witness


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_read_off_matches_ri_membership(seed):
    """Whenever the read-off decides, it agrees with ``ri_membership``, and
    it decides whenever the lifted generators have full column rank."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    points = [rand_vec(rng, dim, span=2, den=2) for _ in range(rng.randint(1, 3))]
    rays = [rand_vec(rng, dim, span=2, den=2) for _ in range(rng.randint(0, 2))]
    f, active = _at_origin(points, rays, dim)
    S = GeneratedSet(active[0], active[1], dim)
    lifted = [(*p, ONE) for p in S.points] + [(*r, ZERO) for r in S.rays]
    independent = rank(lifted) == len(lifted)
    centre = tuple(sum(c) / len(points) + sum(r[d] for r in rays) for d, c in enumerate(zip(*points)))
    queries = [rand_vec(rng, dim), centre, *points, *rays]
    queries += [tuple(a + b for a, b in zip(p, r)) for p in points for r in rays]
    queries += [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in zip(points, points[1:])]
    for w in queries:
        verdict = _read_off(f, w, active)
        assert verdict is not None or not independent
        if verdict is not None:
            assert _agrees(verdict, ri_membership(S, w))


def test_a_ray_query_can_be_interior():
    """With the point 0 in S = {0} + cone{a}, the ray ``a`` is ``1·0 + 1·a``:
    a ray query is solved for, not assumed to lie on the boundary."""
    f, active = _at_origin([qv(0, 0)], [qv(1, 2)], 2)
    verdict = _read_off(f, qv(1, 2), active)
    assert isinstance(verdict, Nondegenerate) and verdict.witness == qv(1, 1)
    assert isinstance(ri_membership(GeneratedSet(*active[:2], 2), qv(1, 2)), Interior)
    assert isinstance(_read_off(f, qv(0, 0), active), DegenerateCritical)
    assert isinstance(_read_off(f, qv(2, 1), active), NotCritical)


def test_dependent_generators_leave_the_verdict_undecided():
    """(1, 0) in conv{(0, 0), (1, 0), (2, 0)} is 1·(1, 0) and also the
    midpoint of the other two, so no sign pattern decides it; (1, 1) has no
    representation at all, which proves it outside."""
    f, active = _at_origin([qv(0, 0), qv(1, 0), qv(2, 0)], [], 2)
    assert _read_off(f, qv(1, 0), active) is None
    assert isinstance(_read_off(f, qv(1, 1), active), NotCritical)


@pytest.mark.parametrize("z", [qv("1/2", 1, 1), qv(1, 2, 1)])
def test_read_off_rebuilds_the_query_before_any_verdict(z):
    """At the corner (1, 1) of the box, the query (1, 1) has the multipliers
    (1, 1, 1): 1 on the zero piece and 1 on each active normal."""
    f = box_indicator(2)
    active = _active_structure(f, qv(1, 1))
    assert isinstance(_read_off(f, qv(1, 1), active, _integer_point(qv(1, 1, 1))), Nondegenerate)
    with pytest.raises(InternalError, match="do not rebuild"):
        _read_off(f, qv(1, 1), active, _integer_point(z))


# ---------------------------------------------------------------------------
# strict_complementarity
# ---------------------------------------------------------------------------


def test_strict_complementarity_box_corner():
    lp = LinearProgram(qv(1, 1), box(2))
    assert strict_complementarity(lp, qv(1, 1)) == Witness(qv(1, 1, 0, 0))


def test_strict_complementarity_fails_on_edge_direction():
    lp = LinearProgram(qv(1, 0), box(2))
    assert strict_complementarity(lp, qv(1, 1)) is None


def test_strict_complementarity_simplex_vertex():
    lp = LinearProgram(qv(2, 1), SIMPLEX_2D)
    assert strict_complementarity(lp, qv(1, 0)) == Witness(qv(0, 1, 2))


def test_strict_complementarity_rejects_infeasible_point():
    lp = LinearProgram(qv(1, 1), box(2))
    with pytest.raises(NotOptimalError, match="violates constraint 0"):
        strict_complementarity(lp, qv(3, 0))


def test_strict_complementarity_rejects_unbounded_program():
    lp = LinearProgram(qv(1), HPolyhedron([], [], 1))
    with pytest.raises(NotOptimalError, match="unbounded"):
        strict_complementarity(lp, qv(0))


def test_strict_complementarity_reports_exact_gap():
    lp = LinearProgram(qv(1, 1), box(2))
    with pytest.raises(NotOptimalError) as info:
        strict_complementarity(lp, qv(0, 0))
    assert info.value.gap == Q(2)


@pytest.mark.parametrize(
    "lp, x_bar, expected",
    [
        (LinearProgram(qv(1, 1), box(2)), qv(1, 1), Witness(qv(1, 1, 0, 0))),
        (LinearProgram(qv(1, 0), box(2)), qv(1, 1), None),
        (LinearProgram(qv(2, 1), SIMPLEX_2D), qv(1, 0), Witness(qv(0, 1, 2))),
    ],
)
def test_strict_complementarity_runs_one_kernel_call_at_an_optimum(monkeypatch, lp, x_bar, expected):
    """certify's LP decides an optimal point alone: no solve_lp before it."""
    calls = []
    kernel = simplex.solve_standard_form

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(simplex, "solve_standard_form", recording)
    monkeypatch.setattr(geometry, "solve_standard_form", recording)
    assert strict_complementarity(lp, x_bar) == expected
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_tilting_preserves_certification(seed):
    """certify(f, v, x) classifies like certify(f - <v,.>, 0, x)."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    v = rand_vec(rng, dim)
    for x in feasible_points_of(f, rng):
        direct = certify(f, v, x)
        tilted_terms = tuple((tuple(a - b for a, b in zip(c, v)), d) for c, d in f.terms)
        tilted = certify(PolyhedralFunction(tilted_terms, f.domain, dim), zeros(dim), x)
        assert type(direct) is type(tilted)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_minimizer_is_always_critical(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    v = rand_vec(rng, dim)
    res = minimize_perturbed(f, v)
    if isinstance(res, Minimizer):
        assert evaluate(f, res.x) - dot(v, res.x) == res.value
        assert not isinstance(certify(f, v, res.x), NotCritical)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_certificate_matches_positive_span_test(seed):
    """Nondegenerate exactly when the shifted subdifferential positively
    spans a linear subspace."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    v = rand_vec(rng, dim)
    for x in feasible_points_of(f, rng):
        res = certify(f, v, x)
        shifted = translate(subdifferential(f, x), v)
        assert isinstance(res, Nondegenerate) == positive_span_is_subspace(shifted)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_strict_complementarity_matches_the_lp_and_the_dual_oracle(seed):
    """At a feasible point that is not optimal: the LP's exact gap, or its
    unboundedness; at an optimal one: a witness iff the oracle finds one."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    P = rand_hpoly(rng, dim, rng.randint(1, 5))
    lp = LinearProgram(rand_vec(rng, dim), P)
    res = solve_lp(lp)
    points = feasible_points_of(PolyhedralFunction.indicator(P), rng)
    if isinstance(res, Optimal):
        points.append(res.x)
    for x_bar in points:
        if isinstance(res, Unbounded):
            with pytest.raises(NotOptimalError, match="unbounded") as info:
                strict_complementarity(lp, x_bar)
            assert info.value.gap is None
        elif res.value != dot(lp.objective, x_bar):
            with pytest.raises(NotOptimalError, match="suboptimal") as info:
                strict_complementarity(lp, x_bar)
            assert info.value.gap == res.value - dot(lp.objective, x_bar)
        else:
            oracle = dual_witness_oracle(P.A, P.b, lp.objective, x_bar)
            assert (strict_complementarity(lp, x_bar) is None) == (oracle is None)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_strict_complementarity_agrees_with_certifier(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    P = f.domain
    v = rand_vec(rng, dim)
    res = solve_lp(LinearProgram(v, P))
    if not isinstance(res, Optimal):
        return
    x_bar = res.x
    sc = strict_complementarity(LinearProgram(v, P), x_bar)
    cert = certify(PolyhedralFunction.indicator(P), v, x_bar)
    assert (sc is not None) == isinstance(cert, Nondegenerate)
    oracle = dual_witness_oracle(P.A, P.b, v, x_bar)
    assert (sc is not None) == (oracle is not None)
    if sc is not None:
        active = set(P.active_set(x_bar))
        assert all(lam > 0 if i in active else lam == 0 for i, lam in enumerate(sc.lam))
        recon = zeros(dim)
        for lam, row in zip(sc.lam, P.A):
            recon = tuple(a + lam * b for a, b in zip(recon, row))
        assert recon == tuple(v)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_univariate_minimization_matches_breakpoint_scan(seed):
    rng = random.Random(seed)
    f = rand_polyfun(rng, 1)
    v = rand_vec(rng, 1)
    pieces = [(c[0], d) for c, d in f.pieces]
    cons = [(row[0], b) for row, b in zip(f.domain.A, f.domain.b)]
    expected = minimize_1d(pieces, cons, v[0])
    res = minimize_perturbed(f, v)
    if expected[0] == "unbounded":
        assert isinstance(res, Unbounded)
    elif expected[0] == "infeasible":
        assert isinstance(res, Infeasible)
    else:
        assert isinstance(res, Minimizer)
        assert res.value == expected[2]
        assert evaluate(f, res.x) - dot(v, res.x) == res.value


def test_canonical_minimizer_keeps_an_unbounded_coordinate_from_the_last_optimal_step():
    """The argmin of max(x_1, -x_1) on x_2 >= -5 is the half-line x_1 = 0,
    x_2 >= -5: maximizing x_1 is Optimal, maximizing x_2 is Unbounded, so
    x_2 is kept from the point of the first refinement, as documented."""
    f = PolyhedralFunction.build([((1, 0), 0), ((-1, 0), 0)], [[0, -1]], [5], 2)
    assert canonical_minimizer(f, qv(0, 0)) == Minimizer(qv(0, -5), ZERO)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_canonical_minimizer_is_lex_greatest_and_order_independent(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    # bound the domain so the argmin set is a polytope and the lexicographic
    # refinement pins a unique representative
    rows = list(f.domain.A) + [
        tuple(Q(s) if j == i else Q(0) for j in range(dim))
        for i in range(dim)
        for s in (1, -1)
    ]
    rhs = list(f.domain.b) + [Q(10)] * (2 * dim)
    bounded = PolyhedralFunction(f.pieces, HPolyhedron(rows, rhs, dim), dim)
    v = rand_vec(rng, dim)
    base = minimize_perturbed(bounded, v)
    assert isinstance(base, Minimizer)
    canon = canonical_minimizer(bounded, v)
    assert isinstance(canon, Minimizer)
    assert canon.value == base.value
    assert evaluate(bounded, canon.x) - dot(v, canon.x) == canon.value
    assert tuple(canon.x) >= tuple(base.x)

    # shuffling pieces and constraints must not change the canonical choice
    piece_order = list(range(len(bounded.pieces)))
    row_order = list(range(len(rows)))
    rng.shuffle(piece_order)
    rng.shuffle(row_order)
    shuffled = PolyhedralFunction(
        tuple(bounded.pieces[j] for j in piece_order),
        HPolyhedron([rows[i] for i in row_order], [rhs[i] for i in row_order], dim),
        dim,
    )
    again = canonical_minimizer(shuffled, v)
    assert again == canon


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_nondegenerate_multipliers_form_dual_certificate(seed):
    """Scattered certificate coefficients reproduce v from the active pieces
    and constraint normals with convex piece weights."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = rand_polyfun(rng, dim)
    v = rand_vec(rng, dim)
    for x in feasible_points_of(f, rng):
        res = certify(f, v, x)
        if not isinstance(res, Nondegenerate):
            continue
        assert sum(res.piece_weights) == Q(1)
        assert all(w >= 0 for w in res.piece_weights)
        assert all(lam >= 0 for lam in res.constraint_multipliers)
        gradients = [c for c, _ in f.pieces] if f.pieces else [zeros(dim)]
        recon = zeros(dim)
        for w, g in zip(res.piece_weights, gradients):
            recon = tuple(a + w * b for a, b in zip(recon, g))
        for lam, row in zip(res.constraint_multipliers, f.domain.A):
            recon = tuple(a + lam * b for a, b in zip(recon, row))
        assert recon == tuple(v)
