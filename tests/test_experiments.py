"""Seeded genericity sampling, adversarial construction, and the exposed-face
(Larman) experiment: determinism, classification tallies, CSV reports."""

import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import feasible_points_of, qv, rand_polyfun
from nondegen.errors import (
    DegeneratePolytopeError,
    EnumerationBoundError,
    InfeasibleDomainError,
    InternalError,
)
from nondegen import experiments, functions
from nondegen.experiments import (
    SamplerConfig,
    SplitMix64,
    construct_degenerate,
    genericity_trial,
    larman_to_csv,
    merge_trials,
    report_to_csv,
    run_genericity,
    run_larman,
    sample_objective,
    _optimal_face_is_point,
)
from nondegen.functions import (
    DegenerateCritical,
    Minimizer,
    Nondegenerate,
    PolyhedralFunction,
    certify,
    minimize_perturbed,
    subdifferential,
)
from nondegen.gallery import (
    abs_function,
    box_indicator,
    edge_direction,
    point_indicator,
    pyramid_indicator,
    random_polytope,
    random_vpolytope,
    simplex_indicator,
    square_vertices,
)
from nondegen.geometry import VPolytope
from nondegen.linalg import ONE, Q, ZERO
from nondegen.proximal import LowerC2Instance, find_critical_points, prox
from nondegen.simplex import HPolyhedron
from oracles import (
    candidate_points_oracle,
    construct_degenerate_loop_oracle,
    ri_status_oracle,
    rref,
    sample_vector_oracle,
    splitmix_oracle,
)

CFG42 = SamplerConfig(seed=42)


# ---------------------------------------------------------------------------
# PRNG and sampler
# ---------------------------------------------------------------------------


def test_splitmix_reference_sequence():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


@given(st.integers(0, (1 << 64) - 1))
@settings(deadline=None, max_examples=40)
def test_splitmix_matches_oracle(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(5)] == splitmix_oracle(seed, 5)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1 << 64)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, bits=7)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, bits=65)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, box_radius=Q(0))


@pytest.mark.parametrize(
    "kwargs,field",
    [({"seed": 0, "bits": 8.5}, "bits"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed")],
)
def test_sampler_config_refuses_a_seed_or_bits_that_is_not_an_int(kwargs, field):
    """A float would fail later in ``sample_objective`` and a bool would
    sample as 0 or 1; both are refused up front, naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        SamplerConfig(**kwargs)


@pytest.mark.parametrize("radius", [True, "1", float("inf"), 0.1])
def test_sampler_config_refuses_a_radius_that_is_not_exact(radius):
    """``True`` would sample with radius 1, a float is not exact (0.1 is the
    double nearest to it, inf overflows at the first sample) and a string
    fails at the comparison with 0; each is refused, naming the field."""
    with pytest.raises(ValueError, match="^box_radius must be an int or a Fraction"):
        SamplerConfig(seed=1, box_radius=radius)


@pytest.mark.parametrize("trials", [True, 2.0])
@pytest.mark.parametrize("run", ["genericity", "larman"])
def test_trial_counts_that_are_not_ints_are_refused(run, trials):
    """``True`` would run one trial (and larman would report ``trials=True``)
    and ``2.0`` fails in ``range``; both are refused, naming the field."""
    with pytest.raises(ValueError, match="^trials must be an int"):
        if run == "genericity":
            run_genericity(box_indicator(2), SamplerConfig(seed=1), trials)
        else:
            run_larman(square_vertices(), SamplerConfig(seed=1), trials)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_polytope_needs_more_normals_than_dimensions(n):
    """Fewer than ``n + 1`` normals never positively span R^n, so they are
    refused before any sampling; ``n + 1`` normals can bound a polytope."""
    for m in range(n + 1):
        with pytest.raises(ValueError, match="cannot positively span"):
            random_polytope(1, n, m)
    assert random_polytope(1, n, n + 1).m == n + 1


def test_sample_objective_is_deterministic():
    a = sample_objective(CFG42, 17, 3)
    b = sample_objective(CFG42, 17, 3)
    assert a == b


def test_one_stream_per_trial_gives_the_tilt_the_larman_direction_and_the_vertices():
    """``_draws(cfg, i, dim)`` is trial ``i``'s one stream: its first vector is
    the tilt, its first nonzero one the Larman direction, and the stream of
    trial 0 at 32 bits gives ``random_vpolytope``'s vertices."""
    cfg = SamplerConfig(seed=42, bits=8)
    report = run_larman(VPolytope([(0,), (1,)]), cfg, 300)
    zero_tilts = 0
    for i, rec in enumerate(report.records):
        draws = experiments._draws(cfg, i, 1)
        tilt = next(draws)
        assert sample_objective(cfg, i, 1) == tilt
        zero_tilts += not any(tilt)
        assert rec.c == (tilt if any(tilt) else next(c for c in draws if any(c)))
    assert zero_tilts  # the resampled branch ran
    stream = experiments._draws(SamplerConfig(seed=7, bits=32), 0, 3)
    assert random_vpolytope(7, 3, 10).vertices == tuple(islice(stream, 10))


def test_sample_objective_regression_vectors():
    cfg = SamplerConfig(seed=1)
    v0 = sample_objective(cfg, 0, 2)
    v1 = sample_objective(cfg, 1, 2)
    assert v0 == (
        Fraction(1227844342346046657, 126888190783904374940904303699857244160),
        Fraction(4344233626714057391, 37801901535718294401734170892612665344),
    )
    assert v1 == (
        Fraction(7070836379803831727, 73420684114159374073560767563361681408),
        Fraction(-8735755017383230129, 165187008763533817431677648627103170560),
    )
    assert v0 != v1


@given(
    st.integers(0, (1 << 64) - 1),
    st.integers(0, 1000),
    st.sampled_from([8, 16, 33, 64]),
    st.sampled_from([Q(1), Q(3, 2), Q(7, 3), 2]),  # the last radius is an int
)
@example(seed=5, trial=7, bits=33, radius=2)
@settings(deadline=None, max_examples=40)
def test_sample_objective_matches_oracle(seed, trial, bits, radius):
    cfg = SamplerConfig(seed=seed, bits=bits, box_radius=radius)
    got = sample_objective(cfg, trial, 2)
    assert got == tuple(
        sample_vector_oracle(seed, trial, 2, bits=bits, radius=Fraction(radius))
    )


def test_sample_objective_shape_and_range():
    cfg = SamplerConfig(seed=9, box_radius=Q(5, 4))
    v = sample_objective(cfg, 3, 3)
    assert len(v) == 3
    assert all(-cfg.box_radius <= c <= cfg.box_radius for c in v)


# ---------------------------------------------------------------------------
# genericity runs
# ---------------------------------------------------------------------------


def test_box_run_sees_no_degeneracy():
    report = run_genericity(box_indicator(2), CFG42, 100)
    assert report.trials == 100
    assert report.degenerate == 0
    assert report.non_unique == 0
    assert report.unbounded == 0
    assert report.unique_nondegenerate == 100
    assert report.seed == 42
    assert len(report.records) == 100


def test_low_bit_box_tilts_are_non_unique_exactly_at_a_zero_coordinate():
    """At 8 bits a tilt coordinate is 0 with probability 2^-8, so some box3
    trials tie; the argmax of <v, x> over the box is a point iff no
    coordinate of v is 0, and then it is the vertex sign(v).  The CSV is the
    golden copy, the only one with non_unique rows."""
    report = run_genericity(box_indicator(3), SamplerConfig(seed=42, bits=8), 500)
    for r in report.records:
        if 0 in r.v:
            assert r.outcome == "non_unique", r
        else:
            assert r.outcome == "nondegenerate", r
            assert r.minimizer == tuple(Q(1 if c > 0 else -1) for c in r.v), r
    assert report.non_unique > 0
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    digest = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
    assert digest == golden["box3_bits8_seed42_500"]


@pytest.mark.parametrize(
    "label, build",
    [
        ("box2", lambda: box_indicator(2)),
        ("box5", lambda: box_indicator(5)),
        ("simplex3", lambda: simplex_indicator(3)),
        ("pyramid", pyramid_indicator),
        ("abs", abs_function),
        *((f"random{s}", lambda s=s: PolyhedralFunction.indicator(random_polytope(s, 3, 8))) for s in (101, 202, 303)),
    ],
)
def test_low_bit_genericity_csvs_match_the_golden_digests(label, build):
    """The 8-bit CSVs of the other criterion-1 instances (seed 42, 500
    trials) are byte-identical to the golden copies."""
    report = run_genericity(build(), SamplerConfig(seed=42, bits=8), 500)
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    digest = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
    assert digest == golden[f"{label}_bits8_seed42_500"]


def test_zero_function_is_always_unbounded():
    f = PolyhedralFunction.build([], [], [], 2)
    report = run_genericity(f, CFG42, 20)
    assert report.unbounded == report.trials == 20


def test_point_indicator_is_always_nondegenerate():
    report = run_genericity(point_indicator(2), CFG42, 20)
    assert report.unique_nondegenerate == 20
    assert all(r.minimizer == qv(0, 0) for r in report.records)


def test_category_counts_sum_to_trials():
    for f in (box_indicator(2), abs_function(), point_indicator(2)):
        report = run_genericity(f, SamplerConfig(seed=7), 30)
        total = (
            report.unique_nondegenerate
            + report.degenerate
            + report.non_unique
            + report.unbounded
        )
        assert total == report.trials == 30


def test_records_replay_their_category():
    f = box_indicator(2)
    report = run_genericity(f, CFG42, 50)
    for r in report.records:
        res = minimize_perturbed(f, r.v)
        assert isinstance(res, Minimizer)
        cert = certify(f, r.v, res.x)
        if r.outcome == "nondegenerate":
            assert isinstance(cert, Nondegenerate)
            assert r.minimizer == res.x
            assert r.min_witness_coeff == min(cert.witness)
        elif r.outcome == "degenerate":
            assert isinstance(cert, DegenerateCritical)


def test_reports_are_bit_identical_across_runs_and_schedules():
    f = box_indicator(2)
    sequential = run_genericity(f, CFG42, 40)
    again = run_genericity(f, CFG42, 40)
    assert sequential == again
    assert report_to_csv(sequential) == report_to_csv(again)

    order = list(range(40))
    random.Random(0).shuffle(order)
    with ThreadPoolExecutor(max_workers=4) as pool:
        records = list(pool.map(lambda i: genericity_trial(f, CFG42, i), order))
    assert merge_trials(records, CFG42.seed) == sequential


def test_longer_run_extends_records_as_prefix():
    f = box_indicator(2)
    short = run_genericity(f, CFG42, 25)
    long = run_genericity(f, CFG42, 60)
    assert long.records[:25] == short.records


def test_negative_trial_counts_are_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        run_genericity(box_indicator(2), CFG42, -3)
    with pytest.raises(ValueError, match="nonnegative"):
        run_larman(square_vertices(), CFG42, -3)
    assert run_genericity(box_indicator(2), CFG42, 0).trials == 0


def test_certify_off_nondegenerate_at_a_unique_minimizer_is_internal_error(monkeypatch):
    """A unique minimizer has v interior to the subdifferential, so a
    degenerate verdict there is a bug, never a reported trial."""
    monkeypatch.setattr(experiments, "certify", lambda f, v, x: DegenerateCritical())
    with pytest.raises(InternalError):
        genericity_trial(box_indicator(2), CFG42, 0)


# ---------------------------------------------------------------------------
# uniqueness of the minimizer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, v, x, unique",
    [
        (box_indicator(2), qv(1, 1), qv(1, 1), True),
        (box_indicator(2), qv(1, 0), qv(1, 0), False),
        (box_indicator(2), qv(1, 0), qv(1, 1), False),
        (abs_function(), qv(0), qv(0), True),
        (abs_function(), qv(1), qv(0), False),
    ],
)
def test_optimal_face_is_point_fixed_cases(f, v, x, unique):
    assert _optimal_face_is_point(f, v, x) is unique


def _interior_oracle(f, v, x):
    """0 in int(subdifferential - v): relative interior by Fourier-Motzkin,
    and the generators span R^n."""
    S = subdifferential(f, x)
    points = [[p - c for p, c in zip(pt, v)] for pt in S.points]
    rays = list(S.rays)
    full = len(rref(points + rays, f.dim)[1]) == f.dim
    return full and ri_status_oracle(points, rays, f.dim, [0] * f.dim) == "interior"


def test_optimal_face_is_point_matches_the_oracle():
    """Tilts drawn from the subdifferential at domain points (a point
    generator, the mean of the points plus every ray, a point plus a ray), so
    each domain point is a minimizer and non-unique ones are common."""
    rng = random.Random(2024)
    verdicts = []
    for _ in range(60):
        f = rand_polyfun(rng, rng.randint(1, 3))
        for x in feasible_points_of(f, rng, 2):
            S = subdifferential(f, x)
            inner = [sum(col) / len(S.points) for col in zip(*S.points)]
            for r in S.rays:
                inner = [a + b for a, b in zip(inner, r)]
            tilts = [rng.choice(S.points), tuple(inner)]
            if S.rays:
                p, r = rng.choice(S.points), rng.choice(S.rays)
                tilts.append(tuple(a + b for a, b in zip(p, r)))
            for v in tilts:
                got = _optimal_face_is_point(f, v, x)
                assert got == _interior_oracle(f, v, x), (f, v, x)
                verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_genericity_csv_shape():
    report = run_genericity(box_indicator(2), CFG42, 5)
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "trial_index,v,outcome,minimizer,min_witness_coeff"
    assert len(lines) == 6
    assert "." not in text  # rational tokens only, never decimals
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "nondegenerate"
    assert ";" in first[1]  # vector coordinates joined by ';'


# ---------------------------------------------------------------------------
# adversarial construction
# ---------------------------------------------------------------------------


def test_degenerate_pairs_for_the_box():
    report = construct_degenerate(box_indicator(2))
    assert report.status == "ok"
    assert (qv(1, 0), qv(1, 1)) in report.pairs


def test_degenerate_pair_for_abs():
    report = construct_degenerate(abs_function())
    assert (qv(1), qv(0)) in report.pairs


def test_point_indicator_has_no_degenerate_tilts():
    report = construct_degenerate(point_indicator(2))
    assert report.pairs == ()
    assert report.status == (
        "no candidate point has a subdifferential with nonempty relative boundary"
    )


def test_construct_degenerate_refuses_instances_above_the_enumeration_bound(monkeypatch):
    """box_indicator(11) has 22 constraints, above the default bound of 20:
    refused before any hyperplane subset is solved."""

    def never(f):
        raise AssertionError("enumeration started above the bound")

    monkeypatch.setattr(experiments, "_candidate_points", never)
    monkeypatch.delenv("GENERIC_NONDEGEN_ENUM_BOUND", raising=False)
    with pytest.raises(EnumerationBoundError) as err:
        construct_degenerate(box_indicator(11))
    assert "22" in str(err.value) and "20" in str(err.value)
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", "3")
    with pytest.raises(EnumerationBoundError):
        construct_degenerate(box_indicator(2))


def test_construct_degenerate_refuses_more_plane_subsets_than_two_to_the_bound(monkeypatch):
    """20 pieces in R^3 pass the generator count of 20, but their 190 ties
    give 1 143 326 subsets of at most 3 planes, above 2^20: refused before
    any subset is solved.  7 pieces in R^1 give 21 planes, 22 subsets."""
    monkeypatch.delenv("GENERIC_NONDEGEN_ENUM_BOUND", raising=False)
    tilted = PolyhedralFunction.max_affine([((j, j * j, 1), -j) for j in range(20)], 3)
    with monkeypatch.context() as patched:
        patched.setattr(experiments, "_candidate_points", lambda f: pytest.fail("enumeration started"))
        with pytest.raises(EnumerationBoundError, match="1143326 plane subsets, above 2\\^20") as err:
            construct_degenerate(tilted)
    assert (err.value.count, err.value.bound) == (1143326, 20)
    parabola = PolyhedralFunction.max_affine([((j,), -j * j) for j in range(7)], 1)
    report = construct_degenerate(parabola)
    assert report.pairs
    assert all(isinstance(certify(parabola, v, x), DegenerateCritical) for v, x in report.pairs)


def test_all_constructed_pairs_certify_degenerate():
    for f in (box_indicator(2), abs_function(), box_indicator(3)):
        report = construct_degenerate(f)
        assert report.pairs
        for v, x in report.pairs:
            assert isinstance(certify(f, v, x), DegenerateCritical)
            res = minimize_perturbed(f, v)
            assert isinstance(res, Minimizer)
            unique = _optimal_face_is_point(f, v, res.x)
            assert (not unique) or isinstance(
                certify(f, v, res.x), DegenerateCritical
            )


def test_degenerate_pairs_read_redundant_generators_as_given():
    """box(3) with the redundant row x1 + x2 <= 2 listed first: at (1, 1, 1)
    that row's normal is the first ray and lies on the relative boundary of
    the normal cone, so it is the tilt emitted there."""
    box = box_indicator(3).domain
    P = HPolyhedron(((Q(1), Q(1), Q(0)),) + box.A, (Q(2),) + box.b, 3)
    f = PolyhedralFunction.indicator(P)
    report = construct_degenerate(f)
    assert len(report.pairs) == 26
    assert all(isinstance(certify(f, v, x), DegenerateCritical) for v, x in report.pairs)
    assert (qv(1, 1, 0), qv(1, 1, 1)) in report.pairs


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=30)
def test_constructed_pairs_on_random_instances(seed):
    rng = random.Random(seed)
    f = rand_polyfun(rng, rng.randint(1, 2))
    report = construct_degenerate(f)
    for v, x in report.pairs:
        assert isinstance(certify(f, v, x), DegenerateCritical)


def _seeded_functions(count, keep):
    """The first ``count`` seeded random functions that ``keep`` accepts."""
    rng = random.Random(7042)
    out = []
    while len(out) < count:
        f = rand_polyfun(rng, rng.randint(1, 3))
        if keep(f):
            out.append(f)
    return out


def _criterion_2_set():
    return [
        box_indicator(2),
        box_indicator(3),
        box_indicator(5),
        simplex_indicator(3),
        pyramid_indicator(),
        abs_function(),
        point_indicator(2),
    ] + [PolyhedralFunction.indicator(random_polytope(s, 3, 8)) for s in (101, 202, 303)]


def _random_polytopes():
    return [PolyhedralFunction.indicator(random_polytope(s, 3, 8)) for s in range(100, 130)]


def test_construct_degenerate_matches_the_per_generator_certify_loop():
    """One ∂f(x) per candidate point, read off the multipliers or by
    certify's LP, emits exactly the report of one certify call per
    generator, on the criterion-2 set, on 30 more random polytopes and on
    seeded functions."""
    pieced = _seeded_functions(12, lambda f: f.pieces)
    # at most 10 generators: pieces (the zero piece included) plus constraints
    small = _seeded_functions(30, lambda f: len(f.terms) + f.domain.m <= 10)
    for f in _criterion_2_set() + _random_polytopes() + pieced + small:
        assert repr(construct_degenerate(f)) == repr(construct_degenerate_loop_oracle(f))
    assert construct_degenerate(point_indicator(2)).pairs == ()


def _enumeration_instances():
    """The criterion-2 set, 30 more random polytopes, and in each of dims 1
    to 5 four seeded functions with pieces (so with tie planes) and four
    without."""
    seeded = []
    for dim in range(1, 6):
        rng = random.Random(7100 + dim)
        pieced, plain = [], []
        while len(pieced) < 4 or len(plain) < 4:
            f = rand_polyfun(rng, dim)
            bucket = pieced if f.pieces else plain
            if len(bucket) < 4:
                bucket.append(f)
        seeded += pieced + plain
    return _criterion_2_set() + _random_polytopes() + seeded


def test_candidate_points_match_the_per_subset_fraction_enumeration():
    """The integer enumeration finds exactly the points of one Fraction
    solve and one domain check per subset, as Fractions."""
    for f in _enumeration_instances():
        points = experiments._candidate_points(f)
        assert points == candidate_points_oracle(f)
        assert all(type(c) is Fraction for x in points for c in x)


def test_candidate_points_share_the_exact_zero_and_one():
    coords = [c for x in experiments._candidate_points(box_indicator(2)) for c in x]
    assert {ZERO, ONE} <= set(coords)
    assert all(c is ZERO for c in coords if c == 0) and all(c is ONE for c in coords if c == 1)


_SQUARE = ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])


@pytest.mark.parametrize(
    "f",
    [
        PolyhedralFunction.build([], [(1, 0), *_SQUARE[0]], [1, *_SQUARE[1]], 2),
        PolyhedralFunction.build([((1, 0), 0), ((1, 0), 0), ((0, 1), 0)], *_SQUARE, 2),
        PolyhedralFunction.build([((1, 0), 0), ((1, 0), 1), ((0, 1), 0)], *_SQUARE, 2),
        PolyhedralFunction.build([], [(1, 0), *_SQUARE[0]], [2, *_SQUARE[1]], 2),
        box_indicator(6),
    ],
    ids=["repeated-row", "zero-tie", "inconsistent-tie", "parallel-rows", "box6"],
)
def test_candidate_points_survive_redundant_and_inconsistent_planes(f):
    """Planes that end an enumeration branch lose no point: a repeated
    domain row and the zero tie of two identical pieces (redundant), the
    tie of two pieces that differ only in their offset and two parallel rows
    with different right-hand sides (inconsistent), and box6's opposite
    facets, which make every subset that holds both inconsistent."""
    assert experiments._candidate_points(f) == candidate_points_oracle(f)


def test_adversarial_reports_match_the_golden_digest():
    """The reports on the enumeration instances are byte-identical to those
    of the per-subset Fraction enumeration, pinned by the SHA-256 of their
    repr in ``golden_csv_sha256.json``."""
    reports = [construct_degenerate(f) for f in _enumeration_instances()]
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == golden["adversarial_repr"]


def test_a_ray_can_be_interior_to_the_subdifferential():
    """∂f(0) of the indicator of x <= 0 is {0} + cone{1}: the ray 1 is
    1·0 + 1·1, interior, so the pair is the point 0, tried after it."""
    f = PolyhedralFunction.indicator(HPolyhedron([(1,)], [0], 1))
    assert construct_degenerate(f).pairs == ((qv(0), qv(0)),)


@pytest.mark.parametrize(
    "f",
    [box_indicator(3), simplex_indicator(3), PolyhedralFunction.indicator(random_polytope(101, 3, 8))],
    ids=["box3", "simplex3", "random101"],
)
def test_independent_generators_need_no_membership_lp(monkeypatch, f):
    calls = []

    def recording(f, v, x):
        calls.append(v)
        return certify(f, v, x)

    monkeypatch.setattr(experiments, "certify", recording)
    assert construct_degenerate(f).pairs
    assert calls == []


def _corrupting(kind):
    """``_eliminate`` with every unique solution changed: the first
    multiplier moved by one, or every multiplier doubled.  A multiplier is
    the right-hand side of its pivot row over the last pivot ``d``, and the
    changed rows are new lists, so the rows the read-off checks stay intact."""
    eliminate = functions._eliminate

    def corrupted(M, ncols):
        pivots, d = eliminate(M, ncols)
        if len(pivots) == ncols:
            for i in range(1 if kind == "entry" else ncols):
                *row, r = M[i]
                M[i] = [*row, r + d if kind == "entry" else 2 * r]
        return pivots, d

    return corrupted


@pytest.mark.parametrize("kind", ["entry", "scale"])
def test_corrupted_solves_fail_the_read_off_check(monkeypatch, kind):
    """Every multiplier the read-off solves for rebuilds the generator it is
    asked about before any verdict."""
    monkeypatch.setattr(functions, "_eliminate", _corrupting(kind))
    with pytest.raises(InternalError, match="do not rebuild"):
        construct_degenerate(box_indicator(2))


EMPTY_DOMAINS = [
    ([(1,), (-1,)], [-1, -1]),  # x <= -1 and x >= 1
    ([(1, 1), (-1, 0), (0, -1)], [-1, 0, 0]),  # x + y <= -1 in the first quadrant
]


def _assert_domain_farkas(f, y):
    """y >= 0, y^T A = 0 and y^T b < 0 over the rows of ``f.domain``."""
    A, b = f.domain.A, f.domain.b
    assert len(y) == len(A)
    assert all(c >= 0 for c in y)
    assert all(sum(c * row[k] for c, row in zip(y, A)) == 0 for k in range(f.dim))
    assert sum(c * bi for c, bi in zip(y, b)) < 0


@pytest.mark.parametrize("rows, rhs", EMPTY_DOMAINS)
def test_infeasible_domain_raises_with_a_valid_farkas_vector(rows, rhs):
    dim = len(rows[0])
    f = PolyhedralFunction.build([((1,) * dim, 0)], rows, rhs, dim)
    with pytest.raises(InfeasibleDomainError) as err:
        construct_degenerate(f)
    y = err.value.farkas
    _assert_domain_farkas(f, y)
    with pytest.raises(InfeasibleDomainError) as ref:
        construct_degenerate_loop_oracle(f)
    assert ref.value.farkas == y


_INFEASIBLE_SOURCES = {
    "genericity_trial": lambda f: genericity_trial(f, SamplerConfig(seed=0), 0),
    "construct_degenerate": construct_degenerate,
    "prox": lambda f: prox(f, (Q(0),) * f.dim),
    "find_critical_points": lambda f: find_critical_points(
        LowerC2Instance(f, Q(1, 2)), (Q(0),) * f.dim
    ),
}


@pytest.mark.parametrize("source", sorted(_INFEASIBLE_SOURCES))
@pytest.mark.parametrize("npieces", [0, 1, 3])
@pytest.mark.parametrize("rows, rhs", EMPTY_DOMAINS)
def test_every_infeasible_domain_error_carries_a_domain_farkas_vector(rows, rhs, npieces, source):
    dim = len(rows[0])
    pieces = [((j - 1,) * dim, j) for j in range(npieces)]
    f = PolyhedralFunction.build(pieces, rows, rhs, dim)
    with pytest.raises(InfeasibleDomainError) as err:
        _INFEASIBLE_SOURCES[source](f)
    _assert_domain_farkas(f, err.value.farkas)


# ---------------------------------------------------------------------------
# exposed-face sampling
# ---------------------------------------------------------------------------


def test_square_run_sees_only_singleton_faces():
    report = run_larman(square_vertices(), CFG42, 200)
    assert report.trials == 200
    assert report.multi_vertex_faces == 0
    assert report.singleton_faces == 200
    assert len(report.records) == 200
    assert all(r.distinct_vertices == 1 for r in report.records)


def test_forced_axis_direction_exposes_an_edge():
    F = square_vertices()
    report = run_larman(F, CFG42, 10, forced=[(1, 0)])
    assert report.multi_vertex_faces == 0  # forced trials stay out of tallies
    assert len(report.forced) == 1
    rec = report.forced[0]
    assert rec.label == "F0"
    assert rec.distinct_vertices == 2
    assert {F.vertices[i] for i in rec.face_indices} == {qv(1, 1), qv(1, -1)}


def test_segment_orthogonal_direction_exposes_both_endpoints():
    F = VPolytope([(0, 0), (1, 0)])
    report = run_larman(F, CFG42, 5, forced=[(0, 1)])
    rec = report.forced[0]
    assert rec.distinct_vertices == 2
    assert {F.vertices[i] for i in rec.face_indices} == {qv(0, 0), qv(1, 0)}


def test_degenerate_polytope_is_rejected():
    F = VPolytope([(1, 1), (1, 1)])
    with pytest.raises(DegeneratePolytopeError, match="fewer than 2 distinct vertices"):
        run_larman(F, CFG42, 3)


def test_edge_direction_refuses_a_degenerate_polytope_as_run_larman_does():
    """Fewer than 2 distinct vertices is bad input, not a failed invariant."""
    for F in (VPolytope([(1, 1), (1, 1)]), VPolytope([(0,)])):
        with pytest.raises(DegeneratePolytopeError, match="fewer than 2 distinct vertices"):
            edge_direction(F)


def test_zero_directions_are_resampled_from_the_same_stream():
    # with 8-bit coordinates a zero draw appears after a short search
    cfg = SamplerConfig(seed=42, bits=8)
    F = VPolytope([(0,), (1,)])
    hit = None
    for i in range(5000):
        stream = SplitMix64(42 ^ i)
        if (stream.next_u64() & 255) == 128:  # numerator draw of exactly zero
            hit = i
            break
    assert hit is not None
    report = run_larman(F, cfg, hit + 1)
    rec = report.records[hit]
    assert rec.c != (Q(0),)
    # recompute by hand: skip the zero draw's denominator, take the next pair
    stream = SplitMix64(42 ^ hit)
    stream.next_u64()  # zero numerator
    stream.next_u64()  # its denominator
    num = (stream.next_u64() & 255) - 128
    den = (stream.next_u64() & 255) + 1
    assert rec.c == (Q(num) / (Q(den) * 128),)


def test_larman_csv_shape_and_determinism():
    F = square_vertices()
    a = larman_to_csv(run_larman(F, CFG42, 8, forced=[(1, 0)]))
    b = larman_to_csv(run_larman(F, CFG42, 8, forced=[(1, 0)]))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "trial,c,outcome,distinct_vertices,face_indices"
    assert len(lines) == 10  # header + 8 sampled + 1 forced
    assert lines[-1].startswith("F0,")
    assert ",multi_vertex," in lines[-1]
    assert all(",singleton," in line for line in lines[1:9])
    assert "." not in a
