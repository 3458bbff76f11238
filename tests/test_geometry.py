"""Generated sets, normal cones (as subdifferentials of indicators),
relative-interior membership, exposed faces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qv, rand_genset, rand_vec, vadd, vscale
from nondegen import (
    Boundary,
    GeneratedSet,
    Interior,
    Outside,
    PolyhedralFunction,
    VPolytope,
    subdifferential,
)
from nondegen.errors import (
    DimensionMismatchError,
    EmptyGeneratedSetError,
    OutsideDomainError,
)
from nondegen.gallery import box, square_vertices
from nondegen.geometry import (
    exposed_face,
    member,
    positive_span_is_subspace,
    prune,
    ri_membership,
    translate,
)
from nondegen.linalg import Q, vsub, zeros
from oracles import ri_status_oracle

QUADRANT = GeneratedSet((qv(0, 0),), (qv(1, 0), qv(0, 1)), 2)
SEGMENT = GeneratedSet((qv(0, 0), qv(2, 0)), (), 2)


def test_normal_cone_at_vertex():
    S = subdifferential(PolyhedralFunction.indicator(box(2)), qv(1, 1))
    assert S.points == (qv(0, 0),)
    assert set(S.rays) == {qv(1, 0), qv(0, 1)}


def test_normal_cone_at_interior_point_is_origin():
    S = subdifferential(PolyhedralFunction.indicator(box(2)), qv(0, 0))
    assert S.points == (qv(0, 0),)
    assert S.rays == ()


def test_normal_cone_on_facet():
    S = subdifferential(PolyhedralFunction.indicator(box(2)), qv(1, 0))
    assert S.rays == (qv(1, 0),)


def test_normal_cone_outside_reports_violated_index():
    with pytest.raises(OutsideDomainError) as err:
        subdifferential(PolyhedralFunction.indicator(box(2)), qv(2, 0))
    assert "constraint 0" in str(err.value)


def test_member_examples():
    assert member(QUADRANT, qv(2, 3))
    assert not member(QUADRANT, qv(-1, 0))
    assert member(SEGMENT, qv(1, 0))


def test_member_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        member(QUADRANT, qv(1,))


def test_ri_membership_quadrant():
    status = ri_membership(QUADRANT, qv(1, 1))
    assert isinstance(status, Interior)
    assert status.ray_coeffs == qv(1, 1)
    assert status.point_coeffs == qv(1)
    assert isinstance(ri_membership(QUADRANT, qv(1, 0)), Boundary)
    assert isinstance(ri_membership(QUADRANT, qv(-1, 0)), Outside)


def test_ri_membership_segment():
    assert isinstance(ri_membership(SEGMENT, qv(0, 0)), Boundary)
    assert isinstance(ri_membership(SEGMENT, qv(1, 0)), Interior)
    assert isinstance(ri_membership(SEGMENT, qv(2, 0)), Boundary)


def test_ri_membership_empty_set_is_an_error():
    with pytest.raises(EmptyGeneratedSetError):
        ri_membership(GeneratedSet((), (qv(1, 0),), 2), qv(0, 0))


def test_positive_span_examples():
    axis = GeneratedSet((qv(0, 0),), (qv(1, 0), qv(-1, 0)), 2)
    assert positive_span_is_subspace(axis)
    assert not positive_span_is_subspace(QUADRANT)
    origin = GeneratedSet((qv(0, 0),), (), 2)
    assert positive_span_is_subspace(origin)


def test_prune_drops_redundant_generators():
    S = GeneratedSet(
        (qv(0, 0), qv(2, 0), qv(1, 0)),
        (qv(1, 0), qv(2, 0)),
        2,
    )
    pruned, point_idx, ray_idx = prune(S)
    assert pruned.points == (qv(0, 0),)
    assert pruned.rays == (qv(2, 0),)
    assert point_idx == (0,)
    assert ray_idx == (1,)


def test_prune_keeps_opposite_rays():
    """Lineality: opposite rays are not redundant for each other."""
    S = GeneratedSet((qv(0, 0),), (qv(1, 0), qv(-1, 0)), 2)
    pruned, _, ray_idx = prune(S)
    assert set(pruned.rays) == {qv(1, 0), qv(-1, 0)}
    assert ray_idx == (0, 1)


def test_prune_drops_zero_rays_and_keeps_the_last_ray():
    """The last ray is tested against the empty cone {0}, a kernel program
    with no columns, and kept."""
    S = GeneratedSet((qv(0, 0),), (qv(0, 0), qv(0, 0), qv(1, 0)), 2)
    pruned, point_idx, ray_idx = prune(S)
    assert pruned.rays == (qv(1, 0),)
    assert (point_idx, ray_idx) == ((0,), (2,))


def test_exposed_face_square():
    F = square_vertices()
    corner = exposed_face(F, qv(1, 1))
    assert [F.vertices[i] for i in corner] == [qv(1, 1)]
    edge = exposed_face(F, qv(1, 0))
    assert {F.vertices[i] for i in edge} == {qv(1, 1), qv(1, -1)}
    assert exposed_face(F, qv(0, 0)) == tuple(range(len(F.vertices)))


@given(st.integers(0, 5000))
def test_exposed_face_invariances(seed):
    """Positive scaling of c changes nothing; appending a duplicate vertex
    only extends the index set accordingly."""
    rng = random.Random(seed)
    F = VPolytope(tuple(rand_vec(rng, 2) for _ in range(rng.randint(1, 5))))
    c = rand_vec(rng, 2)
    face = exposed_face(F, c)
    assert exposed_face(F, vscale(Q(rng.randint(1, 7)), c)) == face
    dup = F.vertices[rng.randrange(len(F.vertices))]
    F2 = VPolytope(F.vertices + (dup,))
    face2 = exposed_face(F2, c)
    assert set(face2) & set(range(len(F.vertices))) == set(face)
    extra = len(F.vertices) in face2
    assert extra == (dup in {F.vertices[i] for i in face})


def check_trichotomy(S, y):
    """ri_membership agrees with member, and an Interior witness is strictly
    positive on every generator of ``S`` and rebuilds ``y`` from them."""
    status = ri_membership(S, y)
    inside = member(S, y)
    if isinstance(status, Interior):
        assert inside
        assert len(status.point_coeffs) == len(S.points)
        assert len(status.ray_coeffs) == len(S.rays)
        assert all(c > 0 for c in status.witness)
        recon = zeros(S.dim)
        for coeff, p in zip(status.point_coeffs, S.points):
            recon = vadd(recon, vscale(coeff, p))
        for coeff, r in zip(status.ray_coeffs, S.rays):
            recon = vadd(recon, vscale(coeff, r))
        assert recon == y
        assert sum(status.point_coeffs) == 1
    elif isinstance(status, Boundary):
        assert inside
    else:
        assert not inside
    return status


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=80)
def test_trichotomy_partitions_and_witness_reconstructs(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    S = rand_genset(rng, dim)
    # mix of likely-members and likely-outsiders
    if rng.random() < 0.6 and S.points:
        y = list(S.points[rng.randrange(len(S.points))])
        if S.rays and rng.random() < 0.5:
            y = vadd(tuple(y), vscale(Q(rng.randint(0, 3)), S.rays[0]))
    else:
        y = rand_vec(rng, dim)
    check_trichotomy(S, tuple(y))


def test_trichotomy_witness_weighs_redundant_generators():
    """The redundant set of test_prune_drops_redundant_generators: every
    strictly positive combination of all generators is relatively interior,
    so the witness weighs the redundant generators too."""
    S = GeneratedSet(
        (qv(0, 0), qv(2, 0), qv(1, 0)),
        (qv(1, 0), qv(2, 0)),
        2,
    )
    assert isinstance(check_trichotomy(S, qv(3, 0)), Interior)
    assert isinstance(check_trichotomy(S, qv(0, 0)), Boundary)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_ri_membership_matches_fm_oracle(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    S = rand_genset(rng, dim)
    if rng.random() < 0.5 and S.points:
        y = S.points[rng.randrange(len(S.points))]
    else:
        y = rand_vec(rng, dim)
    status = ri_membership(S, y)
    want = ri_status_oracle(S.points, S.rays, dim, y)
    got = {Interior: "interior", Boundary: "boundary", Outside: "outside"}[type(status)]
    assert got == want


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=50)
def test_cone_characterizations_agree(seed):
    """For cones: 0 in the relative interior iff the positive span is a
    subspace (the two nondegeneracy tests coincide)."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    rays = tuple(
        r for r in (rand_vec(rng, dim) for _ in range(rng.randint(0, 4)))
        if any(c != 0 for c in r)
    )
    S = GeneratedSet((zeros(dim),), rays, dim)
    lhs = isinstance(ri_membership(S, zeros(dim)), Interior)
    assert lhs == positive_span_is_subspace(S)


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=40)
def test_translate_shifts_status(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    S = rand_genset(rng, dim)
    y = rand_vec(rng, dim)
    v = rand_vec(rng, dim)
    assert type(ri_membership(S, y)) is type(ri_membership(translate(S, v), vsub(y, v)))


def test_normal_cone_generators_are_valid_normals():
    P = box(2)
    x = qv(1, 1)
    S = subdifferential(PolyhedralFunction.indicator(P), x)
    for a in S.rays:
        for corner in (qv(-1, -1), qv(1, -1), qv(-1, 1), qv(1, 1)):
            assert sum(ai * (ci - xi) for ai, ci, xi in zip(a, corner, x)) <= 0
