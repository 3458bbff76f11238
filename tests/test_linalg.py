"""Exact rational substrate: parsing, canonical form, linear solving, rank."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qv, vadd, vscale
from nondegen import (
    Inconsistent,
    Q,
    Underdetermined,
    UniqueSolution,
    format_rational,
    parse_rational,
    rank,
    solve_linear,
)
from nondegen.errors import DimensionMismatchError, RationalParseError
from nondegen.linalg import dot, vsub
from oracles import dot_oracle, rref, solve_linear_oracle

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
).map(Q)


def test_parse_plain_and_fraction():
    assert parse_rational("5") == 5
    assert parse_rational("-3/7") == Q(-3, 7)
    assert parse_rational("0") == 0
    assert parse_rational("12/4") == 3


@pytest.mark.parametrize("bad", ["", "1/0", "abc", "--1", "1/", "/3", "1.5", " 2", "2 "])
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_tokens_up_to_64_characters_are_quoted_whole():
    token = "7/" + "0" * 62
    with pytest.raises(RationalParseError) as info:
        parse_rational(token)
    assert str(info.value) == f"bad rational token '{token}': denominator is zero"
    with pytest.raises(RationalParseError) as info:
        parse_rational(token + "0")
    assert str(info.value) == (
        "bad rational token '7/000000000000000000000000000000'... "
        "(65 characters, 64 digits): denominator is zero"
    )
    assert info.value.token == token + "0"


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(rationals, rationals)
def test_arithmetic_stays_canonical(p, r):
    """Products keep coprime numerator/denominator and positive denominator."""
    prod = p * r
    assert prod.denominator > 0
    assert math.gcd(int(abs(prod.numerator)), int(prod.denominator)) == 1


def test_format_uses_slash_form():
    assert format_rational(Q(-3, 7)) == "-3/7"
    assert format_rational(Q(4)) == "4"
    assert format_rational(Q(8, 2)) == "4"


def test_solve_identity_system():
    out = solve_linear([[1, 0], [0, 1]], [3, -2])
    assert isinstance(out, UniqueSolution)
    assert out.x == qv(3, -2)


def test_solve_one_equation_two_unknowns():
    out = solve_linear([[1, 1]], [1])
    assert isinstance(out, Underdetermined)
    assert out.x == qv(1, 0)
    assert out.nullspace == (qv(1, -1),)


def test_solve_contradictory_rows():
    assert isinstance(solve_linear([[1], [1]], [0, 1]), Inconsistent)


def test_solve_empty_matrix_needs_ncols():
    out = solve_linear([], [], ncols=2)
    assert isinstance(out, Underdetermined)
    assert out.x == qv(0, 0)
    with pytest.raises(DimensionMismatchError):
        solve_linear([], [])


def test_solve_rhs_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_linear([[1, 2]], [1, 2])


def test_rank_examples():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0]]) == 0
    assert rank([]) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_linear([[1, 0], [0, 1, 7]], [1, 2]),
        lambda: solve_linear([[1], [1, 5]], [1, 2]),
        lambda: solve_linear([[1, 2], [1]], [1, 1]),
        lambda: rank([[1], [0, 1]]),
        lambda: rank([[1, 0], [0, 1, 1]]),
        lambda: rank([[1, 2], [1]]),
        lambda: rank([[Q(1, 2)], [Q(1), Q(3)]]),
    ],
    ids=["solve-longer", "solve-short-first", "solve-shorter", "rank-short-first", "rank-longer",
         "rank-shorter", "rank-rational"],
)
def test_ragged_rows_raise_dimension_mismatch(call):
    """Every row must have the first row's width, as ``mat`` requires;
    otherwise a wrong answer or an ``IndexError`` could come back."""
    with pytest.raises(DimensionMismatchError, match="matrix row 1"):
        call()


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def transpose(A):
    return tuple(zip(*A))


small_mats = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6).map(Q), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


@given(small_mats)
def test_rank_of_transpose(A):
    assert rank(A) == rank(transpose([tuple(r) for r in A]))


@given(small_mats, st.data())
@settings(deadline=None)
def test_solve_residual_is_exactly_zero(A, data):
    n = len(A[0])
    b = [
        data.draw(st.integers(-6, 6).map(Q), label=f"b{i}") for i in range(len(A))
    ]
    out = solve_linear(A, b)
    if isinstance(out, Inconsistent):
        return
    assert mat_vec([tuple(r) for r in A], out.x) == tuple(b)
    if isinstance(out, Underdetermined):
        assert out.nullspace
        for v in out.nullspace:
            assert all(c == 0 for c in mat_vec([tuple(r) for r in A], v))
            lead = next(c for c in v if c != 0)
            assert lead > 0


@given(
    st.lists(st.integers(-9, 9).map(Q), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9).map(Q), min_size=3, max_size=3),
    rationals,
)
def test_vector_helpers_agree_with_fractions(u, v, s):
    assert dot(tuple(u), tuple(v)) == sum(a * b for a, b in zip(u, v))
    assert list(vadd(tuple(u), tuple(v))) == [a + b for a, b in zip(u, v)]
    assert list(vsub(tuple(u), tuple(v))) == [a - b for a, b in zip(u, v)]
    assert list(vscale(s, tuple(u))) == [s * a for a in u]


def _dot_entry(rng):
    """Zero, a plain int, a small Fraction, or one whose denominator is an
    odd number above 2**64 (its numerator a power of two, so it stays)."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.choice((-1, 1)) << rng.randrange(8), (1 << 64) + 2 * rng.getrandbits(60) + 1)


def test_dot_matches_the_fraction_sum_oracle():
    rng = random.Random(2010)
    for case in range(300):
        n = case % 7  # every seventh case is a pair of empty vectors
        u = tuple(_dot_entry(rng) for _ in range(n))
        v = tuple(_dot_entry(rng) for _ in range(n))
        got = dot(u, v)
        assert type(got) is Fraction
        assert got == dot_oracle(u, v), (u, v)
    with pytest.raises(DimensionMismatchError):
        dot((Q(1), Q(2)), (Q(1),))


# ---------------------------------------------------------------------------
# rank and solve_linear against a plain Fraction Gauss-Jordan oracle
# ---------------------------------------------------------------------------


def _classified(out):
    if isinstance(out, Inconsistent):
        return ("inconsistent",)
    if isinstance(out, UniqueSolution):
        return ("unique", list(out.x))
    return ("underdetermined", list(out.x), [list(v) for v in out.nullspace])


def _agrees_with_oracle(A, b, ncols):
    expected = solve_linear_oracle(A, b, ncols)
    assert _classified(solve_linear(A, b, ncols=ncols)) == expected
    assert rank(A) == len(rref(A, ncols)[1])
    return expected[0]


BIG = 2**64 + 13

ORACLE_CASES = [
    ("unique", [[2, 1], [1, 3]], [1, 2], 2),
    ("underdetermined", [[1, 2, 3], [2, 4, 7]], [1, 1], 3),
    ("underdetermined", [[0, 1, -1, 2]], [5], 4),
    ("inconsistent", [[1, 1], [2, 2]], [1, 3], 2),
    ("underdetermined", [[0, 0, 0], [1, 0, 1]], [0, 2], 3),
    ("inconsistent", [[0, 0]], [1], 2),
    ("underdetermined", [], [], 3),
    ("unique", [[Q(1, BIG), Q(BIG, 3)], [Q(-7, BIG + 2), Q(1, 2)]], [Q(5, BIG), 1], 2),
]


@pytest.mark.parametrize("kind,A,b,ncols", ORACLE_CASES)
def test_elimination_matches_oracle_on_named_cases(kind, A, b, ncols):
    A = [[Q(a) for a in row] for row in A]
    assert _agrees_with_oracle(A, [Q(v) for v in b], ncols) == kind


oracle_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(2**64, 2**80)),
).map(Q)


@given(st.integers(0, 5), st.integers(1, 5), st.data())
@settings(deadline=None, max_examples=150)
def test_elimination_matches_oracle_on_random_systems(nrows, ncols, data):
    A = data.draw(
        st.lists(
            st.lists(oracle_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        ),
        label="A",
    )
    if nrows > 1 and data.draw(st.booleans(), label="dependent row"):
        # a combination of two rows makes rank deficiency common
        s, t = data.draw(oracle_entries, label="s"), data.draw(oracle_entries, label="t")
        A[-1] = [s * a + t * c for a, c in zip(A[0], A[1 % (nrows - 1)])]
    b = data.draw(st.lists(oracle_entries, min_size=nrows, max_size=nrows), label="b")
    _agrees_with_oracle(A, b, ncols)
