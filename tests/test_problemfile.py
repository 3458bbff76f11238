"""Problem-file grammar: parsing, serialization round-trips, and line-numbered
errors."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qv, rand_rat, rand_vec
from nondegen.errors import ImproperFunctionError, ProblemParseError
from nondegen.functions import evaluate
from nondegen.linalg import Q, format_rational
from nondegen.problemfile import ProblemFile, parse_problem, serialize

BOX_TEXT = "dim 2\nconstraints 4\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n"
ABS_TEXT = "dim 1\npieces 2\n1 0\n-1 0\n"
ABS_RHO_TEXT = "dim 1\npieces 2\n1 0\n-1 0\nrho 1\n"


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_box_indicator():
    pf = parse_problem(BOX_TEXT)
    assert pf.dim == 2
    assert pf.pieces is None
    assert pf.constraints == (
        (qv(1, 0), Q(1)),
        (qv(-1, 0), Q(1)),
        (qv(0, 1), Q(1)),
        (qv(0, -1), Q(1)),
    )
    f = pf.function()
    assert f.pieces == ()
    assert evaluate(f, qv(0, 0)) == Q(0)
    assert evaluate(f, qv(2, 0)) == math.inf


def test_parse_max_affine():
    pf = parse_problem(ABS_TEXT)
    assert pf.dim == 1
    assert pf.constraints is None
    f = pf.function()
    assert f.pieces == ((qv(1), Q(0)), (qv(-1), Q(0)))
    assert f.domain.m == 0
    assert evaluate(f, qv(-3)) == Q(3)


def test_parse_lower_c2_instance():
    pf = parse_problem(ABS_RHO_TEXT)
    assert pf.rho == Q(1)
    inst = pf.instance()
    assert inst.rho == Q(1)
    assert inst.g.pieces == ((qv(1), Q(0)), (qv(-1), Q(0)))


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# absolute value\n"
        "\n"
        "dim 1   # ambient dimension\n"
        "pieces 2\n"
        "1 0  # the piece x\n"
        "-1 0\n"
        "\n"
    )
    assert parse_problem(text).function().pieces == ((qv(1), Q(0)), (qv(-1), Q(0)))


def test_explicit_empty_pieces_is_the_zero_function():
    f = parse_problem("dim 2\npieces 0\n").function()
    assert f.pieces == ()
    assert f.domain.m == 0
    assert evaluate(f, qv(5, -7)) == Q(0)


def test_rational_tokens_in_rows():
    pf = parse_problem("dim 1\npieces 1\n-2/3 1/2\n")
    assert pf.pieces == ((qv("-2/3"), Q(1, 2)),)


def test_vertices_section():
    pf = parse_problem("dim 2\nvertices 2\n0 0\n1 0\n")
    F = pf.vpolytope()
    assert F.vertices == (qv(0, 0), qv(1, 0))


# ---------------------------------------------------------------------------
# errors, each with its 1-based line number
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "empty problem file"),
        ("# nothing but a comment\n", 1, "empty problem file"),
        ("pieces 1\n1 0\n", 1, "first directive must be dim"),
        ("dim\n", 1, "exactly one argument"),
        ("dim two\n", 1, "not an integer"),
        ("dim 0\n", 1, "dim must be at least 1"),
        ("dim 1\nslices 2\n", 2, "unknown directive 'slices'"),
        ("dim 1\npieces 1\n1 0\ndim 1\n", 4, "duplicate 'dim'"),
        ("dim 1\npieces 1\n1 0\npieces 1\n1 0\n", 4, "duplicate 'pieces'"),
        ("dim 1\npieces 1\n1 0\nrho 1\nrho 2\n", 5, "duplicate 'rho'"),
        ("dim 2\npieces 1\n1 0\n", 3, "expected 3 rational tokens, got 2"),
        ("dim 1\npieces 1\n1/0 0\n", 3, "bad rational token"),
        ("dim 1\npieces 2\n1 0\n", 2, "declares 2 rows but only 1 follow"),
        ("dim 1\npieces -1\n", 2, "count must be nonnegative"),
        ("dim 1\npieces x\n", 2, "not an integer"),
        ("dim 1\npieces 1\n1 0\nrho 0\n", 4, "rho must be positive"),
        ("dim 1\npieces 1\n1 0\nrho -1\n", 4, "rho must be positive"),
        ("dim 1\npieces 1\n1 0\nrho abc\n", 4, "bad rational token"),
        ("dim 1\npieces 1\n1 0\nrho\n", 4, "exactly one argument"),
        ("dim -1\npieces 0\n", 1, "dim must be at least 1"),
        ("dim +2\npieces 0\n", 1, "'+2' is not an integer"),
        ("dim 1\npieces 1_0\n", 2, "'1_0' is not an integer"),
        ("dim 1\nconstraints \u0662\n1 0\n-1 0\n", 2, "is not an integer"),
        ("dim 1\npieces 1\n\u0663 0\n", 3, "bad rational token"),
        ("dim 1\npieces 1\n1/\u0663 0\n", 3, "bad rational token"),
        ("dim 1\npieces 1\n1/0 0\n", 3, "line 3: bad rational token '1/0': denominator is zero"),
        ("dim 1\npieces 1\nab'c 0\n", 3, """line 3: bad rational token "ab'c": not of the form"""),
        ("dim 1\npieces 1\n1 0\nrho 1.5\n", 4, "line 4: bad rational token '1.5': not of the form"),
        ("dim 1\nsl'ices 2\n", 2, "line 2: unknown directive 'sl'ices'"),
        ("dim 1\npieces " + "9" * 63 + "x\n", 2, "line 2: '" + "9" * 63 + "x' is not an integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProblemParseError) as info:
        parse_problem(text)
    assert info.value.line == line
    assert fragment in str(info.value)
    assert f"line {line}:" in str(info.value)


LONG = "1" * 5000  # more digits than int() converts from a string


@pytest.mark.parametrize(
    "text, line",
    [
        (f"dim 1\npieces 1\n{LONG} 0\n", 3),
        (f"dim 1\npieces 1\n1/{LONG} 0\n", 3),
        (f"dim 1\npieces 1\n{LONG}x 0\n", 3),
        (f"dim {LONG}\n", 1),
        (f"dim 1\npieces {LONG}\n", 2),
        (f"dim 1\nx{LONG} 1\n", 2),
        (f"x{LONG} 1\n", 1),
        (f"dim 1\npieces 1\n1 0\nrho {LONG}x\n", 4),
    ],
    ids=["row", "row-denominator", "row-malformed", "dim", "count", "directive", "first-directive", "rho"],
)
def test_long_tokens_give_short_messages(text, line):
    """A message quotes a long token's head and counts it instead of echoing
    thousands of characters."""
    with pytest.raises(ProblemParseError) as info:
        parse_problem(text)
    assert info.value.line == line
    message = str(info.value)
    assert len(message) <= 150
    assert re.search(r"'\.\.\. \(500[0-2] characters, 500[01] digits\)", message)


def test_file_with_no_sections_is_improper():
    with pytest.raises(ImproperFunctionError, match="nothing to model"):
        parse_problem("dim 2\n")


def test_function_requires_pieces_or_constraints():
    pf = parse_problem("dim 2\nvertices 2\n0 0\n1 1\n")
    with pytest.raises(ImproperFunctionError):
        pf.function()


def test_instance_requires_rho():
    with pytest.raises(ImproperFunctionError, match="no rho directive"):
        parse_problem(ABS_TEXT).instance()


def test_vpolytope_requires_vertices():
    with pytest.raises(ImproperFunctionError, match="no vertices section"):
        parse_problem(BOX_TEXT).vpolytope()


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------


def test_serialize_then_parse_is_identity_on_examples():
    for text in (BOX_TEXT, ABS_TEXT, ABS_RHO_TEXT):
        pf = parse_problem(text)
        assert parse_problem(serialize(pf)) == pf


@pytest.mark.parametrize("rho", [Q(-1), Q(0), Q(1, 3), Q(7)])
def test_a_problem_file_builds_exactly_when_its_text_parses(rho):
    """``ProblemFile`` and ``parse_problem`` refuse the same ``rho``: a
    positive one round-trips through ``serialize``, a nonpositive one is
    refused by both."""
    text = f"dim 1\npieces 1\n1 0\nrho {format_rational(rho)}\n"
    pieces = (((Q(1),), Q(0)),)
    if rho > 0:
        pf = ProblemFile(1, pieces=pieces, rho=rho)
        assert serialize(pf) == text and parse_problem(text) == pf
    else:
        with pytest.raises(ValueError, match="^rho must be positive$"):
            ProblemFile(1, pieces=pieces, rho=rho)
        with pytest.raises(ProblemParseError, match="line 4: rho must be positive"):
            parse_problem(text)


def test_serialize_emits_the_canonical_grammar():
    assert serialize(parse_problem(ABS_RHO_TEXT)) == ABS_RHO_TEXT


@given(st.integers(0, 100_000))
@settings(deadline=None, max_examples=60)
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    pieces = None
    if rng.random() < 0.7:
        pieces = tuple(
            (rand_vec(rng, dim), rand_rat(rng)) for _ in range(rng.randint(0, 3))
        )
    constraints = None
    if pieces is None or rng.random() < 0.7:
        constraints = tuple(
            (rand_vec(rng, dim), rand_rat(rng)) for _ in range(rng.randint(0, 3))
        )
    vertices = None
    if rng.random() < 0.3:
        vertices = tuple(rand_vec(rng, dim) for _ in range(rng.randint(1, 3)))
    rho = Q(rng.randint(1, 5), rng.randint(1, 3)) if rng.random() < 0.4 else None
    pf = ProblemFile(dim, pieces, constraints, vertices, rho)
    assert parse_problem(serialize(pf)) == pf
