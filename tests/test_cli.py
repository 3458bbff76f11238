"""Command-line surface: exact output texts (the README quick start's
among them), exit codes, format equivalence, and agreement with direct
library calls."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from nondegen.cli import main
from nondegen.errors import InternalError
from nondegen.experiments import SamplerConfig, run_genericity, run_larman, larman_to_csv, report_to_csv
from nondegen.gallery import box_indicator
from nondegen.linalg import Q
from nondegen.problemfile import parse_problem
from nondegen.proximal import ENUM_BOUND_ENV, prox

BOX = "dim 2\nconstraints 4\n1 0 1\n0 1 1\n-1 0 1\n0 -1 1\n"
ABS = "dim 1\npieces 2\n1 0\n-1 0\n"
ABS_RHO = "dim 1\npieces 2\n1 0\n-1 0\nrho 1\n"
FREE = "dim 1\npieces 0\n"
POINT = "dim 2\nconstraints 4\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n"
EMPTY_DOMAIN = "dim 1\nconstraints 2\n1 -1\n-1 -1\n"
SQUARE = "dim 2\nvertices 4\n1 1\n1 -1\n-1 1\n-1 -1\n"
# the argmin of |x_1| on x_2 >= -5 tilted by 0 is a half-line
HALF = "dim 2\npieces 2\n1 0 0\n-1 0 0\nconstraints 1\n0 -1 5\n"
BOX11 = "dim 11\nconstraints 22\n" + "".join(
    " ".join(["0"] * i + [s] + ["0"] * (10 - i)) + " 1\n" for s in ("1", "-1") for i in range(11)
)
# 20 pieces in R^3: 20 generators, but 1 143 326 subsets of at most 3 planes
PIECES20 = "dim 3\npieces 20\n" + "".join(f"{j} {j * j} 1 {-j}\n" for j in range(20))


@pytest.fixture
def prob(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_quick_start_prints_what_it_says(tmp_path, monkeypatch, capsys):
    """Each ``nondegen`` line of the quick start that a ``# ...`` line
    follows prints exactly that line, run on the file its heredoc writes."""
    block = README.read_text(encoding="utf-8").split("## Quick start\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    for name, text in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?^)EOF$", block, re.M | re.S):
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    pins = [
        (line, said) for line, said in zip(lines, lines[1:])
        if line.startswith("nondegen ") and said.startswith("# ")
    ]
    assert len(pins) == 3  # minimize --v 1,1, certify --v 1,1 and certify --v 1,0
    for line, said in pins:
        assert run(capsys, *shlex.split(line)[1:]) == (0, said[2:] + "\n", "")


# The console outputs that no other test pins verbatim: (file, its text, the
# command line, the exact stdout, the exit code).
CONSOLE_PINS = {
    # prox takes its point from the KKT candidate loop, checked by the
    # multiplier read-off with no LP
    "prox": ("box.prob", BOX, "prox box.prob --c 2,1/2", "PROX at (1, 1/2)\n", 0),
    # the pairs come from the candidate planes and the integer row scans of
    # construct_degenerate
    "adversarial": ("box.prob", BOX, "adversarial box.prob", (
        "v=(-1, 0) at x=(-1, -1)\n"
        "v=(0, 0) at x=(-1, 0)\n"
        "v=(0, 1) at x=(-1, 1)\n"
        "v=(0, 0) at x=(0, -1)\n"
        "v=(0, 0) at x=(0, 1)\n"
        "v=(1, 0) at x=(1, -1)\n"
        "v=(0, 0) at x=(1, 0)\n"
        "v=(1, 0) at x=(1, 1)\n"
    ), 0),
    # the sampler builds each coordinate as one Fraction
    "genericity": ("box.prob", BOX, "genericity box.prob --trials 3 --seed 42 --bits 8 --format csv", (
        "trial_index,v,outcome,minimizer,min_witness_coeff\n"
        "0,21/512;-23/9536,nondegenerate,1;-1,23/9536\n"
        "1,1/1216;-25/16384,nondegenerate,1;-1,1/1216\n"
        "2,-55/1792;15/1184,nondegenerate,-1;1,15/1184\n"
    ), 0),
    # the refinement LP for x_2 is unbounded, so x_2 is kept from the last
    # optimal step
    "minimize-half-line": (
        "half.prob", HALF, "minimize half.prob --v 0,0", "MINIMIZER at (0, -5); value 0\n", 0
    ),
    "larman": ("square.prob", SQUARE, "larman --vertices square.prob --trials 3 --seed 42", (
        "trials 3\nsingleton_faces 3\nmulti_vertex_faces 0\nseed 42\n"
    ), 0),
}


@pytest.mark.parametrize("name, text, line, out, code", CONSOLE_PINS.values(), ids=CONSOLE_PINS)
def test_console_output_is_pinned(tmp_path, monkeypatch, capsys, name, text, line, out, code):
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *line.split()) == (code, out, "")


# ---------------------------------------------------------------------------
# certify / minimize texts and exit codes
# ---------------------------------------------------------------------------


def test_certify_nondegenerate_text(prob, capsys):
    code, out, _ = run(capsys, "certify", prob("box.prob", BOX), "--v", "1,1")
    assert code == 0
    assert out == "NONDEGENERATE at (1, 1); witness 1,1,0,0\n"


def test_certify_degenerate_text(prob, capsys):
    code, out, _ = run(capsys, "certify", prob("box.prob", BOX), "--v", "1,0")
    assert code == 0
    assert out == (
        "DEGENERATE at (1, 1): v lies on rb ∂f; "
        "no strictly complementary dual exists\n"
    )


def test_certify_not_critical_text(prob, capsys):
    code, out, _ = run(
        capsys, "certify", prob("box.prob", BOX), "--v", "-1,0", "--x", "1,1"
    )
    assert code == 0
    assert out.startswith("NOT CRITICAL at (1, 1)")


def test_minimize_unbounded_exit_code(prob, capsys):
    code, out, _ = run(capsys, "minimize", prob("free.prob", FREE), "--v", "1")
    assert code == 3
    assert out == "UNBOUNDED\n"


def test_minimize_box_edge_tilt(prob, capsys):
    code, out, _ = run(capsys, "minimize", prob("box.prob", BOX), "--v", "1,0")
    assert code == 0
    assert out == "MINIMIZER at (1, 1); value -1\n"


def test_certify_witness_of_a_function_with_pieces(prob, capsys):
    """The witness lists the piece weights before the (here no) constraint
    multipliers; a ``rho`` line does not change certify's output."""
    for text in (ABS, ABS_RHO):
        code, out, _ = run(capsys, "certify", prob("abs.prob", text), "--v", "1/2")
        assert code == 0
        assert out == "NONDEGENERATE at (0); witness 3/4,1/4\n"


def test_minimize_negative_tilt_both_flag_forms(prob, capsys):
    path = prob("box.prob", BOX)
    code1, out1, _ = run(capsys, "minimize", path, "--v", "-1,-1")
    code2, out2, _ = run(capsys, "minimize", path, "--v=-1,-1")
    assert code1 == code2 == 0
    assert out1 == out2 == "MINIMIZER at (-1, -1); value -2\n"


EMPTY_DOMAIN_ARGS = {
    "minimize": ("--v", "0"),
    "certify": ("--v", "0"),
    "genericity": ("--trials", "1", "--seed", "0"),
    "adversarial": (),
    "prox": ("--c", "0"),
    "critical": ("--v", "0"),
}


@pytest.mark.parametrize("command", list(EMPTY_DOMAIN_ARGS))
def test_empty_domain_exit_code(prob, capsys, command):
    path = prob("bad.prob", EMPTY_DOMAIN + "rho 1/2\n")
    code, out, err = run(capsys, command, path, *EMPTY_DOMAIN_ARGS[command])
    assert code == 3
    if command in ("minimize", "certify"):
        assert out == "INFEASIBLE\n"
    else:
        assert (out, err) == ("", "error: domain polyhedron is empty\n")


def test_certify_at_outside_point_is_usage_error(prob, capsys):
    code, _, err = run(capsys, "certify", prob("box.prob", BOX), "--v", "1,1", "--x", "3,0")
    assert code == 1
    assert "--x" in err


# ---------------------------------------------------------------------------
# exit-code table
# ---------------------------------------------------------------------------


def test_usage_error_on_bad_vector_arity(prob, capsys):
    code, _, err = run(capsys, "certify", prob("box.prob", BOX), "--v", "1")
    assert code == 1
    assert "error:" in err and "--v" in err


def test_usage_error_on_unknown_flag(prob, capsys):
    code, _, err = run(capsys, "minimize", prob("box.prob", BOX), "--v", "1,1", "--nope")
    assert code == 1


def test_usage_error_on_missing_file(capsys):
    code, _, err = run(capsys, "minimize", "does-not-exist.prob", "--v", "1")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["certify", "larman"])
def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.prob"
    path.write_bytes(b"dim 1\npieces 1\n1 0\n# caf\xe9\n")
    if command == "certify":
        argv = ["certify", str(path), "--v", "0"]
    else:
        argv = ["larman", "--vertices", str(path), "--trials", "1", "--seed", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read '{path}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["genericity", "larman"])
def test_unwritable_report_path_is_usage_error(prob, capsys, tmp_path, command):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    if command == "genericity":
        inputs = [prob("box.prob", BOX)]
    else:
        inputs = ["--vertices", prob("square.prob", SQUARE)]
    code, out, err = run(
        capsys, command, *inputs, "--trials", "2", "--seed", "1", "--report", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write '{target}'")
    assert not target.parent.exists()


def test_parse_error_exit_code(prob, capsys):
    code, _, err = run(capsys, "minimize", prob("bad.prob", "dim 1\nwat 3\n"), "--v", "1")
    assert code == 2
    assert "line 2" in err


def test_improper_file_exit_code(prob, capsys):
    code, _, err = run(capsys, "minimize", prob("none.prob", "dim 2\n"), "--v", "1,1")
    assert code == 3


def test_critical_without_rho_exit_code(prob, capsys):
    code, _, err = run(capsys, "critical", prob("abs.prob", ABS), "--v", "0")
    assert code == 3
    assert "rho" in err


def test_larman_without_vertices_exit_code(prob, capsys):
    code, _, err = run(
        capsys, "larman", "--vertices", prob("box.prob", BOX), "--trials", "3", "--seed", "1"
    )
    assert code == 3
    assert "vertices" in err


def test_larman_with_one_distinct_vertex_exit_code(prob, capsys):
    one = "dim 2\nvertices 2\n1 1\n1 1\n"
    code, out, err = run(
        capsys, "larman", "--vertices", prob("one.prob", one), "--trials", "3", "--seed", "1"
    )
    assert code == 3
    assert out == ""
    assert "fewer than 2 distinct vertices" in err


def test_larman_with_no_vertices_exit_code(prob, capsys):
    none = "dim 2\nvertices 0\n"
    code, out, err = run(
        capsys, "larman", "--vertices", prob("none.prob", none), "--trials", "3", "--seed", "1"
    )
    assert code == 3
    assert out == ""
    assert "error: vertex list is empty" in err


@pytest.mark.parametrize(
    "argv", [("prox", "--c", "0,0"), ("critical", "--v", "0,0"), ("adversarial",)], ids=lambda a: a[0]
)
def test_enumeration_bound_exit_code(prob, capsys, monkeypatch, argv):
    """The box's 4 constraints are above a bound of 3, in each command that
    enumerates; ``critical`` reads the box with a ``rho``."""
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", "3")
    command, *flags = argv
    code, _, err = run(capsys, command, prob("box.prob", BOX + "rho 1\n"), *flags)
    assert code == 3
    assert "above the enumeration bound 3" in err


def test_the_enumeration_bound_is_not_a_flag(prob, capsys):
    """The variable is the bound's one setting: the flag named after it is
    an unknown argument."""
    flag = "--" + ENUM_BOUND_ENV.removeprefix("GENERIC_NONDEGEN_").lower().replace("_", "-")
    code, _, err = run(capsys, "prox", prob("box.prob", BOX), "--c", "0,0", flag, "3")
    assert code == 1
    assert f"unrecognized arguments: {flag} 3" in err


@pytest.mark.parametrize("bound", ["abc", "-5", "2.5", ""])
def test_bad_enumeration_bound_environment_is_usage_error(prob, capsys, monkeypatch, bound):
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", bound)
    for argv in (("prox", prob("box.prob", BOX), "--c", "0,0"),
                 ("critical", prob("abs.prob", ABS_RHO), "--v", "0"),
                 ("adversarial", prob("box.prob", BOX))):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "bound" in err.lower()


def test_the_enumeration_bound_is_read_before_the_problem_file(prob, capsys, monkeypatch):
    """A bad bound is a usage error even where the file would fail: this box
    has no ``rho``, which ``critical`` refuses with exit 3."""
    monkeypatch.setenv("GENERIC_NONDEGEN_ENUM_BOUND", "abc")
    code, _, err = run(capsys, "critical", prob("box.prob", BOX), "--v", "0,0")
    assert code == 1
    assert "GENERIC_NONDEGEN_ENUM_BOUND must be an integer, got 'abc'" in err


def test_internal_error_has_its_own_exit_code(prob, capsys, monkeypatch):
    def broken(*args):
        raise InternalError("invariant failed")

    monkeypatch.setattr("nondegen.cli.prox", broken)
    code, _, err = run(capsys, "prox", prob("abs.prob", ABS), "--c", "3")
    assert code == 4
    assert "invariant failed" in err


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--bits", "200", "bits"),
        ("--radius", "0.5", "0.5"),
        ("--radius", "0", "radius"),
        ("--trials", "-5", "trials must be nonnegative"),
    ],
)
def test_bad_sampler_flag_is_usage_error(prob, capsys, flag, value, named):
    code, _, err = run(
        capsys, "genericity", prob("box.prob", BOX), "--trials", "3", "--seed", "1", flag, value
    )
    assert code == 1
    assert named in err


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
@pytest.mark.parametrize("flag", ["--trials", "--seed", "--bits", "GENERIC_NONDEGEN_ENUM_BOUND"])
def test_every_integer_follows_the_problem_file_digit_rule(prob, capsys, monkeypatch, flag, token):
    """An integer flag or environment value is ASCII digits with an optional
    ``-``, as in problem files; ``int()`` would read these tokens as 10, 3
    and 3."""
    if flag == "GENERIC_NONDEGEN_ENUM_BOUND":
        monkeypatch.setenv(flag, token)
        argv = ["prox", prob("box.prob", BOX), "--c", "0,0"]
    else:
        values = {"--trials": "3", "--seed": "1", "--bits": "64", flag: token}
        argv = ["genericity", prob("box.prob", BOX), *[a for kv in values.items() for a in kv]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert repr(token) in err and "integer" in err


LONG = "1" * 5000  # more digits than int() converts from a string


def test_long_token_in_a_problem_file_is_a_parse_error(prob, capsys):
    big = prob("big.prob", f"dim 1\npieces 1\n{LONG} 0\n")
    code, out, err = run(capsys, "minimize", big, "--v", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: bad rational token") and "more digits" in err


@pytest.mark.parametrize("argv", [
    ["minimize", "box.prob", "--v", f"{LONG},0"],
    ["certify", "box.prob", "--v", "0,0", "--x", f"0,1/{LONG}"],
    ["prox", "box.prob", "--c", f"-{LONG},0"],
])
def test_long_token_in_a_vector_flag_is_usage_error(prob, capsys, argv):
    argv[1] = prob("box.prob", BOX)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {argv[-2]}: bad rational token") and "more digits" in err


# ---------------------------------------------------------------------------
# prox / critical / adversarial commands
# ---------------------------------------------------------------------------


def test_prox_command_matches_library(prob, capsys):
    code, out, _ = run(capsys, "prox", prob("abs.prob", ABS), "--c", "3")
    assert code == 0
    assert out == "PROX at (2)\n"
    f = parse_problem(ABS).function()
    assert prox(f, (Q(3),)) == (Q(2),)


def test_critical_command_lists_all_points(prob, capsys):
    path = prob("absrho.prob", ABS_RHO)
    code, out, _ = run(capsys, "critical", path, "--v", "0")
    assert code == 0
    assert out == (
        "CRITICAL at (-1): NONDEGENERATE\n"
        "CRITICAL at (0): NONDEGENERATE\n"
        "CRITICAL at (1): NONDEGENERATE\n"
    )
    code, out, _ = run(capsys, "critical", path, "--v", "1")
    assert out.splitlines() == [
        "CRITICAL at (-2): NONDEGENERATE",
        "CRITICAL at (0): DEGENERATE",
    ]


def test_adversarial_command(prob, capsys):
    code, out, _ = run(capsys, "adversarial", prob("point.prob", POINT))
    assert code == 0
    assert "no candidate point" in out


@pytest.mark.parametrize(
    "name, text", [("box11.prob", BOX11), ("pieces20.prob", PIECES20)], ids=["box11", "pieces20"]
)
def test_adversarial_above_the_enumeration_bound_exit_code(prob, capsys, monkeypatch, name, text):
    """Above the bound in generators (box11) or in plane subsets (pieces20)."""
    monkeypatch.delenv("GENERIC_NONDEGEN_ENUM_BOUND", raising=False)
    code, out, err = run(capsys, "adversarial", prob(name, text))
    assert code == 3
    assert out == ""
    assert "enumeration bound" in err


# ---------------------------------------------------------------------------
# formats and library agreement
# ---------------------------------------------------------------------------


def _csv_rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def test_json_and_csv_carry_identical_fields(prob, capsys):
    path = prob("box.prob", BOX)
    _, csv_out, _ = run(capsys, "certify", path, "--v", "1,1", "--format", "csv")
    _, json_out, _ = run(capsys, "certify", path, "--v", "1,1", "--format", "json")
    assert _csv_rows(csv_out) == json.loads(json_out)

    args = ("genericity", path, "--trials", "4", "--seed", "42")
    _, csv_out, _ = run(capsys, *args, "--format", "csv")
    _, json_out, _ = run(capsys, *args, "--format", "json")
    assert _csv_rows(csv_out) == json.loads(json_out)


def test_certify_csv_row(prob, capsys):
    _, out, _ = run(capsys, "certify", prob("box.prob", BOX), "--v", "1,1", "--format", "csv")
    assert out.splitlines() == [
        "outcome,x,witness",
        "nondegenerate,1;1,1;1;0;0",
    ]


def test_genericity_output_matches_library(prob, capsys):
    _, out, _ = run(
        capsys,
        "genericity",
        prob("box.prob", BOX),
        "--trials",
        "6",
        "--seed",
        "42",
        "--format",
        "csv",
    )
    expected = report_to_csv(run_genericity(box_indicator(2), SamplerConfig(seed=42), 6))
    assert out == expected


def test_genericity_text_summary(prob, capsys):
    code, out, _ = run(
        capsys, "genericity", prob("box.prob", BOX), "--trials", "5", "--seed", "42"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trials 5"
    assert lines[1] == "nondegenerate 5"
    assert lines[2] == "degenerate 0"
    assert lines[3] == "non_unique 0"
    assert lines[4] == "unbounded 0"
    assert lines[5] == "seed 42"


def test_genericity_csv_leaves_the_cells_of_an_unbounded_trial_empty(prob, capsys):
    """|x| tilted by |v| > 1 has no minimizer: the row names the outcome and
    leaves the minimizer and witness cells empty."""
    code, out, _ = run(
        capsys, "genericity", prob("abs.prob", ABS), "--trials", "6", "--seed", "42",
        "--bits", "8", "--radius", "100", "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[1] == "0,525/128,unbounded,,"
    assert rows[3] == "2,-1375/448,unbounded,,"
    assert rows[5] == "4,-275/64,unbounded,,"


def test_genericity_text_lists_a_non_unique_hit(prob, capsys):
    """At 8 bits trial 177 samples v = (0, 7/960), which exposes an edge of
    the box: the summary counts it and its hit line names it."""
    code, out, _ = run(
        capsys, "genericity", prob("box.prob", BOX), "--trials", "178", "--seed", "42",
        "--bits", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "non_unique 1"
    assert lines[-1] == "hit trial=177 outcome=non_unique v=0;7/960"


def test_larman_text_lists_a_multi_vertex_hit(prob, capsys):
    """The same stream gives c = (0, 7/960) on the square, which exposes an
    edge: it is counted and listed as a hit."""
    code, out, _ = run(
        capsys, "larman", "--vertices", prob("square.prob", SQUARE), "--trials", "178",
        "--seed", "42", "--bits", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "multi_vertex_faces 1"
    assert lines[-1] == "hit trial=177 c=0;7/960"


def test_larman_output_matches_library(prob, capsys):
    _, out, _ = run(
        capsys,
        "larman",
        "--vertices",
        prob("square.prob", SQUARE),
        "--trials",
        "7",
        "--seed",
        "42",
        "--format",
        "csv",
    )
    F = parse_problem(SQUARE).vpolytope()
    assert out == larman_to_csv(run_larman(F, SamplerConfig(seed=42), 7))


def test_report_flag_writes_the_same_csv(prob, capsys, tmp_path):
    target = tmp_path / "report.csv"
    _, out, _ = run(
        capsys,
        "genericity",
        prob("box.prob", BOX),
        "--trials",
        "4",
        "--seed",
        "7",
        "--report",
        str(target),
        "--format",
        "csv",
    )
    assert target.read_text(encoding="utf-8") == out


def test_no_decimal_tokens_in_output(prob, capsys):
    for fmt in ("text", "csv"):
        _, out, _ = run(
            capsys,
            "genericity",
            prob("box.prob", BOX),
            "--trials",
            "5",
            "--seed",
            "42",
            "--format",
            fmt,
        )
        assert "." not in out
