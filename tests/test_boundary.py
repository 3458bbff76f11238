"""A caller's numbers enter through one boundary, ``linalg.vec`` and
``linalg._exact``: an ``int`` or a ``Fraction`` is taken, anything else is a
``ValueError`` naming the field, never a bare ``AttributeError`` or
``TypeError`` further in.  That holds for a dataclass built directly too,
whose ``__post_init__`` checks its own fields and stores what the check
returns, tuples of ``Fraction`` entries: built from lists and ints, it equals
and hashes like its twin built from tuples.  Also: the README's library block
runs as written."""

import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nondegen
from nondegen.errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    EmptyGeneratedSetError,
    InternalError,
    NondegenError,
)
from nondegen.experiments import (
    CSV_FIELDS,
    SamplerConfig,
    SplitMix64,
    construct_degenerate,
    csv_table,
    genericity_trial,
    larman_to_csv,
    merge_trials,
    report_to_csv,
    run_genericity,
    run_larman,
    sample_objective,
)
from nondegen.functions import (
    Minimizer,
    Nondegenerate,
    PolyhedralFunction,
    argmin_face,
    canonical_minimizer,
    certify,
    evaluate,
    minimize_perturbed,
    strict_complementarity,
    subdifferential,
)
from nondegen.gallery import (
    abs_function,
    box,
    box_indicator,
    edge_direction,
    point_indicator,
    random_polytope,
    random_vpolytope,
    simplex_indicator,
    square_vertices,
    standard_simplex,
)
from nondegen.geometry import (
    GeneratedSet,
    VPolytope,
    exposed_face,
    member,
    positive_span_is_subspace,
    prune,
    ri_membership,
    translate,
)
from nondegen.linalg import (
    ONE, ZERO, Q, format_rational, mat, parse_rational, rank, solve_linear, vec, vsub
)
from nondegen.problemfile import ProblemFile, parse_problem, serialize
from nondegen.proximal import LowerC2Instance, find_critical_points, minty_transport, prox
from nondegen.simplex import HPolyhedron, LinearProgram, feasible_point, solve_lp, solve_standard_form

README = Path(__file__).resolve().parent.parent / "README.md"

F = box_indicator(2)
S = GeneratedSet(((ONE, ZERO),), (), 2)
INST = LowerC2Instance(F, ONE)
CFG = SamplerConfig(seed=1)


def _inexact(field, kind="float", exact="an int or a Fraction"):
    return f"^{re.escape(field)} must be {exact}, not {kind}$"


REFUSALS = {
    # the rule itself, through vec and mat
    "vec-float": (lambda: vec((ONE, 0.1)), _inexact("vector entry 1")),
    "vec-bool": (lambda: vec((True,)), _inexact("vector entry 0", "bool")),
    "vec-str": (lambda: vec(("1/2",)), _inexact("vector entry 0", "str")),
    "vec-decimal": (lambda: vec((Decimal("0.1"),)), _inexact("vector entry 0", "Decimal")),
    "vec-none": (lambda: vec((None,)), _inexact("vector entry 0", "NoneType")),
    "vec-length": (lambda: vec((1, 2), 3, "point dimension"), DimensionMismatchError),
    "mat-float": (lambda: mat([(1, 0.5)]), _inexact("matrix row 0 entry 1")),
    # the silent readings
    "build-offset": (
        lambda: PolyhedralFunction.build([((1,), 0.5)], [], [], 1), _inexact("piece offset entry 0")
    ),
    "build-gradient": (
        lambda: PolyhedralFunction.build([(("1/2",), 0)], [], [], 1),
        _inexact("piece gradient 0 entry 0", "str"),
    ),
    "build-rhs": (
        lambda: PolyhedralFunction.build([], [(1,)], [0.5], 1), _inexact("right-hand side entry 0")
    ),
    "box-radius-float": (lambda: box(2, 0.5), _inexact("radius")),
    "box-radius-str": (lambda: box(2, "1"), _inexact("radius", "str")),
    "forced-direction": (
        lambda: run_larman(square_vertices(), CFG, 0, forced=[(0.1, 1)]),
        _inexact("forced direction 0 entry 0"),
    ),
    "rho-float": (lambda: LowerC2Instance(abs_function(), 0.5), _inexact("rho")),
    "rho-bool": (lambda: LowerC2Instance(abs_function(), True), _inexact("rho", "bool")),
    # the eight entry points that checked only the length
    "evaluate": (lambda: evaluate(F, (0.5, 0)), _inexact("point entry 0")),
    "minimize_perturbed": (lambda: minimize_perturbed(F, (0.5, 0)), _inexact("tilt entry 0")),
    "minimize_perturbed-bool": (
        lambda: minimize_perturbed(F, (True, 0)), _inexact("tilt entry 0", "bool")
    ),
    "certify": (lambda: certify(F, (0.5, 0), (ONE, ONE)), _inexact("direction entry 0")),
    "member": (lambda: member(S, (0.5, 0)), _inexact("query entry 0")),
    "ri_membership": (lambda: ri_membership(S, (0.5, 0)), _inexact("query entry 0")),
    "translate": (lambda: translate(S, (0.5, 0)), _inexact("translation entry 0")),
    "exposed_face": (lambda: exposed_face(square_vertices(), (0.5, 1)), _inexact("direction entry 0")),
    "violation_index": (lambda: box(2).violation_index((0.5, 0)), _inexact("point entry 0")),
    # the entry points that had no check
    "subdifferential": (lambda: subdifferential(F, (0.5, 0)), _inexact("point entry 0")),
    "argmin_face": (lambda: argmin_face(F, (0.5, 0), ZERO), _inexact("tilt entry 0")),
    "argmin_face-value": (lambda: argmin_face(F, (0, 0), 0.5), _inexact("value")),
    "prox": (lambda: prox(F, (0.5, 0)), _inexact("center entry 0")),
    "minty_transport": (lambda: minty_transport(INST, (0.5, 0)), _inexact("center entry 0")),
    "find_critical_points": (lambda: find_critical_points(INST, (0.5, 0)), _inexact("tilt entry 0")),
    "certify-x_bar": (lambda: certify(F, (0, 0), (1.0, 1)), _inexact("point entry 0")),
    # gallery sizes and the sampler's trial index
    "box_indicator-negative": (lambda: box_indicator(-1), "^n must be at least 1$"),
    "box-bool": (lambda: box(True), _inexact("n", "bool", "an int")),
    "box-zero": (lambda: box(0), "^n must be at least 1$"),
    "box-float": (lambda: box(1.5), _inexact("n", exact="an int")),
    "standard_simplex-zero": (lambda: standard_simplex(0), "^n must be at least 1$"),
    "simplex_indicator-zero": (lambda: simplex_indicator(0), "^n must be at least 1$"),
    "point_indicator-zero": (lambda: point_indicator(0), "^n must be at least 1$"),
    "random_polytope-n": (lambda: random_polytope(1, 2.5, 8), _inexact("n", exact="an int")),
    "random_polytope-m": (lambda: random_polytope(1, 2, 8.0), _inexact("m", exact="an int")),
    "random_vpolytope-n": (lambda: random_vpolytope(1, 2.0), _inexact("n", exact="an int")),
    "random_vpolytope-k": (lambda: random_vpolytope(1, 2, 3.0), _inexact("k", exact="an int")),
    "sample_objective-negative": (
        lambda: sample_objective(CFG, -1, 2), "^trial_index must be nonnegative$"
    ),
    "sample_objective-bool": (
        lambda: sample_objective(CFG, True, 2), _inexact("trial_index", "bool", "an int")
    ),
    "sample_objective-float": (
        lambda: sample_objective(CFG, 1.5, 2), _inexact("trial_index", exact="an int")
    ),
}

# every field of each dataclass that holds a caller's numbers, built directly
# with one bad entry, and the name the refusal gives it
P1 = HPolyhedron(((ONE,),), (ONE,), 1)
DATACLASS_FIELDS = {
    "HPolyhedron-A": (lambda e: HPolyhedron(((e,),), (1,), 1), "constraint 0 entry 0"),
    "HPolyhedron-b": (lambda e: HPolyhedron(((1,),), (e,), 1), "right-hand side entry 0"),
    "LinearProgram-objective": (lambda e: LinearProgram((e,), P1), "objective entry 0"),
    "GeneratedSet-points": (lambda e: GeneratedSet(((0,), (e,)), (), 1), "point 1 entry 0"),
    "GeneratedSet-rays": (lambda e: GeneratedSet(((0,),), ((e,),), 1), "ray 0 entry 0"),
    "VPolytope-vertices": (lambda e: VPolytope(((0, 1), (1, e))), "vertex 1 entry 1"),
    "PolyhedralFunction-gradient": (
        lambda e: PolyhedralFunction((((e,), 0),), P1, 1), "piece gradient 0 entry 0"
    ),
    "PolyhedralFunction-offset": (
        lambda e: PolyhedralFunction((((1,), 0), ((1,), e)), P1, 1), "piece offset entry 1"
    ),
    "ProblemFile-pieces": (lambda e: ProblemFile(1, pieces=(((1,), e),)), "pieces row 0 entry 1"),
    "ProblemFile-constraints": (
        lambda e: ProblemFile(1, constraints=(((e,), 1),)), "constraints row 0 entry 0"
    ),
    "ProblemFile-vertices": (lambda e: ProblemFile(1, vertices=((0,), (e,))), "vertices row 1 entry 0"),
    "ProblemFile-rho": (lambda e: ProblemFile(1, pieces=(), rho=e), "rho"),
}
BAD_ENTRIES = {"float": 0.5, "bool": True, "str": "1/2", "NoneType": None}
for field, (build, name) in DATACLASS_FIELDS.items():
    for kind, entry in BAD_ENTRIES.items():
        if field == "ProblemFile-rho" and entry is None:
            continue  # a rho of None is the absent directive
        REFUSALS[f"{field}-{kind}"] = (lambda build=build, entry=entry: build(entry), _inexact(name, kind))
DIMS = {
    "HPolyhedron": lambda d: HPolyhedron((), (), d),
    "GeneratedSet": lambda d: GeneratedSet((), (), d),
    "PolyhedralFunction": lambda d: PolyhedralFunction((), P1, d),
    "ProblemFile": lambda d: ProblemFile(d, pieces=()),
}
for cls, build in DIMS.items():
    REFUSALS[f"{cls}-dim-bool"] = (lambda build=build: build(True), _inexact("dim", "bool", "an int"))
    REFUSALS[f"{cls}-dim-float"] = (lambda build=build: build(1.0), _inexact("dim", exact="an int"))
    REFUSALS[f"{cls}-dim-zero"] = (lambda build=build: build(0), "^dim must be at least 1$")
# a bad second piece, refused in the constructor's words by the constructor
# and by the two classmethods that leave their pieces to it
PIECE_BUILDERS = {
    "PolyhedralFunction": lambda p: PolyhedralFunction([((0,), 0), p], P1, 1),
    "build": lambda p: PolyhedralFunction.build([((0,), 0), p], [], [], 1),
    "max_affine": lambda p: PolyhedralFunction.max_affine([((0,), 0), p], 1),
}
BAD_PIECES = {
    "offset-float": (((1,), 0.5), _inexact("piece offset entry 1")),
    "gradient-str": ((("1/2",), 0), _inexact("piece gradient 1 entry 0", "str")),
    "unpaired": (((1,),), r"^pieces row 1 must be a \(gradient, offset\) pair$"),
}
for via, build in PIECE_BUILDERS.items():
    for kind, (piece, message) in BAD_PIECES.items():
        REFUSALS[f"{via}-second-piece-{kind}"] = (lambda build=build, piece=piece: build(piece), message)
REFUSALS.update({
    # the eliminator's entry points; solve_linear names an entry by its place in [A | b]
    "rank": (lambda: rank([(ONE, 0), (0.5, 1)]), _inexact("matrix row 1 entry 0")),
    "rank-bool": (lambda: rank([(True, 0)]), _inexact("matrix row 0 entry 0", "bool")),
    "solve_linear-matrix": (lambda: solve_linear([(0.5,)], [1]), _inexact("matrix row 0 entry 0")),
    "solve_linear-rhs": (lambda: solve_linear([(1,)], [0.5]), _inexact("matrix row 0 entry 1")),
    # what the problem file's own readings let through
    "ProblemFile-serialize": (
        lambda: serialize(ProblemFile(1, pieces=(((ONE,), ZERO),), rho=0.5)), _inexact("rho")
    ),
    # a trial index past the 64-bit stream seed
    "sample_objective-2^64": (
        lambda: sample_objective(CFG, 2**64, 1), r"^trial_index must be below 2\^64$"
    ),
    # a wrong object given to an enumerator, refused by the bound's gate
    "construct_degenerate-None": (
        lambda: construct_degenerate(None), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "construct_degenerate-HPolyhedron": (
        lambda: construct_degenerate(P1), "^f must be a PolyhedralFunction, not HPolyhedron$"
    ),
    "prox-None": (lambda: prox(None, (0,)), "^f must be a PolyhedralFunction, not NoneType$"),
    "find_critical_points-None": (
        lambda: find_critical_points(None, (0,)), "^inst must be a LowerC2Instance, not NoneType$"
    ),
    "find_critical_points-PolyhedralFunction": (
        lambda: find_critical_points(F, (0, 0)),
        "^inst must be a LowerC2Instance, not PolyhedralFunction$",
    ),
    "minty_transport-PolyhedralFunction": (
        lambda: minty_transport(F, (0, 0)), "^inst must be a LowerC2Instance, not PolyhedralFunction$"
    ),
    # a wrong object where a function, set, program or file is expected,
    # refused by name at the entry point; run_genericity refuses before any
    # trial, so a run of 0 trials refuses too
    "certify-None": (lambda: certify(None, (0,), (0,)), "^f must be a PolyhedralFunction, not NoneType$"),
    "minimize_perturbed-None": (
        lambda: minimize_perturbed(None, (0,)), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "run_genericity-None": (
        lambda: run_genericity(None, CFG, 0), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "ri_membership-None": (lambda: ri_membership(None, (0,)), "^S must be a GeneratedSet, not NoneType$"),
    "translate-None": (lambda: translate(None, (0,)), "^S must be a GeneratedSet, not NoneType$"),
    "solve_lp-None": (lambda: solve_lp(None), "^lp must be a LinearProgram, not NoneType$"),
    "feasible_point-None": (lambda: feasible_point(None), "^P must be an HPolyhedron, not NoneType$"),
    "parse_problem-None": (lambda: parse_problem(None), "^text must be a str, not NoneType$"),
    "serialize-None": (lambda: serialize(None), "^pf must be a ProblemFile, not NoneType$"),
    "run_larman-list": (
        lambda: run_larman([[0, 0], [1, 0]], CFG, 1), "^F must be a VPolytope, not list$"
    ),
    "member-None": (lambda: member(None, (0,)), "^S must be a GeneratedSet, not NoneType$"),
    "prune-None": (lambda: prune(None), "^S must be a GeneratedSet, not NoneType$"),
    "positive_span_is_subspace-None": (
        lambda: positive_span_is_subspace(None), "^S must be a GeneratedSet, not NoneType$"
    ),
    "exposed_face-list": (
        lambda: exposed_face([[0, 0], [1, 0]], (1, 0)), "^F must be a VPolytope, not list$"
    ),
    "evaluate-None": (lambda: evaluate(None, (0,)), "^f must be a PolyhedralFunction, not NoneType$"),
    "subdifferential-None": (
        lambda: subdifferential(None, (0,)), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "argmin_face-None": (
        lambda: argmin_face(None, (0,), 0), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "strict_complementarity-None": (
        lambda: strict_complementarity(None, (0,)), "^lp must be a LinearProgram, not NoneType$"
    ),
    "sample_objective-None": (
        lambda: sample_objective(None, 0, 1), "^cfg must be a SamplerConfig, not NoneType$"
    ),
    "run_genericity-cfg-None": (
        lambda: run_genericity(F, None, 0), "^cfg must be a SamplerConfig, not NoneType$"
    ),
    "genericity_trial-None": (
        lambda: genericity_trial(None, CFG, 0), "^f must be a PolyhedralFunction, not NoneType$"
    ),
    "genericity_trial-cfg-None": (
        lambda: genericity_trial(F, None, 0), "^cfg must be a SamplerConfig, not NoneType$"
    ),
    "report_to_csv-None": (
        lambda: report_to_csv(None), "^report must be an ExperimentReport, not NoneType$"
    ),
    "larman_to_csv-None": (
        lambda: larman_to_csv(None), "^report must be a LarmanReport, not NoneType$"
    ),
    "merge_trials-None": (
        lambda: merge_trials(None, 0), "^records must be an iterable of TrialRecords, not NoneType$"
    ),
    "merge_trials-int": (
        lambda: merge_trials(5, 0), "^records must be an iterable of TrialRecords, not int$"
    ),
    "merge_trials-entry-None": (
        lambda: merge_trials([genericity_trial(F, CFG, 0), None], 0),
        "^records entry 1 must be a TrialRecord, not NoneType$",
    ),
    # two records of one index were both tallied, in input order
    "merge_trials-repeated-index": (
        lambda: merge_trials([genericity_trial(F, CFG, 0), genericity_trial(F, SamplerConfig(2), 0)], 1),
        "^records entry 1 repeats trial_index 0$",
    ),
    # the sampler's stream and its readers, which ended in a bare AttributeError,
    # TypeError or csv.Error, or built a report whose seed is None; run_larman
    # refuses before any trial, so a run of 0 trials refuses too
    "run_larman-cfg-None-0": (
        lambda: run_larman(square_vertices(), None, 0), "^cfg must be a SamplerConfig, not NoneType$"
    ),
    "run_larman-cfg-None-2": (
        lambda: run_larman(square_vertices(), None, 2), "^cfg must be a SamplerConfig, not NoneType$"
    ),
    "sample_objective-dim-negative": (lambda: sample_objective(CFG, 0, -1), "^dim must be at least 1$"),
    "sample_objective-dim-None": (
        lambda: sample_objective(CFG, 0, None), _inexact("dim", "NoneType", "an int")
    ),
    "SplitMix64-None": (lambda: SplitMix64(None), _inexact("seed", "NoneType", "an int")),
    "SplitMix64-float": (lambda: SplitMix64(1.5), _inexact("seed", exact="an int")),
    "edge_direction-None": (lambda: edge_direction(None), "^F must be a VPolytope, not NoneType$"),
    "csv_table-fields-None": (
        lambda: csv_table(None, [[0]]), "^fields must be a sequence, not NoneType$"
    ),
    "csv_table-rows-None": (
        lambda: csv_table(CSV_FIELDS, None), "^rows must be an iterable of rows, not NoneType$"
    ),
    "merge_trials-seed-None": (
        lambda: merge_trials([genericity_trial(F, CFG, 0)], None), _inexact("seed", "NoneType", "an int")
    ),
    # a row of a caller's table that is not iterable, which ended in a bare
    # csv.Error, and a report seed that SamplerConfig refuses, which was kept
    "csv_table-row-None": (
        lambda: csv_table(("a",), [("x",), None]), "^rows entry 1 must be an iterable, not NoneType$"
    ),
    "merge_trials-seed-negative": (
        lambda: merge_trials([genericity_trial(F, CFG, 0)], -5), "^seed must be a 64-bit unsigned integer$"
    ),
    "merge_trials-seed-2^64": (
        lambda: merge_trials([genericity_trial(F, CFG, 0)], 2**64),
        "^seed must be a 64-bit unsigned integer$",
    ),
    # a field of the wrong structure, which escaped as a bare AttributeError,
    # TypeError or unpacking error
    "vec-int": (lambda: vec(3), "^vector must be a sequence, not int$"),
    "HPolyhedron-b-int": (
        lambda: HPolyhedron(((1,),), 1, 1), "^right-hand side must be a sequence, not int$"
    ),
    "GeneratedSet-points-None": (
        lambda: GeneratedSet(None, (), 1), "^point list must be a sequence of sequences$"
    ),
    "VPolytope-flat": (lambda: VPolytope((1, 2)), "^vertex list must be a sequence of sequences$"),
    "LinearProgram-constraints-None": (
        lambda: LinearProgram((1,), None), "^constraints must be an HPolyhedron, not NoneType$"
    ),
    "PolyhedralFunction-domain-None": (
        lambda: PolyhedralFunction((), None, 1), "^domain must be an HPolyhedron, not NoneType$"
    ),
    "PolyhedralFunction-piece-unpaired": (
        lambda: PolyhedralFunction(((1,),), P1, 1),
        r"^pieces row 0 must be a \(gradient, offset\) pair$",
    ),
    "LowerC2Instance-g-None": (
        lambda: LowerC2Instance(None, 1), "^g must be a PolyhedralFunction, not NoneType$"
    ),
    "LowerC2Instance-g-int": (
        lambda: LowerC2Instance(5, 1), "^g must be a PolyhedralFunction, not int$"
    ),
    "ProblemFile-pieces-int": (
        lambda: ProblemFile(1, pieces=5),
        r"^pieces must be a sequence of \(gradient, offset\) pairs, not int$",
    ),
    "ProblemFile-constraint-unpaired": (
        lambda: ProblemFile(1, constraints=(((1,),),)),
        r"^constraints row 0 must be a \(normal, bound\) pair$",
    ),
    "ProblemFile-piece-None": (
        lambda: ProblemFile(1, pieces=(None,)), r"^pieces row 0 must be a \(gradient, offset\) pair$"
    ),
    # a rho that serialize would write and parse_problem refuse
    "ProblemFile-rho-negative": (
        lambda: ProblemFile(1, pieces=(((ONE,), ZERO),), rho=-ONE), "^rho must be positive$"
    ),
    "ProblemFile-rho-zero": (lambda: ProblemFile(1, pieces=(), rho=0), "^rho must be positive$"),
    # misshapen inputs that escaped as a bare TypeError, AttributeError or
    # unpacking error, or were read silently (an ncols of True or -1)
    "rank-int": (lambda: rank(5), "^matrix row list must be a sequence of sequences$"),
    "rank-flat": (lambda: rank([5]), "^matrix row list must be a sequence of sequences$"),
    "solve_linear-rhs-int": (
        lambda: solve_linear([(1,)], 5), "^right-hand side must be a sequence, not int$"
    ),
    "solve_linear-ncols-float": (lambda: solve_linear([], [], 1.5), _inexact("ncols", exact="an int")),
    "solve_linear-ncols-bool": (
        lambda: solve_linear([], [], True), _inexact("ncols", "bool", "an int")
    ),
    "solve_linear-ncols-negative": (lambda: solve_linear([], [], -1), "^ncols must be nonnegative$"),
    "build-piece-None": (
        lambda: PolyhedralFunction.build([None], [], [], 1),
        r"^pieces row 0 must be a \(gradient, offset\) pair$",
    ),
    "build-pieces-int": (
        lambda: PolyhedralFunction.build(5, [], [], 1),
        r"^pieces must be a sequence of \(gradient, offset\) pairs, not int$",
    ),
    "max_affine-unpaired": (
        lambda: PolyhedralFunction.max_affine([((1,),)], 1),
        r"^pieces row 0 must be a \(gradient, offset\) pair$",
    ),
    "forced-int": (
        lambda: run_larman(square_vertices(), CFG, 1, forced=5),
        "^forced direction list must be a sequence of sequences$",
    ),
    "format_rational-float": (lambda: format_rational(0.5), _inexact("rational")),
    "parse_rational-int": (lambda: parse_rational(5), "^rational token must be a str, not int$"),
    # documented refusals that no other test reaches
    "PolyhedralFunction-domain-dim": (lambda: PolyhedralFunction((), P1, 2), DimensionMismatchError),
    "VPolytope-empty": (lambda: VPolytope(()), DegeneratePolytopeError),
    "GeneratedSet-empty": (lambda: GeneratedSet((), ((ONE,),), 1), EmptyGeneratedSetError),
    "prune-empty": (lambda: prune(GeneratedSet((), (), 1)), EmptyGeneratedSetError),
    "positive_span_is_subspace-empty": (
        lambda: positive_span_is_subspace(GeneratedSet((), ((ONE,),), 1)), EmptyGeneratedSetError
    ),
    "vsub-length": (lambda: vsub((ONE,), (ONE, ZERO)), DimensionMismatchError),
    "solve_linear-ncols": (lambda: solve_linear([(1, 0)], [1], 3), DimensionMismatchError),
    "kernel-rhs-length": (lambda: solve_standard_form([(ONE,)], [], [ONE]), DimensionMismatchError),
    "kernel-row-width": (
        lambda: solve_standard_form([(ONE, ZERO)], [ONE], [ONE]), DimensionMismatchError
    ),
    # a kernel entry that is not an int or a Fraction, which ended in a bare
    # TypeError or AttributeError, or was read as 1 (True)
    "kernel-None": (
        lambda: solve_standard_form([(ONE, None)], [ONE], [ONE, ONE]),
        _inexact("M row 0 entry 1", "NoneType"),
    ),
    "kernel-float": (lambda: solve_standard_form([(ONE,)], [0.5], [ONE]), _inexact("rhs entry 0")),
    "kernel-str": (
        lambda: solve_standard_form([(ONE, ONE)], [ONE], [ONE, "1/2"]), _inexact("obj entry 1", "str")
    ),
    "kernel-bool": (
        lambda: solve_standard_form([(True,)], [ONE], [ONE]), _inexact("M row 0 entry 0", "bool")
    ),
})


@pytest.mark.parametrize("call,expected", REFUSALS.values(), ids=REFUSALS.keys())
def test_an_inexact_or_misshapen_input_is_refused_naming_the_field(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        with pytest.raises(ValueError, match=expected):
            call()


# A valid call of every callable that ``nondegen`` re-exports, on tiny
# instances, as (callable, positional arguments); the fuzz gate below mutates
# one argument, or one entry inside it, at a time.
HALF = Q(1, 2)
ABS = abs_function()
BOX_ROWS = ((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE))
S2 = GeneratedSet(((ONE, ZERO), (ZERO, ONE)), ((ONE, ONE),), 2)
SQUARE = square_vertices()
LP2 = LinearProgram((ONE, ZERO), F.domain)
PF = ProblemFile(1, (((ONE,), ZERO), ((-ONE,), ZERO)), (((ONE,), ONE),), None, ONE)
VALID_CALLS = {
    "format_rational": (format_rational, (HALF,)),
    "parse_rational": (parse_rational, ("1/2",)),
    "rank": (rank, (BOX_ROWS,)),
    "solve_linear": (solve_linear, (BOX_ROWS[:2], (ONE, HALF), 2)),
    "HPolyhedron": (HPolyhedron, (BOX_ROWS, (ONE, ONE, ONE, ONE), 2)),
    "LinearProgram": (LinearProgram, ((ONE, ZERO), F.domain)),
    "feasible_point": (feasible_point, (F.domain,)),
    "solve_lp": (solve_lp, (LP2,)),
    "GeneratedSet": (GeneratedSet, (((ONE, ZERO), (ZERO, ONE)), ((ONE, ONE),), 2)),
    "VPolytope": (VPolytope, (((ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)),)),
    "exposed_face": (exposed_face, (SQUARE, (ONE, HALF))),
    "member": (member, (S2, (ONE, HALF))),
    "positive_span_is_subspace": (positive_span_is_subspace, (S2,)),
    "prune": (prune, (S2,)),
    "ri_membership": (ri_membership, (S2, (ONE, HALF))),
    "translate": (translate, (S2, (ONE, HALF))),
    "PolyhedralFunction": (PolyhedralFunction, ((((ONE,), ZERO), ((-ONE,), ZERO)), P1, 1)),
    "argmin_face": (argmin_face, (ABS, (HALF,), ZERO)),
    "canonical_minimizer": (canonical_minimizer, (F, (ONE, HALF))),
    "certify": (certify, (F, (ONE, ONE), (ONE, ONE))),
    "evaluate": (evaluate, (ABS, (-HALF,))),
    "minimize_perturbed": (minimize_perturbed, (F, (ONE, HALF))),
    "strict_complementarity": (strict_complementarity, (LP2, (ONE, ZERO))),
    "subdifferential": (subdifferential, (F, (ONE, ZERO))),
    "LowerC2Instance": (LowerC2Instance, (ABS, HALF)),
    "find_critical_points": (find_critical_points, (INST, (HALF, ZERO))),
    "minty_transport": (minty_transport, (INST, (2 * ONE, HALF))),
    "prox": (prox, (ABS, (2 * ONE,))),
    "SamplerConfig": (SamplerConfig, (1, 8, ONE)),
    "SplitMix64": (SplitMix64, (1,)),
    "sample_objective": (sample_objective, (CFG, 0, 2)),
    "genericity_trial": (genericity_trial, (F, CFG, 0)),
    "run_genericity": (run_genericity, (F, CFG, 1)),
    "merge_trials": (merge_trials, ((genericity_trial(F, CFG, 0),), 1)),
    "report_to_csv": (report_to_csv, (run_genericity(F, CFG, 1),)),
    "run_larman": (run_larman, (SQUARE, CFG, 1, ((ONE, HALF),))),
    "larman_to_csv": (larman_to_csv, (run_larman(SQUARE, CFG, 1),)),
    "csv_table": (csv_table, (("a", "b"), (("x", ONE), ("y", HALF)))),
    "construct_degenerate": (construct_degenerate, (ABS,)),
    "ProblemFile": (ProblemFile, (1, (((ONE,), ZERO),), (((ONE,), ONE),), None, ONE)),
    "parse_problem": (parse_problem, (serialize(PF),)),
    "serialize": (serialize, (PF,)),
}
# the re-exported callables that are not entry points: the exact number type,
# the annotations, and the types of the library's own results and errors
NOT_ENTRY_POINTS = {
    "Q", "Rat", "Vec", "Mat", "AdversarialReport", "Boundary", "DegenerateCritical", "ExperimentReport",
    "Inconsistent", "Infeasible", "Interior", "LarmanReport", "Minimizer", "Nondegenerate", "NotCritical",
    "Optimal", "Outside", "Point", "TrialRecord", "Unbounded", "Underdetermined", "UniqueSolution", "Witness",
}


def _sites(value, path, depth=3):
    """``path`` to ``value`` and to each entry inside it, down to ``depth``
    levels of sequences (a vector, a row, a piece's gradient)."""
    yield path, value
    if depth and isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _sites(item, (*path, i), depth - 1)


def _mutants(value):
    """The wrong values for one site; a count is only ever made negative."""
    out = [True, 1.5, "1", None, object()]
    if isinstance(value, (tuple, list)) and value:
        out.append(value[:-1])  # the wrong length
        if all(isinstance(row, (tuple, list)) and row for row in value):
            out.append((value[0][:-1], *value[1:]))  # a ragged row
    if type(value) is int:
        out.append(-1)
    return out


def _replaced(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return tuple(items)


def test_the_fuzz_gate_calls_every_entry_point():
    public = {name: getattr(nondegen, name) for name in dir(nondegen) if not name.startswith("_")}
    calls = {name for name, obj in public.items() if callable(obj)}
    errors = {name for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert set(VALID_CALLS) == calls - errors - NOT_ENTRY_POINTS
    for fn, args in VALID_CALLS.values():
        fn(*args)


@given(st.data())
@settings(derandomize=True, deadline=None, max_examples=500)
def test_a_mutated_argument_raises_only_a_documented_error(data):
    """ROADMAP R's gate: with one argument of a valid call, or one entry of
    a vector or row inside it, made a bool, a float, a string, None, an
    object of no library type, a ragged row, the wrong length or a negative
    size, an entry point returns or raises ``ValueError`` or a documented
    ``NondegenError``, never ``InternalError``, ``TypeError``,
    ``AttributeError`` or ``IndexError``."""
    name = data.draw(st.sampled_from(sorted(VALID_CALLS)))
    fn, args = VALID_CALLS[name]
    path, value = data.draw(st.sampled_from([s for i, a in enumerate(args) for s in _sites(a, (i,))]))
    new = data.draw(st.sampled_from(_mutants(value)))
    try:
        fn(*_replaced(args, path, new))
    except InternalError:
        raise
    except (ValueError, NondegenError):
        pass


# each dataclass that holds a caller's rows, built from lists and ints, and its
# twin built from tuples of Fractions
TWINS = {
    "HPolyhedron": (
        lambda: HPolyhedron([[1, 0]], [1], 2), lambda: HPolyhedron(((ONE, ZERO),), (ONE,), 2)
    ),
    "LinearProgram": (
        lambda: LinearProgram([0, 1], HPolyhedron([[1, 0]], [1], 2)),
        lambda: LinearProgram((ZERO, ONE), HPolyhedron(((ONE, ZERO),), (ONE,), 2)),
    ),
    "GeneratedSet": (
        lambda: GeneratedSet([[0, 1]], [[1, 0]], 2), lambda: GeneratedSet(((ZERO, ONE),), ((ONE, ZERO),), 2)
    ),
    "VPolytope": (
        lambda: VPolytope([[0, 0], [1, 0]]), lambda: VPolytope(((ZERO, ZERO), (ONE, ZERO)))
    ),
    "PolyhedralFunction": (
        lambda: PolyhedralFunction([[[1, 0], 2]], HPolyhedron([[1, 0]], [1], 2), 2),
        lambda: PolyhedralFunction((((ONE, ZERO), 2 * ONE),), HPolyhedron(((ONE, ZERO),), (ONE,), 2), 2),
    ),
    # pieces read once: from an iterator, the second pass saw none
    "PolyhedralFunction-iterator": (
        lambda: PolyhedralFunction(iter([((1,), 0), ((2,), 1)]), HPolyhedron([[1]], [1], 1), 1),
        lambda: PolyhedralFunction((((ONE,), ZERO), ((2 * ONE,), ONE)), HPolyhedron(((ONE,),), (ONE,), 1), 1),
    ),
    "ProblemFile": (
        lambda: ProblemFile(2, pieces=[[[1, 0], 2]], constraints=[[[0, 1], 1]], vertices=[[0, 1]], rho=HALF),
        lambda: ProblemFile(
            2, (((ONE, ZERO), 2 * ONE),), (((ZERO, ONE), ONE),), ((ZERO, ONE),), HALF
        ),
    ),
}


@pytest.mark.parametrize("lists,tuples", TWINS.values(), ids=TWINS.keys())
def test_a_dataclass_built_from_lists_stores_its_twins_tuples(lists, tuples):
    a, b = lists(), tuples()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_larman_runs_on_a_vpolytope_built_from_lists():
    F = VPolytope([[0, 0], [1, 0], [0, 1]])
    G = VPolytope(((ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)))
    assert edge_direction(F) == edge_direction(G)
    assert run_larman(F, CFG, 20, forced=[[1, 1]]) == run_larman(G, CFG, 20, forced=[(ONE, ONE)])


def test_vec_keeps_each_fraction_and_converts_each_int():
    half = ONE / 2
    out = vec((half, 3))
    assert out[0] is half and type(out[1]) is type(ONE) and out == (half, 3)


def test_a_type_error_raised_while_iterating_is_not_taken_for_a_wrong_object():
    """Only a ``values`` that is not iterable is refused by name; a bug that
    raises ``TypeError`` inside an iteration keeps its own message."""
    def entries():
        yield ONE
        raise TypeError("raised by the iteration")

    with pytest.raises(TypeError, match="^raised by the iteration$"):
        vec(entries())


def test_the_readme_library_block_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["m"] == Minimizer((1, 1), -2)
    assert isinstance(scope["result"], Nondegenerate)
    assert scope["result"].constraint_multipliers == (1, 1, 0, 0)
