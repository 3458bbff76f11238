"""End-to-end acceptance suite.

Each criterion prints exactly one verdict line (PASS/FAIL with a short
detail) on the real stderr stream, then asserts.  All comparisons are exact
rational equality; the only tolerance anywhere is the 60-second wall-clock
bound on the genericity suite.
"""

import hashlib
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import rand_hpoly, rand_polyfun, rand_genset, rand_vec, feasible_points_of, vscale
from nondegen.experiments import (
    SamplerConfig,
    construct_degenerate,
    genericity_trial,
    larman_to_csv,
    merge_trials,
    report_to_csv,
    run_genericity,
    run_larman,
)
from nondegen.functions import (
    DegenerateCritical,
    Nondegenerate,
    PolyhedralFunction,
    certify,
    strict_complementarity,
    subdifferential,
)
from nondegen.gallery import (
    abs_function,
    box_indicator,
    cube_vertices,
    edge_direction,
    point_indicator,
    pyramid_indicator,
    random_polytope,
    random_vpolytope,
    simplex_indicator,
    square_vertices,
)
from nondegen.geometry import (
    Boundary,
    Interior,
    Outside,
    member,
    positive_span_is_subspace,
    ri_membership,
    translate,
)
from nondegen.linalg import Q, vsub
from nondegen.proximal import LowerC2Instance, minty_transport, prox
from nondegen.simplex import LinearProgram, Optimal, Unbounded, solve_lp
from oracles import lp_enum_oracle, ri_status_oracle

CFG = SamplerConfig(seed=42)

GENERICITY_INSTANCES = [
    ("box2", box_indicator(2)),
    ("box3", box_indicator(3)),
    ("box5", box_indicator(5)),
    ("simplex3", simplex_indicator(3)),
    ("pyramid", pyramid_indicator()),
    ("abs", abs_function()),
    ("random101", PolyhedralFunction.indicator(random_polytope(101, 3, 8))),
    ("random202", PolyhedralFunction.indicator(random_polytope(202, 3, 8))),
    ("random303", PolyhedralFunction.indicator(random_polytope(303, 3, 8))),
]

LARMAN_INSTANCES = [
    ("square", square_vertices(), (1, 0)),
    ("cube", cube_vertices(), (1, 0, 0)),
    ("random10", random_vpolytope(7, 3, 10), None),  # None: use an edge direction
]


@pytest.fixture(scope="module")
def genericity_reports():
    """Criterion 1's reports by label, and the seconds it took to build them
    (each report and its CSV); criterion 8 reruns against the same CSVs."""
    start = time.perf_counter()
    reports = {}
    for label, f in GENERICITY_INSTANCES:
        report = run_genericity(f, CFG, 1000)
        reports[label] = (report, report_to_csv(report))
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def larman_reports():
    """Criterion 7's reports by label; criterion 8 reruns against their CSVs."""
    reports = {}
    for label, F, forced_c in LARMAN_INSTANCES:
        forced = [forced_c if forced_c is not None else edge_direction(F)]
        report = run_larman(F, CFG, 1000, forced=forced)
        reports[label] = (report, larman_to_csv(report))
    return reports


def _verdict(capfd, num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    # print outside pytest's fd capture so the verdict reaches the terminal
    with capfd.disabled():
        print(f"[criterion {num}] {status}: {title}{tail}", file=sys.stderr)
    assert ok, f"criterion {num} failed: {title}{tail}"


def _small_polyfun(rng: random.Random, dim: int, max_generators: int = 6):
    while True:
        g = rand_polyfun(rng, dim)
        if len(g.pieces) + g.domain.m <= max_generators:
            return g


def test_criterion_1_genericity_suite(capfd, genericity_reports):
    reports, elapsed = genericity_reports
    bad = []
    for label, _ in GENERICITY_INSTANCES:
        report = reports[label][0]
        if report.degenerate or report.non_unique:
            for r in report.records:
                if r.outcome in ("degenerate", "non_unique"):
                    bad.append(f"{label} trial {r.trial_index} v={r.v}")
    ok = not bad and elapsed < 60.0
    detail = f"9 instances x 1000 trials, 0 degenerate/non-unique, {elapsed:.1f}s"
    if bad:
        detail = "; ".join(bad[:3])
    _verdict(capfd, 1, "random tilts are unique and nondegenerate", ok, detail)


def test_criterion_1_csvs_match_the_golden_digests(genericity_reports):
    """The criterion-1 CSVs are byte-identical to the golden copies, pinned
    by their SHA-256 in ``golden_csv_sha256.json``."""
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    digests = {
        label: hashlib.sha256(csv.encode()).hexdigest()
        for label, (_, csv) in genericity_reports[0].items()
    }
    assert digests == golden["genericity_seed42_1000"]


def test_criterion_2_adversarial_suite(capfd):
    failures = []
    total = 0
    for label, f in GENERICITY_INSTANCES:
        report = construct_degenerate(f)
        if not report.pairs:
            failures.append(f"{label}: no pair emitted")
            continue
        total += len(report.pairs)
        for v, x in report.pairs:
            if not isinstance(certify(f, v, x), DegenerateCritical):
                failures.append(f"{label}: pair {v} at {x} did not re-certify")
    empty = construct_degenerate(point_indicator(2))
    if empty.pairs != ():
        failures.append("point indicator emitted pairs")
    ok = not failures
    detail = f"{total} pairs across 9 instances all DegenerateCritical; point indicator empty"
    if failures:
        detail = "; ".join(failures[:3])
    _verdict(capfd, 2, "constructed degenerate tilts re-certify", ok, detail)


def test_criterion_3_characterization_equivalence(capfd):
    rng = random.Random(3042)
    disagreements = 0
    checked = 0
    while checked < 200:
        dim = rng.randint(1, 3)
        f = rand_polyfun(rng, dim)
        v = rand_vec(rng, dim)
        points = feasible_points_of(f, rng, count=1)
        if not points:
            continue
        x_bar = points[0]
        checked += 1
        nondeg = isinstance(certify(f, v, x_bar), Nondegenerate)
        spans = positive_span_is_subspace(translate(subdifferential(f, x_bar), v))
        if nondeg != spans:
            disagreements += 1
        if not f.pieces:
            res = solve_lp(LinearProgram(v, f.domain))
            if isinstance(res, Optimal):
                sc = strict_complementarity(LinearProgram(v, f.domain), res.x)
                if (sc is not None) != isinstance(certify(f, v, res.x), Nondegenerate):
                    disagreements += 1
    ok = disagreements == 0
    _verdict(
        capfd,
        3,
        "certify == positive-span test == strict complementarity",
        ok,
        f"200 triples, {disagreements} disagreements",
    )


def test_criterion_4_oracle_equivalence(capfd):
    rng = random.Random(4042)
    ri_mismatches = 0
    for _ in range(500):
        dim = rng.randint(1, 3)
        S = rand_genset(rng, dim)
        y = rand_vec(rng, dim)
        got = ri_membership(S, y)
        kind = {Interior: "interior", Boundary: "boundary", Outside: "outside"}[type(got)]
        expected = ri_status_oracle(S.points, S.rays, dim, y)
        if kind != expected:
            ri_mismatches += 1
    lp_mismatches = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        P = rand_hpoly(rng, dim, rng.randint(1, 8))
        v = rand_vec(rng, dim)
        res = solve_lp(LinearProgram(v, P))
        kind, value = lp_enum_oracle(v, P.A, P.b, dim)
        if isinstance(res, Optimal):
            if kind != "optimal" or res.value != value:
                lp_mismatches += 1
        elif isinstance(res, Unbounded):
            if kind != "unbounded":
                lp_mismatches += 1
        else:
            if kind != "infeasible":
                lp_mismatches += 1
    ok = ri_mismatches == 0 and lp_mismatches == 0
    _verdict(
        capfd,
        4,
        "ri_membership and solve_lp match the enumeration oracles",
        ok,
        f"500 sets + 200 LPs, {ri_mismatches}+{lp_mismatches} mismatches",
    )


def test_criterion_5_minty_suite(capfd):
    rng = random.Random(5042)
    violations = 0
    for _ in range(300):
        dim = rng.randint(1, 2)
        g = _small_polyfun(rng, dim)
        c1 = rand_vec(rng, dim)
        c2 = rand_vec(rng, dim)
        x1 = prox(g, c1)
        x2 = prox(g, c2)
        lhs = sum(a * a for a in vsub(x1, x2))
        rhs = sum(a * a for a in vsub(c1, c2))
        if lhs > rhs:
            violations += 1
        if not member(subdifferential(g, x1), vsub(c1, x1)):
            violations += 1
        if not member(subdifferential(g, x2), vsub(c2, x2)):
            violations += 1
    ok = violations == 0
    _verdict(
        capfd,
        5,
        "prox is 1-Lipschitz and first-order optimal",
        ok,
        f"300 pairs, {violations} violations",
    )


def test_criterion_6_transport_suite(capfd):
    rng = random.Random(6042)
    violations = 0
    for _ in range(300):
        dim = rng.randint(1, 2)
        g = _small_polyfun(rng, dim)
        rho = Q(rng.randint(1, 4), rng.randint(1, 2))
        inst = LowerC2Instance(g, rho)
        c = rand_vec(rng, dim)
        x, h = minty_transport(inst, c)
        S = subdifferential(g, x)
        if not member(translate(S, vscale(rho, x)), h):
            violations += 1
        before = ri_membership(translate(S, vscale(Q(-1), x)), c)
        after = ri_membership(translate(S, vscale(rho, x)), h)
        if type(before) is not type(after):
            violations += 1
    ok = violations == 0
    _verdict(
        capfd,
        6,
        "transport lands subgradients and preserves boundary status",
        ok,
        f"300 instances, {violations} violations",
    )


def test_criterion_7_larman_suite(capfd, larman_reports):
    failures = []
    for label, _, _ in LARMAN_INSTANCES:
        report = larman_reports[label][0]
        if report.multi_vertex_faces != 0:
            failures.append(f"{label}: {report.multi_vertex_faces} sampled multi-vertex faces")
        if report.forced[0].distinct_vertices < 2:
            failures.append(f"{label}: forced direction exposed a single vertex")
    ok = not failures
    detail = "3 polytopes x 1000 directions, 0 multi-vertex; all forced directions multi"
    if failures:
        detail = "; ".join(failures)
    _verdict(capfd, 7, "sampled directions expose single vertices", ok, detail)


def test_criterion_7_csvs_match_the_golden_digests(larman_reports):
    """The criterion-7 CSVs, forced directions included, are byte-identical
    to the golden copies, pinned by their SHA-256 in ``golden_csv_sha256.json``."""
    golden = json.loads(Path(__file__).with_name("golden_csv_sha256.json").read_text())
    digests = {
        label: hashlib.sha256(csv.encode()).hexdigest()
        for label, (_, csv) in larman_reports.items()
    }
    assert digests == golden["larman_seed42_1000"]


def test_criterion_8_byte_identical_reruns(capfd, genericity_reports, larman_reports):
    mismatches = []
    for label, f in GENERICITY_INSTANCES:
        expected = genericity_reports[0][label][1]
        rerun = report_to_csv(run_genericity(f, CFG, 1000))
        if rerun != expected:
            mismatches.append(f"{label}: sequential rerun differs")
        order = list(range(1000))
        random.Random(8).shuffle(order)
        with ThreadPoolExecutor(max_workers=4) as pool:
            records = list(pool.map(lambda i, f=f: genericity_trial(f, CFG, i), order))
        parallel = report_to_csv(merge_trials(records, CFG.seed))
        if parallel != expected:
            mismatches.append(f"{label}: parallel rerun differs")
    for label, F, forced_c in LARMAN_INSTANCES:
        forced = [forced_c if forced_c is not None else edge_direction(F)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_larman, F, CFG, 1000, forced) for _ in range(2)]
            reruns = [larman_to_csv(fut.result()) for fut in futures]
        if any(r != larman_reports[label][1] for r in reruns):
            mismatches.append(f"{label}: larman rerun differs")
    ok = not mismatches
    detail = "criteria 1 and 7 reproduce byte-identically, sequential and parallel"
    if mismatches:
        detail = "; ".join(mismatches[:3])
    _verdict(capfd, 8, "CSV reports are deterministic", ok, detail)
