"""Seeded experiments: genericity sampling, adversarial instances, exposed faces.

The genericity harness samples tilt vectors ``v`` from a documented reference
PRNG (SplitMix64), minimizes the tilted function exactly, and reads the trial
off ``∂f(x̄)`` at the minimizer: unique iff ``v ∈ int ∂f(x̄)``, nondegenerate
iff ``v ∈ ri ∂f(x̄)`` — so a unique minimizer is never degenerate, and the
``degenerate`` tally is 0 by structure.  Non-unique tilts form a Lebesgue-null
set, so sampled rationals of generous bit-width should essentially never land
on it — but rationals are countable, so hits are *reported* (with the
offending ``v`` verbatim), never silently impossible.

``construct_degenerate`` deliberately manufactures tilts on ``rb ∂f(x̄)``;
``run_larman`` is the polytope face of the same story: a sampled direction
exposing two or more vertices lies on the shared boundary of two
full-dimensional vertex normal cones.

Each trial reads one PRNG stream, :func:`_draws` of (seed, trial index), so any
execution order — including concurrent — produces bit-identical reports.  Every
report is written by :func:`csv_table`, with vectors joined by :func:`_join_vec`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    DegeneratePolytopeError, EnumerationBoundError, InfeasibleDomainError, InternalError
)
from .functions import (
    DEGENERATE_CRITICAL,
    Minimizer,
    Nondegenerate,
    PolyhedralFunction,
    _active_structure,
    _read_off,
    certify,
    minimize_perturbed,
    subdifferential,
)
from .geometry import (
    VPolytope,
    exposed_face,
    positive_span_is_subspace,
    translate,
)
from .linalg import (
    ONE,
    Q,
    Rat,
    Vec,
    _bareiss_pivot,
    _exact,
    _iterable,
    _of_type,
    _ratio,
    _sequence,
    _size,
    format_rational,
    mat,
    rank,
)
from .proximal import _check_bound, _raise_if_infeasible
from .simplex import Infeasible, Unbounded

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Reference 64-bit PRNG (SplitMix64): tiny, splittable, well documented.
    Any ``int`` seeds it, masked to 64 bits; anything else raises ``ValueError``."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = _exact(seed, "seed", fraction_ok=False) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64


def _seed(seed: int) -> None:
    """``ValueError`` unless ``seed`` is an ``int`` in ``[0, 2^64)``: the one seed rule,
    of a ``SamplerConfig`` and of the report that :func:`merge_trials` builds."""
    if not 0 <= _exact(seed, "seed", fraction_ok=False) <= MASK64:
        raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    bits: int = 64
    box_radius: Rat = ONE

    def __post_init__(self):
        _seed(self.seed)
        _exact(self.bits, "bits", fraction_ok=False)
        _exact(self.box_radius, "box_radius")
        if not (8 <= self.bits <= 64):
            raise ValueError("bits must be between 8 and 64 (SplitMix64 draws 64 bits)")
        if not self.box_radius > 0:
            raise ValueError("box_radius must be positive")


def _stream_vector(stream: SplitMix64, cfg: SamplerConfig, dim: int) -> Vec:
    """One random vector: each coordinate is a signed bits-wide numerator over
    a positive bits-wide denominator, scaled into [-box_radius, box_radius]."""
    mask = (1 << cfg.bits) - 1
    half = 1 << (cfg.bits - 1)
    r = cfg.box_radius
    coords = []
    for _ in range(dim):
        num = (stream.next_u64() & mask) - half
        den = (stream.next_u64() & mask) + 1
        coords.append(Q(r.numerator * num, r.denominator * den * half))
    return tuple(coords)


def _draws(cfg: SamplerConfig, trial_index: int, dim: int) -> Iterator[Vec]:
    """The vectors of the stream ``SplitMix64(cfg.seed ^ trial_index)``, in order; a ``cfg``
    not a ``SamplerConfig``, a ``dim`` not an ``int`` >= 1 or a ``trial_index`` not an ``int``
    in ``[0, 2^64)`` (``2^64`` would repeat trial 0's seed) raises ``ValueError``."""
    _of_type(cfg, SamplerConfig, "cfg")
    if _exact(trial_index, "trial_index", fraction_ok=False) < 0:
        raise ValueError("trial_index must be nonnegative")
    if trial_index > MASK64:
        raise ValueError("trial_index must be below 2^64")
    _size(dim, "dim")
    stream = SplitMix64(cfg.seed ^ trial_index)
    return iter(lambda: _stream_vector(stream, cfg, dim), None)  # never None: endless


def sample_objective(cfg: SamplerConfig, trial_index: int, dim: int) -> Vec:
    """Deterministic tilt vector for (seed, trial_index): the first of :func:`_draws`."""
    return next(_draws(cfg, trial_index, dim))


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial_index: int
    v: Vec
    outcome: str  # nondegenerate | degenerate | non_unique | unbounded
    minimizer: Optional[Vec]
    min_witness_coeff: Optional[Rat]


@dataclass(frozen=True)
class ExperimentReport:
    trials: int
    unique_nondegenerate: int
    degenerate: int
    non_unique: int
    unbounded: int
    seed: int
    records: Tuple[TrialRecord, ...]


def _optimal_face_is_point(f: PolyhedralFunction, v: Vec, x_bar: Vec) -> bool:
    """Exact uniqueness of the minimizer ``x_bar`` of ``f - <v, .>``.

    The minimizer is unique iff ``v`` is interior to the subdifferential at
    ``x_bar``, i.e. ``0 in int S`` for ``S = subdifferential - v``: the
    generators of ``S`` have full rank and their positive span is a subspace.
    """
    S = translate(subdifferential(f, x_bar), v)
    return rank(S.points + S.rays) == f.dim and positive_span_is_subspace(S)


def genericity_trial(f: PolyhedralFunction, cfg: SamplerConfig, trial_index: int) -> TrialRecord:
    """Sample, minimize, test uniqueness, certify — one classified trial.
    ``f`` is checked here, since ``f.dim`` is read first; ``cfg`` by
    :func:`sample_objective`."""
    _of_type(f, PolyhedralFunction, "f")
    v = sample_objective(cfg, trial_index, f.dim)
    res = minimize_perturbed(f, v)
    if isinstance(res, Infeasible):
        raise InfeasibleDomainError(res.farkas)
    if isinstance(res, Unbounded):
        return TrialRecord(trial_index, v, "unbounded", None, None)
    assert isinstance(res, Minimizer)
    if not _optimal_face_is_point(f, v, res.x):
        return TrialRecord(trial_index, v, "non_unique", res.x, None)
    # A unique minimizer puts v in the interior of the subdifferential, so
    # anything but Nondegenerate here is a bug, never a degenerate trial.
    cert = certify(f, v, res.x)
    if not isinstance(cert, Nondegenerate):
        raise InternalError("tilt is not interior to the subdifferential at a unique minimizer")
    return TrialRecord(trial_index, v, "nondegenerate", res.x, min(cert.witness))


def merge_trials(records: Iterable[TrialRecord], seed: int) -> ExperimentReport:
    """Order-independent reduction: sort by trial index, then tally.  A
    ``records`` that is not iterable, an entry that is not a ``TrialRecord``
    or repeats a ``trial_index``, or a ``seed`` that :func:`_seed` refuses
    raises ``ValueError`` naming it."""
    records = _sequence(records, "records", "an iterable of TrialRecords")
    _seed(seed)
    seen = set()
    for i, r in enumerate(records):
        if _of_type(r, TrialRecord, f"records entry {i}").trial_index in seen:
            raise ValueError(f"records entry {i} repeats trial_index {r.trial_index}")
        seen.add(r.trial_index)
    ordered = tuple(sorted(records, key=lambda r: r.trial_index))
    counts = {"nondegenerate": 0, "degenerate": 0, "non_unique": 0, "unbounded": 0}
    for r in ordered:
        counts[r.outcome] += 1
    return ExperimentReport(
        trials=len(ordered),
        unique_nondegenerate=counts["nondegenerate"],
        degenerate=counts["degenerate"],
        non_unique=counts["non_unique"],
        unbounded=counts["unbounded"],
        seed=seed,
        records=ordered,
    )


def _check_trials(trials: int) -> None:
    """Refuse a trial count that is not a nonnegative ``int``."""
    _exact(trials, "trials", fraction_ok=False)
    if trials < 0:
        raise ValueError("trials must be nonnegative")


def run_genericity(f: PolyhedralFunction, cfg: SamplerConfig, trials: int) -> ExperimentReport:
    _of_type(f, PolyhedralFunction, "f")
    _of_type(cfg, SamplerConfig, "cfg")
    _check_trials(trials)
    return merge_trials(
        (genericity_trial(f, cfg, i) for i in range(trials)), cfg.seed
    )


CSV_FIELDS = ("trial_index", "v", "outcome", "minimizer", "min_witness_coeff")


def _join_vec(x: Optional[Vec]) -> str:
    """A vector as one CSV cell: exact rationals joined by ``;``, empty for None."""
    if x is None:
        return ""
    return ";".join(format_rational(c) for c in x)


def csv_table(fields: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The report format: a header row, then one row per record, Unix line ends.
    A ``fields``, ``rows`` or row that is not iterable raises ``ValueError`` naming
    it (row ``i`` as ``rows entry i``); ``rows`` is written as it is iterated, never
    held whole."""
    fields = _sequence(fields, "fields")
    rows = _iterable(rows, "rows", "an iterable of rows")
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(fields)
    w.writerows(_iterable(row, f"rows entry {i}", "an iterable") for i, row in enumerate(rows))
    return out.getvalue()


def report_to_csv(report: ExperimentReport) -> str:
    _of_type(report, ExperimentReport, "report", "an")
    return csv_table(
        CSV_FIELDS,
        (
            [
                r.trial_index,
                _join_vec(r.v),
                r.outcome,
                _join_vec(r.minimizer),
                "" if r.min_witness_coeff is None else format_rational(r.min_witness_coeff),
            ]
            for r in report.records
        ),
    )


# ---------------------------------------------------------------------------
# adversarial construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AdversarialReport:
    pairs: Tuple[Tuple[Vec, Vec], ...]  # (v, x_bar) with v on rb of the subdifferential
    status: str


def _candidate_points(f: PolyhedralFunction) -> List[Vec]:
    """Domain points where the subdifferential can have a relative boundary:
    solutions of small subsets of the constraint/tie hyperplane arrangement
    (vertices, edge points, piece-tie points), sorted.

    Every plane is an integer row kept by ``f``: the domain rows are
    :attr:`~nondegen.simplex.HPolyhedron.integer_rows`, and the tie
    ``<c_j - c_l, x> = d_l - d_j`` of pieces ``j < l`` is the difference
    ``(*(C_j - C_l), E_l - E_j)`` of two rows of
    :attr:`~nondegen.functions.PolyhedralFunction.integer_terms`, whose scale
    ``L`` is common.  The subsets of at most ``dim`` planes are walked depth
    first in lexicographic order, so a subset extends its parent by one
    later plane and inherits the parent's fraction-free Gauss-Jordan rows:
    each pivot row ``X_i`` is ``d`` times a row of the reduced row echelon
    form, ``d`` on its pivot column ``c_i``.  The new plane ``r`` is reduced
    to ``d·r - Σ r[c_i]·X_i``, and one
    :func:`~nondegen.linalg._bareiss_pivot` on it updates the parent's rows
    (Bareiss's exact division).  A reduced row that is zero left of the
    right-hand side ends its branch: with a nonzero right-hand side the
    subset is inconsistent and so is every superset, and with a zero one
    the plane is redundant, its subset has its parent's point, and each of
    its supersets has the point of the same superset without it, which the
    walk reaches.  A reduced row echelon form is unique, so each subset's
    point is the one ``_eliminate`` and ``solve_linear`` give (free
    coordinates 0): integers ``X`` over the last pivot ``d``.  With ``d > 0``
    and ``gcd(d, *X) = 1`` that pair is the point's one exact form, so each
    distinct point is tested against the domain once, by
    :meth:`~nondegen.simplex.HPolyhedron._scan`, and ``Fraction``
    coordinates are built only for the points inside.
    """
    n = f.dim
    # a function without pieces has one term and so no ties
    terms = f.integer_terms[0]
    ties = [
        (*[a - b for a, b in zip(tj[:n], tl)], tl[n] - tj[n])
        for j, tj in enumerate(terms)
        for tl in terms[j + 1 :]
    ]
    planes = [*f.domain.integer_rows, *ties]
    inside = {}  # (d, *X) in lowest terms -> in the domain

    def visit(rows: List[list], pivots: List[int], d: int, start: int) -> None:
        X = [0] * n
        for row, c in zip(rows, pivots):
            X[c] = row[n]
        g = gcd(d, *X) if d > 0 else -gcd(d, *X)
        point = (d // g, *[x // g for x in X])
        if point not in inside:
            inside[point] = f.domain._scan(point[1:], point[0])[0] is None
        if len(pivots) == n:
            return
        for i in range(start, len(planes)):
            r = planes[i]
            red = [d * a for a in r]
            for row, c in zip(rows, pivots):
                if r[c]:
                    red = [a - r[c] * b for a, b in zip(red, row)]
            c = next((j for j in range(n) if red[j]), None)
            if c is not None:
                M = [*rows, red]
                visit(M, [*pivots, c], _bareiss_pivot(M, len(rows), c, d), i + 1)

    visit([], [], 1, 0)
    return sorted(
        tuple(_ratio(x, d) for x in X) for (d, *X), ok in inside.items() if ok
    )


def construct_degenerate(f: PolyhedralFunction) -> AdversarialReport:
    """Exhibit pairs (v, x_bar) with v on the relative boundary of the
    subdifferential at x_bar — the Lebesgue-null set the genericity theorem
    is about.  Every emitted pair certifies DegenerateCritical.

    At each candidate point the generators of ``S = ∂f(x)`` are tried as
    given, rays first, and the first one on the relative boundary of ``S``
    yields the point's pair.  Every verdict comes from
    :mod:`~nondegen.functions`: it is read off the generator's multipliers
    over the generators (:func:`~nondegen.functions._read_off`, one integer
    elimination per generator), and only when those generators are
    linearly dependent does :func:`certify` run its LP.  A ray need not
    lie on the boundary: with the point 0 in ``S``, the ray ``a`` is
    ``1·0 + 1·a``, which can be interior.  An affine subdifferential has no
    relative boundary; any other has a generator on it, so such a point
    yields one pair.  Candidate points are domain points, so
    :func:`feasible_point` runs only when there is none, to raise
    ``InfeasibleDomainError`` with its Farkas vector.

    The candidate points come from a hyperplane-arrangement enumeration on
    integer rows (:func:`_candidate_points`): cheap per subset, but the
    number of subsets is exponential in the planes, so it obeys the
    enumeration bound ``B`` of :func:`prox` (``$GENERIC_NONDEGEN_ENUM_BOUND``,
    default 20).  ``EnumerationBoundError`` refuses, before any subset is
    eliminated, more than ``B`` pieces plus constraints, and more than ``2^B``
    subsets ``sum_{s <= min(n, p)} C(p, s)`` of the ``p = m + C(k, 2)``
    planes: the ``m`` domain rows and one tie per pair of the ``k`` terms.
    ``2^B`` is the most supports the bound lets :func:`prox` try.
    """
    limit = _check_bound(f)
    p = f.domain.m + comb(len(f.terms), 2)
    count = sum(comb(p, s) for s in range(min(f.dim, p) + 1))
    if (count - 1).bit_length() > limit:  # count > 2^limit, without building 2^limit
        raise EnumerationBoundError(count, limit, subsets=True)
    points = _candidate_points(f)
    if not points:
        _raise_if_infeasible(f)
    pairs: List[Tuple[Vec, Vec]] = []
    for x in points:
        active = _active_structure(f, x)
        for v in active[1] + active[0]:
            if (_read_off(f, v, active) or certify(f, v, x)) is DEGENERATE_CRITICAL:
                pairs.append((v, x))
                break
    if pairs:
        return AdversarialReport(tuple(pairs), "ok")
    return AdversarialReport(
        (), "no candidate point has a subdifferential with nonempty relative boundary"
    )


# ---------------------------------------------------------------------------
# exposed-face sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LarmanTrial:
    label: str  # trial index, or F<k> for injected directions
    c: Vec
    face_indices: Tuple[int, ...]
    distinct_vertices: int


@dataclass(frozen=True)
class LarmanReport:
    trials: int
    singleton_faces: int
    multi_vertex_faces: int
    seed: int
    records: Tuple[LarmanTrial, ...]
    forced: Tuple[LarmanTrial, ...]


def _larman_trial(F: VPolytope, c: Vec, label: str) -> LarmanTrial:
    face = exposed_face(F, c)
    distinct = len({F.vertices[i] for i in face})
    return LarmanTrial(label, c, face, distinct)


def run_larman(
    F: VPolytope, cfg: SamplerConfig, trials: int, forced: Sequence[Vec] = ()
) -> LarmanReport:
    """Sample directions and count multi-vertex exposed faces.

    A direction exposing >= 2 distinct vertices maximizes <c, .> at both, so
    it lies in the normal cones of two distinct points — i.e. on the shared
    relative boundary of two full-dimensional vertex normal cones, the
    measure-zero set Larman's theorem bounds.  A direction exposing exactly
    one vertex is interior to that vertex's normal cone.  Zero directions are
    resampled from the same per-trial stream (c = 0 exposes everything and
    carries no information).

    ``forced`` directions are evaluated and reported separately; they never
    contribute to the sampled tallies.
    """
    _of_type(F, VPolytope, "F")
    _of_type(cfg, SamplerConfig, "cfg")
    _check_trials(trials)
    forced = mat(forced, F.dim, "forced direction")
    if len(set(F.vertices)) < 2:
        raise DegeneratePolytopeError("fewer than 2 distinct vertices")
    records = tuple(
        _larman_trial(F, next(c for c in _draws(cfg, i, F.dim) if any(c)), str(i))
        for i in range(trials)
    )
    multi = sum(r.distinct_vertices > 1 for r in records)
    return LarmanReport(
        trials=trials,
        singleton_faces=trials - multi,
        multi_vertex_faces=multi,
        seed=cfg.seed,
        records=records,
        forced=tuple(_larman_trial(F, c, f"F{k}") for k, c in enumerate(forced)),
    )


LARMAN_CSV_FIELDS = ("trial", "c", "outcome", "distinct_vertices", "face_indices")


def larman_to_csv(report: LarmanReport) -> str:
    _of_type(report, LarmanReport, "report")
    return csv_table(
        LARMAN_CSV_FIELDS,
        (
            [
                r.label,
                _join_vec(r.c),
                "multi_vertex" if r.distinct_vertices > 1 else "singleton",
                r.distinct_vertices,
                ";".join(str(i) for i in r.face_indices),
            ]
            for r in (*report.records, *report.forced)
        ),
    )
