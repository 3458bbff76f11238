"""Exact rational toolkit for polyhedral convex analysis: subdifferentials,
relative-interior membership, nondegeneracy certification, proximal maps, and
seeded genericity experiments."""

from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    EmptyGeneratedSetError,
    EnumerationBoundError,
    ImproperFunctionError,
    InfeasibleDomainError,
    InternalError,
    NondegenError,
    NotOptimalError,
    OutsideDomainError,
    ProblemParseError,
    RationalParseError,
)
from .linalg import (
    Inconsistent,
    Mat,
    Q,
    Rat,
    Underdetermined,
    UniqueSolution,
    Vec,
    format_rational,
    parse_rational,
    rank,
    solve_linear,
)
from .simplex import (
    HPolyhedron,
    Infeasible,
    LinearProgram,
    Optimal,
    Point,
    Unbounded,
    feasible_point,
    solve_lp,
)
from .geometry import (
    Boundary,
    GeneratedSet,
    Interior,
    Outside,
    RiStatus,
    VPolytope,
    exposed_face,
    member,
    positive_span_is_subspace,
    prune,
    ri_membership,
    translate,
)
from .functions import (
    CertificationResult,
    DegenerateCritical,
    Minimizer,
    Nondegenerate,
    NotCritical,
    PolyhedralFunction,
    Witness,
    argmin_face,
    canonical_minimizer,
    certify,
    evaluate,
    minimize_perturbed,
    strict_complementarity,
    subdifferential,
)
from .proximal import (
    DEFAULT_ENUM_BOUND,
    LowerC2Instance,
    find_critical_points,
    minty_transport,
    prox,
)
from .experiments import (
    AdversarialReport,
    ExperimentReport,
    LarmanReport,
    SamplerConfig,
    SplitMix64,
    TrialRecord,
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
from .problemfile import ProblemFile, parse_problem, serialize

__version__ = "0.1.0"
