"""Per-layer spans and counters, recorded from outside the library.

A traced function is named by its home module and attribute, for example
``simplex.solve_standard_form``.  :meth:`Tracer.install` replaces every
binding of that function object in every loaded ``nondegen`` module with a
wrapper, so a call is seen at the binding its caller uses
(``nondegen.geometry.solve_standard_form`` as well as
``nondegen.simplex.solve_standard_form``).  A target that no longer exists
is recorded as absent instead of failing, so later changes to the library
can delete or merge traced functions without editing the benchmark.

Each wrapper records one span: calls, busy time (outermost calls of that span
only) and self time (duration minus the time of wrapped calls made inside
it).  Observers add counts read off arguments and results.  Spans are kept in
memory and summarised when the traced phase ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _observe_kernel(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["kernel.cols"] += len(args[2]) if len(args) > 2 else 0
    widest = 0
    for field in ("t", "duals", "t0", "ray", "farkas"):
        for q in getattr(out, field, ()):
            widest = max(widest, _bits(q))
    tr.counts["kernel.out_bits_max"] = max(tr.counts["kernel.out_bits_max"], widest)


def _observe_certify(tr: "Tracer", site: str, args, out) -> None:
    if type(out).__name__ == "Nondegenerate":
        tr.counts["certify.interior"] += 1


def _observe_prune(tr: "Tracer", site: str, args, out) -> None:
    S, pruned = args[0], out[0]
    tr.counts["prune.in"] += len(S.points) + len(S.rays)
    tr.counts["prune.kept"] += len(pruned.points) + len(pruned.rays)


def _observe_solve_linear(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["solve_linear.calls"] += 1
    if type(out).__name__ == "UniqueSolution":
        tr.counts["solve_linear.unique"] += 1
    if site == "nondegen.proximal":
        tr.counts["kkt.systems"] += 1


def _observe_prox(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["kkt.accepted"] += 1


def _observe_critical(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["kkt.accepted"] += len(out)


def _observe_adversarial(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["adversarial.pairs"] += len(out.pairs)


def _observe_candidates(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["adversarial.candidates"] += len(out)


def _observe_csv(tr: "Tracer", site: str, args, out) -> None:
    tr.counts["csv.bytes"] += len(out.encode())


Observer = Callable[["Tracer", str, tuple, object], None]

# (span, home module, function, observer).  Several functions may share a
# span.  The observer gets the binding's module name as ``site``.
TARGETS: List[Tuple[str, str, str, Optional[Observer]]] = [
    ("simplex.kernel", "simplex", "solve_standard_form", _observe_kernel),
    ("simplex.solve_lp", "simplex", "solve_lp", None),
    ("simplex.feasible_point", "simplex", "feasible_point", None),
    ("linalg.elim", "linalg", "rank", None),
    ("linalg.elim", "linalg", "solve_linear", _observe_solve_linear),
    ("geometry.prune", "geometry", "prune", _observe_prune),
    ("geometry.ri_membership", "geometry", "ri_membership", None),
    ("geometry.member", "geometry", "member", None),
    ("functions.minimize", "functions", "minimize_perturbed", None),
    ("functions.certify", "functions", "certify", _observe_certify),
    ("experiments.trial", "experiments", "genericity_trial", None),
    ("experiments.sampler", "experiments", "sample_objective", None),
    ("experiments.uniqueness", "experiments", "_optimal_face_is_point", None),
    ("experiments.csv", "experiments", "report_to_csv", _observe_csv),
    ("experiments.adversarial", "experiments", "construct_degenerate", _observe_adversarial),
    ("experiments.candidates", "experiments", "_candidate_points", _observe_candidates),
    ("proximal.prox", "proximal", "prox", _observe_prox),
    ("proximal.transport", "proximal", "minty_transport", None),
    ("proximal.critical", "proximal", "find_critical_points", _observe_critical),
]


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0


class Tracer:
    """Spans and counters of one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: Dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.missing: List[str] = []  # "module.function" of targets not found
        self.observer_errors: Counter = Counter()  # span -> observer failures
        self.ops = 0
        self.op_s = 0.0
        self.label: Optional[str] = None
        # label -> span -> [calls, busy_s]; "op" holds [ops, op seconds]
        self.by_label: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0])
        )
        self._stack: List[List[float]] = []  # child-time accumulators
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if (name == "nondegen" or name.startswith("nondegen.")) and mod is not None
        }
        for span, home, attr, observe in TARGETS:
            fn = getattr(modules.get(f"nondegen.{home}"), attr, None)
            if not callable(fn):
                self.missing.append(f"{home}.{attr}")
                continue
            stats = self.spans.setdefault(span, SpanStats())
            for modname, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, self._wrap(span, stats, fn, observe, modname))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def _wrap(self, span: str, stats: SpanStats, fn, observe, site: str):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stats.depth += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stats.depth -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats.calls += 1
                stats.self_s += dur - children[0]
                cell = self.by_label[self.label][span]
                cell[0] += 1
                if stats.depth == 0:
                    stats.busy_s += dur
                    cell[1] += dur
            if observe is not None:
                try:
                    observe(self, site, args, out)
                except (AttributeError, IndexError, TypeError):
                    # the function's signature or result changed shape
                    self.observer_errors[span] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    # -- the root span of one op ---------------------------------------------

    def run_op(self, label: str, op: Callable[[], object]):
        self.label = label
        children = [0.0]
        self._stack.append(children)
        start = perf_counter()
        try:
            return op()
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self.ops += 1
            self.op_s += dur
            cell = self.by_label[label]["op"]
            cell[0] += 1
            cell[1] += dur
            self.label = None

    # -- summaries ----------------------------------------------------------

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def layer_metrics(self) -> Dict[str, Optional[float]]:
        """Every metric of LAYER_METRICS; None for one whose function is missing."""
        return {
            name: None if any(f in self.missing for f in needs) else value(self)
            for name, _, _, needs, value in LAYER_METRICS
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_KERNEL = ("simplex.solve_standard_form",)
_ELIM = ("linalg.rank", "linalg.solve_linear")

# (name, unit, better, functions it needs, value).  "busy" counts outermost
# calls of a span; "self" subtracts the wrapped calls made inside it.
LAYER_METRICS: List[Tuple[str, str, str, Tuple[str, ...], Callable[[Tracer], float]]] = [
    ("simplex.kernel.calls", "count", "lower", _KERNEL,
     lambda t: t.span("simplex.kernel").calls),
    ("simplex.kernel.per_op", "count/op", "lower", _KERNEL,
     lambda t: _ratio(t.span("simplex.kernel").calls, t.ops)),
    ("simplex.kernel.busy_s", "s", "lower", _KERNEL,
     lambda t: t.span("simplex.kernel").busy_s),
    ("simplex.kernel.share", "frac", "lower", _KERNEL,
     lambda t: _ratio(t.span("simplex.kernel").busy_s, t.op_s)),
    ("simplex.kernel.cols_mean", "count", "lower", _KERNEL,
     lambda t: _ratio(t.counts["kernel.cols"], t.span("simplex.kernel").calls)),
    ("simplex.kernel.out_bits_max", "bits", "lower", _KERNEL,
     lambda t: t.counts["kernel.out_bits_max"]),
    ("simplex.solve_lp.self_s", "s", "lower", ("simplex.solve_lp",),
     lambda t: t.span("simplex.solve_lp").self_s),
    ("functions.minimize.busy_s", "s", "lower", ("functions.minimize_perturbed",),
     lambda t: t.span("functions.minimize").busy_s),
    ("functions.minimize.self_s", "s", "lower", ("functions.minimize_perturbed",),
     lambda t: t.span("functions.minimize").self_s),
    ("experiments.uniqueness.calls", "count", "lower", ("experiments._optimal_face_is_point",),
     lambda t: t.span("experiments.uniqueness").calls),
    ("experiments.uniqueness.busy_s", "s", "lower", ("experiments._optimal_face_is_point",),
     lambda t: t.span("experiments.uniqueness").busy_s),
    ("functions.certify.calls", "count", "lower", ("functions.certify",),
     lambda t: t.span("functions.certify").calls),
    ("functions.certify.busy_s", "s", "lower", ("functions.certify",),
     lambda t: t.span("functions.certify").busy_s),
    ("functions.certify.interior_frac", "frac", "higher", ("functions.certify",),
     lambda t: _ratio(t.counts["certify.interior"], t.span("functions.certify").calls)),
    ("geometry.prune.calls", "count", "lower", ("geometry.prune",),
     lambda t: t.span("geometry.prune").calls),
    ("geometry.prune.busy_s", "s", "lower", ("geometry.prune",),
     lambda t: t.span("geometry.prune").busy_s),
    ("geometry.prune.kept_frac", "frac", "higher", ("geometry.prune",),
     lambda t: _ratio(t.counts["prune.kept"], t.counts["prune.in"])),
    ("geometry.ri_membership.self_s", "s", "lower", ("geometry.ri_membership",),
     lambda t: t.span("geometry.ri_membership").self_s),
    ("linalg.elim.calls", "count", "lower", _ELIM,
     lambda t: t.span("linalg.elim").calls),
    ("linalg.elim.busy_s", "s", "lower", _ELIM,
     lambda t: t.span("linalg.elim").busy_s),
    ("linalg.solve_linear.unique_frac", "frac", "higher", ("linalg.solve_linear",),
     lambda t: _ratio(t.counts["solve_linear.unique"], t.counts["solve_linear.calls"])),
    ("proximal.kkt.systems_per_op", "count/op", "lower", ("linalg.solve_linear",),
     lambda t: _ratio(t.counts["kkt.systems"], t.ops)),
    ("proximal.kkt.accept_frac", "frac", "higher",
     ("linalg.solve_linear", "proximal.prox", "proximal.find_critical_points"),
     lambda t: _ratio(t.counts["kkt.accepted"], t.counts["kkt.systems"])),
    ("proximal.prox.busy_s", "s", "lower", ("proximal.prox",),
     lambda t: t.span("proximal.prox").busy_s),
    ("experiments.adversarial.candidates", "count/op", "lower",
     ("experiments.construct_degenerate", "experiments._candidate_points"),
     lambda t: _ratio(t.counts["adversarial.candidates"], t.span("experiments.adversarial").calls)),
    ("experiments.adversarial.pair_frac", "frac", "higher",
     ("experiments.construct_degenerate", "experiments._candidate_points"),
     lambda t: _ratio(t.counts["adversarial.pairs"], t.counts["adversarial.candidates"])),
    ("experiments.sampler.busy_s", "s", "lower", ("experiments.sample_objective",),
     lambda t: t.span("experiments.sampler").busy_s),
    ("experiments.csv.busy_s", "s", "lower", ("experiments.report_to_csv",),
     lambda t: t.span("experiments.csv").busy_s),
    ("experiments.csv.bytes", "B/op", "lower", ("experiments.report_to_csv",),
     lambda t: _ratio(t.counts["csv.bytes"], t.ops)),
]
