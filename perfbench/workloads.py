"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Ops run in cycles that visit every instance once,
and a run always ends on a whole cycle, so every run measures the same mix.
Inputs come from the benchmark seed through ``random.Random``; the library
receives only the generated inputs (for ``genericity``, a ``SamplerConfig``
whose seed is drawn here, and the trial index).

A workload object is built from the seed, then ``set_up(lib)`` builds the
instances from a freshly imported library and runs a one-op warm-up.  For op
``k``, ``prepare(k)`` returns ``(label, key, fn, args)``: ``fn(*args)`` is the
timed op, ``label`` names its instance and ``key`` describes its inputs.
``finish`` runs inside the run's wall time but outside every op; ``check``
and ``check_run`` run after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE = Path(__file__).with_name("reference_genericity.json")

# the criterion-1 instances of the acceptance suite
GENERICITY_INSTANCES = (
    "box2", "box3", "box5", "simplex3", "pyramid", "abs", "random101", "random202", "random303",
)
WITNESS_SAMPLE = 45  # genericity trials per run whose witness is rebuilt exactly
ADVERSARIAL_POOL = 96  # seeded random polytopes added to the criterion-2 set
# Criterion-1 functions with at most 8 generators; box5 (10) would swamp the
# mix.  random202 is in so that the median op falls inside the tight group of
# box3 and pyramid transports, not in the sparse gap beside it, where it
# jumped by a third between runs.
PROX_INSTANCES = ("abs", "box2", "box3", "simplex3", "pyramid", "random101", "random202")
PROX_RHO = Fraction(1, 2)


def gallery_function(lib, name: str):
    """The gallery instance called ``name``; ``random<s>`` is
    ``random_polytope(s, 3, 8)`` as an indicator."""
    g = lib.gallery
    if name.startswith("random"):
        return lib.functions.PolyhedralFunction.indicator(g.random_polytope(int(name[6:]), 3, 8))
    builders = {
        "box2": lambda: g.box_indicator(2),
        "box3": lambda: g.box_indicator(3),
        "box5": lambda: g.box_indicator(5),
        "simplex3": lambda: g.simplex_indicator(3),
        "pyramid": g.pyramid_indicator,
        "abs": g.abs_function,
        "point": lambda: g.point_indicator(2),
    }
    return builders[name]()


def _q(lib, x: Fraction):
    return lib.linalg.Q(x.numerator, x.denominator)


class Genericity:
    """One ``genericity_trial`` per op, round-robin over the criterion-1 instances."""

    name = "genericity"

    def __init__(self, seed: int, bits: int = 64, radius: Fraction = Fraction(1)):
        rng = random.Random(seed)
        self.seed = seed
        self.sampler_seed = rng.getrandbits(64)
        self.warm_seed = rng.getrandbits(64)
        self.bits = bits
        self.radius = radius
        self.cycle = len(GENERICITY_INSTANCES)

    def set_up(self, lib) -> None:
        self.lib = lib
        self.items = [(name, gallery_function(lib, name)) for name in GENERICITY_INSTANCES]
        self.cfg = self._config(self.sampler_seed)
        # warm-up: one trial of the cheapest instance, from a stream no op uses
        lib.experiments.genericity_trial(dict(self.items)["abs"], self._config(self.warm_seed), 0)

    def _config(self, seed: int):
        return self.lib.experiments.SamplerConfig(
            seed=seed, bits=self.bits, box_radius=_q(self.lib, self.radius)
        )

    def prepare(self, k: int):
        name, f = self.items[k % self.cycle]
        trial = k // self.cycle
        key = f"{name} seed={self.sampler_seed} bits={self.bits} radius={self.radius} trial={trial}"
        return name, key, self.lib.experiments.genericity_trial, (f, self.cfg, trial)

    def finish(self, outputs: List) -> None:
        """One CSV report per instance, as the genericity suite writes them."""
        E = self.lib.experiments
        records: Dict[str, list] = {name: [] for name, _ in self.items}
        for k, rec in enumerate(outputs):
            if rec is not None:
                records[self.items[k % self.cycle][0]].append(rec)
        self.csv = {
            name: E.report_to_csv(E.merge_trials(recs, self.cfg.seed))
            for name, recs in records.items()
        }

    def check(self, outputs: List) -> Dict[int, str]:
        """Every trial is unique and nondegenerate; a seeded sample of trials
        has its witness rebuilt exactly."""
        bad = {}
        for k, rec in enumerate(outputs):
            if rec is not None and rec.outcome != "nondegenerate":
                bad[k] = f"outcome {rec.outcome} for v={rec.v}"
        rng = random.Random(f"witness/{self.seed}")
        for k in rng.sample(range(len(outputs)), min(WITNESS_SAMPLE, len(outputs))):
            if outputs[k] is not None and k not in bad:
                problem = self._witness_problem(self.items[k % self.cycle][1], outputs[k])
                if problem:
                    bad[k] = problem
        return bad

    def _witness_problem(self, f, rec) -> Optional[str]:
        """Rebuild ``v`` from certify's multipliers and the generators of the
        subdifferential at the minimizer, computed here from ``f``."""
        F, zero = self.lib.functions, self.lib.linalg.Q(0)
        x, v = rec.minimizer, rec.v
        cert = F.certify(f, v, x)
        if not isinstance(cert, F.Nondegenerate):
            return f"certify returned {type(cert).__name__} at a nondegenerate trial"

        def dot(a, b):
            return sum((p * q for p, q in zip(a, b)), zero)

        grads = [c for c, _ in f.pieces] or [(zero,) * f.dim]
        values = [dot(c, x) + d for c, d in f.pieces] or [zero]
        top = max(values)
        if any(dot(a, x) > b for a, b in zip(f.domain.A, f.domain.b)):
            return "minimizer outside the domain"
        weights = list(zip(cert.piece_weights, grads, [val == top for val in values]))
        weights += [
            (w, a, dot(a, x) == b)
            for w, a, b in zip(cert.constraint_multipliers, f.domain.A, f.domain.b)
        ]
        if any(w < 0 or (w > 0 and not active) for w, _, active in weights):
            return "multiplier negative or on an inactive generator"
        if sum(cert.piece_weights) != 1:
            return "piece weights do not sum to one"
        rebuilt = [zero] * f.dim
        for w, g, _ in weights:
            rebuilt = [r + w * gi for r, gi in zip(rebuilt, g)]
        if tuple(rebuilt) != tuple(v):
            return "witness does not rebuild v"
        positive = sorted(w for w, _, _ in weights if w > 0)
        if positive != sorted(cert.witness) or min(cert.witness) != rec.min_witness_coeff:
            return "witness differs from the multipliers or the reported minimum"
        return None

    def check_run(self) -> List[str]:
        """The reference seed's first trials give CSVs byte-identical to the
        ones captured when the benchmark was added."""
        ref = json.loads(REFERENCE.read_text())
        E = self.lib.experiments
        cfg = E.SamplerConfig(seed=Genericity(ref["seed"]).sampler_seed)
        problems = []
        for name, f in self.items:
            csv = E.report_to_csv(E.run_genericity(f, cfg, ref["trials"]))
            if hashlib.sha256(csv.encode()).hexdigest() != ref["csv_sha256"][name]:
                problems.append(f"{name}: CSV differs from the reference")
        return problems


class Adversarial:
    """``construct_degenerate`` on one instance, then ``certify`` of every
    emitted pair; instances are the criterion-2 set plus seeded random
    polytopes."""

    name = "adversarial"

    def __init__(self, seed: int, **_):
        rng = random.Random(seed)
        self.pool = [f"random{rng.getrandbits(32)}" for _ in range(ADVERSARIAL_POOL)]
        self.gallery = GENERICITY_INSTANCES + ("point",)
        self.cycle = len(self.gallery) + len(self.pool)

    def set_up(self, lib) -> None:
        self.lib = lib
        self.items = [(name, name, gallery_function(lib, name)) for name in self.gallery]
        self.items += [("random-pool", name, gallery_function(lib, name)) for name in self.pool]
        self._op(dict((n, f) for _, n, f in self.items)["abs"])  # warm-up

    def _op(self, f):
        report = self.lib.experiments.construct_degenerate(f)
        return report, [self.lib.functions.certify(f, v, x) for v, x in report.pairs]

    def prepare(self, k: int):
        label, name, f = self.items[k % self.cycle]
        return label, name, self._op, (f,)

    def finish(self, outputs: List) -> None:
        pass

    def check(self, outputs: List) -> Dict[int, str]:
        """Every pair re-certifies as degenerate; the point indicator emits none."""
        bad = {}
        for k, out in enumerate(outputs):
            if out is None:
                continue
            report, verdicts = out
            name = self.items[k % self.cycle][1]
            if name == "point":
                if report.pairs:
                    bad[k] = "point indicator emitted pairs"
            elif not report.pairs:
                bad[k] = f"{name}: no pair emitted"
            elif not all(isinstance(c, self.lib.functions.DegenerateCritical) for c in verdicts):
                bad[k] = f"{name}: a pair did not re-certify as degenerate"
        return bad

    def check_run(self) -> List[str]:
        return []


class Prox:
    """``minty_transport`` and ``find_critical_points`` in turn, on
    ``LowerC2Instance(g, 1/2)`` with a seeded centre or tilt per op."""

    name = "prox"

    def __init__(self, seed: int, **_):
        self.seed = seed
        self.cycle = 2 * len(PROX_INSTANCES)

    def set_up(self, lib) -> None:
        self.lib = lib
        rho = _q(lib, PROX_RHO)
        self.items = [
            (name, lib.proximal.LowerC2Instance(gallery_function(lib, name), rho))
            for name in PROX_INSTANCES
        ]
        _, _, fn, args = self._prepare(0, f"prox-warm/{self.seed}")
        fn(*args)  # warm-up: one transport on abs, from a stream no op uses

    def prepare(self, k: int):
        return self._prepare(k, f"prox/{self.seed}/{k}")

    def _prepare(self, k: int, stream: str):
        """Op ``k`` draws a point with coordinates in about [-2, 2] and
        denominators 16..31."""
        name, inst = self.items[(k // 2) % len(self.items)]
        rng = random.Random(stream)
        y = tuple(Fraction(rng.getrandbits(6) - 32, 16 + rng.getrandbits(4)) for _ in range(inst.g.dim))
        P = self.lib.proximal
        fn, kind = (P.minty_transport, "transport") if k % 2 == 0 else (P.find_critical_points, "critical")
        key = f"{name} {kind} y={','.join(map(str, y))}"
        return name, key, fn, (inst, tuple(_q(self.lib, c) for c in y))

    def finish(self, outputs: List) -> None:
        pass

    def check(self, outputs: List) -> Dict[int, str]:
        """Transport: ``c - x`` lies in dg(x), ``h`` is the transported
        subgradient and keeps the boundary status of ``c`` (criteria 5 and 6).
        Critical points: sorted, in the domain, ``v + rho x`` in dg(x)."""
        F, G = self.lib.functions, self.lib.geometry
        bad = {}
        for k, out in enumerate(outputs):
            if out is None:
                continue
            name, key, _, (inst, y) = self.prepare(k)
            g, rho = inst.g, inst.rho
            try:
                if k % 2 == 0:
                    x, h = out
                    S = F.subdifferential(g, x)
                    if not G.member(S, tuple(c - xi for c, xi in zip(y, x))):
                        bad[k] = f"{key}: c - x is not a subgradient"
                    elif h != tuple(c - (1 + rho) * xi for c, xi in zip(y, x)):
                        bad[k] = f"{key}: h is not c - (1 + rho) x"
                    elif not G.member(G.translate(S, tuple(rho * xi for xi in x)), h):
                        bad[k] = f"{key}: h is not a subgradient of f"
                    elif type(G.ri_membership(G.translate(S, tuple(-xi for xi in x)), y)) is not type(
                        G.ri_membership(G.translate(S, tuple(rho * xi for xi in x)), h)
                    ):
                        bad[k] = f"{key}: transport changed the boundary status"
                else:
                    points = [x for x, _ in out]
                    if points != sorted(set(points)):
                        bad[k] = f"{key}: critical points not sorted and distinct"
                    for x, cert in out:
                        w = tuple(vi + rho * xi for vi, xi in zip(y, x))
                        if isinstance(cert, F.NotCritical) or not G.member(F.subdifferential(g, x), w):
                            bad[k] = f"{key}: {x} is not critical"
                            break
            except self.lib.errors.NondegenError as exc:  # e.g. x outside the domain
                bad[k] = f"{key}: check raised {type(exc).__name__}: {exc}"
        return bad

    def check_run(self) -> List[str]:
        return []


WORKLOADS = {w.name: w for w in (Genericity, Adversarial, Prox)}
