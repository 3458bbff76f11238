#!/usr/bin/env python3
"""The repository's benchmark: certified verdicts per second of ``nondegen``.

    python3 perfbench/run.py --workload genericity --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
process and one thread drive a closed loop of ops (see ``workloads.py`` and
``README.md``).  The run sets the library up several times, measures for at
least ``--seconds`` seconds in whole cycles, then checks every output outside
the timed region.  With ``--trace 1`` it first repeats that untraced
measurement and then measures again with spans installed at every binding of
the traced functions (``tracing.py``), reporting per-layer metrics and the
tracing overhead.

Standard output is a readable report, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Usage errors exit 2
before anything runs; so does a checkout without the library source.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
LIBRARY_MODULES = ("errors", "linalg", "simplex", "geometry", "functions", "proximal", "experiments", "gallery")

# (name, unit, better); the order of the report and of BENCHMARK.json
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
TRACE_METRICS = [
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]
# the untraced phase in wall time, and the host's speed that scaled it
WALL_METRICS = [
    ("wall.ops_per_s", "1/s", "higher"),
    ("wall.op_ms_p50", "ms", "lower"),
    ("wall.op_ms_p90", "ms", "lower"),
    ("host.speed", "ratio", "higher"),
]
PER_LAYER = [(name, unit, better) for name, unit, better, _, _ in tracing.LAYER_METRICS] + TRACE_METRICS + WALL_METRICS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long, in whole cycles (0: one cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bits", type=int, default=64,
                        help="genericity sampler: bits per numerator and denominator, 8..64")
    parser.add_argument("--radius", default="1",
                        help="genericity sampler: box radius, a positive rational 'n' or 'n/d'")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not args.seconds >= 0:
        parser.error("--seconds must be nonnegative")
    # SplitMix64 yields 64 bits per draw; the library accepts wider settings
    # and then samples wrongly, so they are refused here.
    if not 8 <= args.bits <= 64:
        parser.error("--bits must lie in [8, 64]")
    try:
        args.radius = Fraction(args.radius)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--radius {args.radius!r} is not a rational number")
    if args.radius <= 0:
        parser.error("--radius must be positive")
    return args


def load_library() -> SimpleNamespace:
    """Import the library afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "nondegen" or n.startswith("nondegen.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"nondegen.{m}") for m in LIBRARY_MODULES})


@dataclass
class Phase:
    outputs: List = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # normalised seconds, completed ops only
    wall_latencies: List[float] = field(default_factory=list)  # the same ops in wall seconds
    failures: Dict[int, str] = field(default_factory=dict)
    time_s: float = 0.0  # normalised (hostclock.py), calibrations left out
    wall_s: float = 0.0  # wall, calibrations left out
    host_speed: float = 0.0
    inputs_sha256: str = ""

    @property
    def ops(self) -> int:
        return len(self.outputs)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.time_s

    @property
    def wall_ops_per_s(self) -> float:
        return self.ops / self.wall_s


def run_phase(workload, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Phase:
    """Closed loop from op 0, in whole cycles, until ``seconds`` have passed.

    The host's speed is calibrated between segments of ops (``hostclock``);
    each segment's wall time and op latencies are scaled by its factor."""
    phase = Phase()
    digest = hashlib.sha256()
    k = 0
    gc.collect()
    start = perf_counter()
    clock = hostclock.HostClock()
    bounds = []  # per segment, the number of latencies recorded by its end
    while True:
        for _ in range(workload.cycle):
            label, key, fn, args = workload.prepare(k)
            digest.update(key.encode() + b"\n")
            t0 = perf_counter()
            try:
                out = tracer.run_op(label, lambda: fn(*args)) if tracer else fn(*args)
            except Exception as exc:  # a failed op is counted and the loop goes on
                if not phase.failures:
                    traceback.print_exc()
                phase.failures[k] = f"{label}: raised {type(exc).__name__}: {exc}"
                out = None
            else:
                phase.wall_latencies.append(perf_counter() - t0)
            phase.outputs.append(out)
            k += 1
            if clock.segment_due():
                clock.close()
                bounds.append(len(phase.wall_latencies))
        if perf_counter() - start >= seconds:
            break
    workload.finish(phase.outputs)
    clock.close()
    bounds.append(len(phase.wall_latencies))
    first = 0
    for wall, factor, end in zip(clock.walls, clock.factors(), bounds):
        phase.wall_s += wall
        phase.time_s += wall * factor
        phase.latencies.extend(t * factor for t in phase.wall_latencies[first:end])
        first = end
    phase.host_speed = clock.speed
    phase.inputs_sha256 = digest.hexdigest()
    return phase


def check_phase(workload, phase: Phase) -> None:
    for k, why in workload.check(phase.outputs).items():
        phase.failures.setdefault(k, why)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, lib) -> dict:
    Q = lib.linalg.Q
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bits": args.bits,
        "radius": str(args.radius),
        "python": platform.python_version(),
        "backend": f"{Q.__module__}.{Q.__qualname__}",
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
    }


def percentile_ms(latencies: List[float], q: int) -> float:
    if len(latencies) < 2:
        return 1000 * latencies[0] if latencies else 0.0
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def _fmt(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:.6g}"


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, samples in rows:
        print(f"  {name:<36} {_fmt(value):>14} {unit:<9} {samples}")


def print_trace(tracer: tracing.Tracer) -> None:
    print("spans (traced phase)             calls   calls/op     busy_s     self_s  busy/op-time")
    for name in sorted(tracer.spans):
        s = tracer.spans[name]
        print(
            f"  {name:<28} {s.calls:>9} {s.calls / max(tracer.ops, 1):>10.3f} "
            f"{s.busy_s:>10.4f} {s.self_s:>10.4f} {s.busy_s / max(tracer.op_s, 1e-12):>12.3f}"
        )
    print("per instance                     ops  kernel/op  kernel share   ms/op")
    for label, cells in sorted(tracer.by_label.items(), key=lambda kv: str(kv[0])):
        ops, op_s = cells["op"]
        if not ops:
            continue
        calls, busy = cells["simplex.kernel"]
        print(f"  {label:<28} {ops:>6} {calls / ops:>10.3f} {busy / op_s:>13.3f} {1000 * op_s / ops:>8.2f}")
    for fn in tracer.missing:
        print(f"  absent: nondegen.{fn} (metrics that need it are reported absent)")
    for span, n in tracer.observer_errors.items():
        print(f"  warning: the observer of {span} failed {n} times")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "nondegen" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload](args.seed, bits=args.bits, radius=args.radius)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's modules, outside the timing
        clock = hostclock.HostClock(repeats=3)
        lib = load_library()
        workload.set_up(lib)
        clock.close()
        setup_times.append(clock.walls[0] * clock.factors()[0])

    phases = [run_phase(workload, args.seconds)]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phases.append(run_phase(workload, args.seconds, tracer))
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    for phase in phases:
        check_phase(workload, phase)
    run_problems = workload.check_run()

    base = phases[0]
    attempted = sum(p.ops for p in phases)
    failed = sum(len(p.failures) for p in phases)
    values = {
        "ops_per_s": (base.ops_per_s, base.ops),
        "op_ms_p50": (percentile_ms(base.latencies, 50), len(base.latencies)),
        "op_ms_p90": (percentile_ms(base.latencies, 90), len(base.latencies)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }
    wall = {
        "wall.ops_per_s": (base.wall_ops_per_s, base.ops),
        "wall.op_ms_p50": (percentile_ms(base.wall_latencies, 50), len(base.wall_latencies)),
        "wall.op_ms_p90": (percentile_ms(base.wall_latencies, 90), len(base.wall_latencies)),
        "host.speed": (base.host_speed, base.ops),
    }

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("stamp " + json.dumps(stamp(args, lib), sort_keys=True))
    print(f"inputs_sha256 {base.inputs_sha256} ops {base.ops}")
    rows = [(name, values[name][0], unit, values[name][1]) for name, unit, _ in END_TO_END]
    rows.insert(4, ("failed_frac", len(base.failures) / base.ops, "frac", base.ops))
    print_table("end-to-end (untraced; times at reference host speed, see hostclock.py)", rows)
    print_table("the same phase in wall time", [(name, wall[name][0], unit, wall[name][1]) for name, unit, _ in WALL_METRICS])
    metrics = {name: (values[name][0], unit) for name, unit, _ in END_TO_END}
    if tracer is not None:
        traced = phases[1]
        layer = tracer.layer_metrics()
        layer["trace.ops_per_s"] = traced.ops_per_s
        layer["trace.untraced_ops_per_s"] = base.ops_per_s
        layer["trace.overhead_frac"] = 1 - traced.ops_per_s / base.ops_per_s
        layer.update({name: value for name, (value, _) in wall.items()})
        print_table(
            f"per-layer (traced phase: {traced.ops} ops in {traced.wall_s:.2f} s)",
            [(name, layer[name], unit, traced.ops) for name, unit, _ in PER_LAYER],
        )
        print_trace(tracer)
        # an absent metric reads 0 in the JSON line, which must list every metric
        metrics = {name: (layer[name] or 0, unit) for name, unit, _ in PER_LAYER}
    failures = [why for p in phases for why in p.failures.values()] + run_problems
    for why in failures[:10]:
        print(f"FAILED {why}")
    if len(failures) > 10:
        print(f"FAILED ... and {len(failures) - 10} more")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
