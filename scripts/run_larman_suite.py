#!/usr/bin/env python3
"""Exposed-face sampling sweep over V-polytopes.

For each polytope, random rational directions c are drawn and the face of
vertices maximizing <c, .> is computed exactly.  Directions exposing two or
more distinct vertices lie on the measure-zero boundary between vertex normal
cones, so the sampled multi-vertex count should be zero; a forced direction
per polytope (an axis or edge normal) demonstrates that such faces do exist.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nondegen.cli import _integer  # the CLI's digit rule for integer flags
from nondegen.errors import RationalParseError
from nondegen.experiments import SamplerConfig, larman_to_csv, run_larman
from nondegen.gallery import (
    cube_vertices,
    edge_direction,
    random_vpolytope,
    square_vertices,
)
from nondegen.linalg import parse_rational


def polytope_gallery():
    random10 = random_vpolytope(7)
    return [
        ("square", square_vertices(), (1, 0)),
        ("cube", cube_vertices(), (1, 0, 0)),
        ("random10", random10, edge_direction(random10)),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_integer, default=1000, help="directions per polytope")
    parser.add_argument("--seed", type=_integer, default=42, help="base PRNG seed")
    parser.add_argument("--bits", type=_integer, default=64, help="bit width of sampled rationals")
    parser.add_argument("--radius", default="1", help="sampling box radius (rational token)")
    parser.add_argument(
        "--outdir", type=Path, default=Path("results/larman"), help="CSV output directory"
    )
    args = parser.parse_args(argv)

    if args.trials < 0:
        parser.error("--trials must be nonnegative")
    try:
        cfg = SamplerConfig(seed=args.seed, bits=args.bits, box_radius=parse_rational(args.radius))
    except (RationalParseError, ValueError) as e:
        parser.error(str(e))
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        parser.error(f"cannot create --outdir '{args.outdir}': {e}")

    header = f"{'polytope':<10} {'trials':>6} {'singleton':>9} {'multi':>6} {'forced dir -> vertices':>24} {'secs':>6}"
    print(header)
    print("-" * len(header))
    total_multi = 0
    for name, F, forced_dir in polytope_gallery():
        t0 = time.perf_counter()
        report = run_larman(F, cfg, args.trials, forced=[forced_dir])
        elapsed = time.perf_counter() - t0
        path = args.outdir / f"{name}.csv"
        path.write_text(larman_to_csv(report))
        total_multi += report.multi_vertex_faces
        forced = report.forced[0]
        dir_txt = ",".join(str(c) for c in forced.c)
        if len(dir_txt) > 18:
            dir_txt = dir_txt[:15] + "..."
        forced_txt = f"{dir_txt} -> {forced.distinct_vertices}"
        print(
            f"{name:<10} {report.trials:>6} {report.singleton_faces:>9}"
            f" {report.multi_vertex_faces:>6} {forced_txt:>24} {elapsed:>6.2f}"
        )
    print("-" * len(header))
    print(f"multi-vertex faces among sampled directions: {total_multi}")
    print(f"CSV reports written to {args.outdir}/")
    return 0 if total_multi == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
