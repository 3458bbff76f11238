#!/usr/bin/env python3
"""Exposed-face sampling sweep over V-polytopes.

For each polytope, random rational directions c are drawn and the face of
vertices maximizing <c, .> is computed exactly.  Directions exposing two or
more distinct vertices lie on the measure-zero boundary between vertex normal
cones, so the sampled multi-vertex count should be zero; a forced direction
per polytope (an axis or edge normal) demonstrates that such faces do exist.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # _suite, which adds src/

from _suite import settings
from nondegen.experiments import larman_to_csv, run_larman
from nondegen.gallery import (
    cube_vertices,
    edge_direction,
    random_vpolytope,
    square_vertices,
)


def polytope_gallery():
    random10 = random_vpolytope(7)
    return [
        ("square", square_vertices(), (1, 0)),
        ("cube", cube_vertices(), (1, 0, 0)),
        ("random10", random10, edge_direction(random10)),
    ]


def main(argv=None):
    args, cfg = settings(__doc__, "directions per polytope", "results/larman", argv)

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
