#!/usr/bin/env python3
"""Monte Carlo genericity sweep over the instance gallery.

For each instance the objective is tilted by random rational directions v and
the minimizer of f - <v, .> is certified exactly.  Per-trial records go to one
CSV per instance; a summary table is printed at the end.  Reports are
bit-identical for a fixed (instance, seed, trials) triple.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # _suite, which adds src/

from _suite import settings
from nondegen.experiments import report_to_csv, run_genericity
from nondegen.functions import PolyhedralFunction
from nondegen.gallery import (
    abs_function,
    box_indicator,
    point_indicator,
    pyramid_indicator,
    random_polytope,
    simplex_indicator,
)


def instance_gallery():
    return [
        ("box2", box_indicator(2)),
        ("box3", box_indicator(3)),
        ("box5", box_indicator(5)),
        ("simplex3", simplex_indicator(3)),
        ("pyramid", pyramid_indicator()),
        ("abs", abs_function()),
        ("point", point_indicator(2)),
        ("random101", PolyhedralFunction.indicator(random_polytope(101))),
        ("random202", PolyhedralFunction.indicator(random_polytope(202))),
        ("random303", PolyhedralFunction.indicator(random_polytope(303))),
    ]


def main(argv=None):
    args, cfg = settings(__doc__, "trials per instance", "results/genericity", argv)

    header = f"{'instance':<12} {'trials':>6} {'nondeg':>7} {'degen':>6} {'non_unique':>10} {'unbounded':>9} {'secs':>6}"
    print(header)
    print("-" * len(header))
    total_bad = 0
    for name, f in instance_gallery():
        t0 = time.perf_counter()
        report = run_genericity(f, cfg, args.trials)
        elapsed = time.perf_counter() - t0
        path = args.outdir / f"{name}.csv"
        path.write_text(report_to_csv(report))
        total_bad += report.degenerate + report.non_unique
        print(
            f"{name:<12} {report.trials:>6} {report.unique_nondegenerate:>7}"
            f" {report.degenerate:>6} {report.non_unique:>10} {report.unbounded:>9}"
            f" {elapsed:>6.2f}"
        )
    print("-" * len(header))
    print(f"degenerate or non-unique trials across the suite: {total_bad}")
    print(f"CSV reports written to {args.outdir}/")
    return 0 if total_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
