#!/usr/bin/env python3
"""Compare the runs of a parent commit with the runs of a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of ``perfbench/run.py`` runs, one
``*.txt`` file per run.  Runs are grouped by workload and by ``--trace`` and
paired by seed.  Runs whose stamps name different arithmetic backends
(``fractions.Fraction`` against ``gmpy2.mpq``) are not comparable: the script
refuses them with exit code 2.  Differences in Python version or core count
are printed as warnings.

Every end-to-end metric of every untraced workload gets a verdict, with the
bounds of ``BENCHMARK.json``:

- ``regression``: the change's median is worse than the parent's by more
  than the bound (exit code 1);
- ``unresolved``: the parent's own quartile spread exceeds the bound, and not
  every run of the change beats every run of the parent;
- ``gain``: the change wins at least 9 in 10 seed pairs and the medians
  differ by more than the parent's quartile spread;
- ``no worse``: otherwise.

Traced runs are listed metric by metric, with medians only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> list:
    runs = []
    for path in sorted(directory.glob("*.txt")):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        stamps = [line[len("stamp "):] for line in lines if line.startswith("stamp ")]
        if not stamps or not lines[-1].startswith("{"):
            raise SystemExit(f"compare: {path} is not the output of a finished run")
        runs.append({"path": path, "stamp": json.loads(stamps[0]), "result": json.loads(lines[-1])})
    if not runs:
        raise SystemExit(f"compare: no *.txt runs in {directory}")
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    """``base`` and ``change`` map seed -> value."""
    sign = 1 if better == "higher" else -1
    b_vals, c_vals = list(base.values()), list(change.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    c_med = statistics.median(c_vals)
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "regression"
    spread = b_q3 - b_q1
    all_better = min(sign * v for v in c_vals) > max(sign * v for v in b_vals)
    if spread > bound * abs(b_med) and not all_better:
        return "unresolved"
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > spread:
        return "gain"
    return "no worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load_runs(Path(d)) for d in argv)
    backends = {r["stamp"]["backend"] for r in parent + change}
    if len(backends) > 1:
        print(f"compare: refusing to compare runs on different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {str(r["stamp"][key]) for r in parent + change}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}")
    spec = json.loads(BENCHMARK.read_text())
    groups = defaultdict(lambda: ([], []))
    for side, runs in enumerate((parent, change)):
        for r in runs:
            groups[(r["stamp"]["workload"], r["stamp"]["trace"])][side].append(r)
    regressed = False
    for (workload, trace), (base_runs, change_runs) in sorted(groups.items()):
        print(f"{workload} (trace {trace}): {len(base_runs)} parent runs, {len(change_runs)} change runs")
        if not base_runs or not change_runs:
            continue
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            base = {r["stamp"]["seed"]: r["result"]["metrics"][name]["value"] for r in base_runs}
            new = {r["stamp"]["seed"]: r["result"]["metrics"][name]["value"] for r in change_runs}
            b_q1, b_med, b_q3 = quartiles(list(base.values()))
            c_q1, c_med, c_q3 = quartiles(list(new.values()))
            line = (f"  {name:<36} parent {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                    f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {m['unit']}")
            if not trace:
                v = verdict(base, new, m["better"], m["bound"])
                regressed |= v == "regression"
                line += f"  bound {m['bound']:g}: {v}"
            print(line)
        for side, runs in (("parent", base_runs), ("change", change_runs)):
            failed = sum(r["result"]["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["result"]["correct"])
            if failed or wrong:
                print(f"  {side}: {failed} failed ops, {wrong} runs not correct")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
