#!/usr/bin/env python3
"""Benchmark two checkouts in alternated pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload adversarial \\
        --seeds 1121-1130 --out BENCH_11.json [--seconds 20] [--trace 0] [--append]

For each seed in turn, ``perfbench/run.py`` runs once in each checkout, in
that checkout's own directory, with the same flags; the side that runs first
alternates from one seed to the next, so that a drift of the host's speed
does not favour one side.  Every run's ``stamp`` line and last line (one JSON
object) are kept under ``runs``, with the side they belong to.

``summary`` holds, per workload and per end-to-end metric of
``CHANGE_DIR/BENCHMARK.json``, each side's median, first and third quartiles
(``statistics.quantiles``, exclusive method) and number of runs, and
``change_wins``: the pairs in which the change did better, out of all pairs.
Only untraced runs (``--trace 0``) are summarised; a traced run's per-layer
metrics are kept in ``runs`` only.  ``--append`` adds the runs to an existing
file, so that one file can hold several workloads, keeps its ``what`` and
recomputes the summary from all of its runs; a seed that the file already
holds for the same workload and ``--trace`` is a usage error.  A new file
gets a ``what`` naming both sides' commits; a side whose stamp reads
``"commit": "unknown"`` (a checkout without ``.git``, such as a copied
tree) is named by its directory's name and a short SHA-256 of its ``src/``
Python files, so that the two sides stay distinguishable.

After every pair, one line per workload and end-to-end metric goes to
stderr: both medians, the relative change, ``change_wins``, and the verdict
that ``perfbench/compare.py`` gives the per-seed values (``regression``,
``unresolved``, ``gain`` or ``no worse``) under the metric's ``bound`` in
``CHANGE_DIR/BENCHMARK.json``; a ``gain`` reads ``no worse`` until the
workload has ``_GAIN_PAIRS`` (ten) pairs, the fewest a gain is claimed on.
The file is written after every pair, so a run that fails keeps the pairs
before it.  Exits 1 if a run fails to start,
ends without a JSON line, or ends with one that does not read
``"correct": true`` (an output check failed, so its timings are not the
program's); exits 2 on a usage error, such as a ``--workload`` that is not
one of ``perfbench/workloads.py``'s ``WORKLOADS``, before anything runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import compare
import workloads

SIDES = ("parent", "change")
_GAIN_PAIRS = 10
_SEEDS = re.compile(r"([0-9]+)(?:-([0-9]+))?")


def parse_seeds(text: str) -> range:
    m = _SEEDS.fullmatch(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a seed range A-B")
    first = int(m.group(1))
    last = int(m.group(2) or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return range(first, last + 1)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its stamp and its result.
    Raises ``RuntimeError`` if the run failed, its output checks included."""
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    stamps = [line[len("stamp "):] for line in lines if line.startswith("stamp ")]
    if proc.returncode != 0 or not stamps or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed its output check: {lines[-1][:2000]}")
    return {"stamp": json.loads(stamps[0]), "result": result}


def src_digest(root: Path) -> str:
    """SHA-256 over the path and bytes of every ``*.py`` file under
    ``root/src``, in path order."""
    src = root / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def side_name(root: Path, stamp: dict) -> str:
    """The stamp's commit, or the checkout directory's name and source
    digest when ``run.py`` could not read a commit."""
    commit = stamp.get("commit", "unknown")
    if commit != "unknown":
        return commit
    return f"{root.name} (src sha256 {src_digest(root)[:12]})"


def _stats(values) -> dict:
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": len(values)}


def per_seed(runs) -> dict:
    """``{workload: {side: {seed: metrics}}}`` over the untraced runs, the
    workloads in order of first appearance."""
    table = {}
    for r in runs:
        if r["stamp"]["trace"] == 0:
            sides = table.setdefault(r["stamp"]["workload"], {side: {} for side in SIDES})
            sides[r["side"]][r["stamp"]["seed"]] = r["result"]["metrics"]
    return table


def summarize(runs, end_to_end) -> dict:
    """Per workload and metric: each side's quartiles and the change's wins."""
    summary = {}
    for workload, by_seed in per_seed(runs).items():
        seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
        table = {}
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            cell = {
                side: _stats([m[name]["value"] for m in by_seed[side].values()])
                for side in SIDES
                if by_seed[side]
            }
            wins = 0
            for seed in seeds:
                parent = by_seed["parent"][seed][name]["value"]
                change = by_seed["change"][seed][name]["value"]
                wins += change > parent if higher else change < parent
            cell["change_wins"] = f"{wins}/{len(seeds)}"
            table[name] = cell
        summary[workload] = table
    return summary


def verdicts(runs, summary, end_to_end) -> list:
    """One line per workload and metric that both sides have run: the
    medians, the relative change, ``change_wins`` and the verdict of
    :func:`compare.verdict` on the per-seed values, ``gain`` only from
    ``_GAIN_PAIRS`` pairs on."""
    lines = []
    for workload, by_seed in per_seed(runs).items():
        if not all(by_seed.values()):
            continue
        for metric in end_to_end:
            name, cell = metric["name"], summary[workload][metric["name"]]
            parent, change = (cell[side]["median"] for side in SIDES)
            relative = f"{(change - parent) / parent:+.1%}" if parent else "n/a"
            base, new = ({seed: m[name]["value"] for seed, m in by_seed[side].items()} for side in SIDES)
            word = compare.verdict(base, new, metric["better"], metric["bound"])
            if word == "gain" and len(base.keys() & new.keys()) < _GAIN_PAIRS:
                word = "no worse"
            lines.append(
                f"{workload} {name}: parent {parent:g} change {change:g} ({relative}), "
                f"change wins {cell['change_wins']}: {word}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, or one seed A")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=20.0, help="passed to run.py (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="passed to run.py (default 0)")
    parser.add_argument("--append", action="store_true", help="add the runs to an existing --out file")
    args = parser.parse_args(argv)
    if not args.seconds >= 0:
        parser.error("--seconds must be nonnegative")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {root} has no perfbench/run.py")
    benchmark = roots["change"] / "BENCHMARK.json"
    if not benchmark.is_file():
        parser.error(f"change checkout {roots['change']} has no BENCHMARK.json")
    end_to_end = json.loads(benchmark.read_text())["end_to_end"]
    data = {"what": None, "summary": {}, "runs": []}
    if args.append:
        if not args.out.is_file():
            parser.error(f"--append: {args.out} does not exist")
        data = json.loads(args.out.read_text())
        held = {
            r["stamp"]["seed"]
            for r in data["runs"]
            if r["stamp"]["workload"] == args.workload and r["stamp"]["trace"] == args.trace
        }
        if held.intersection(args.seeds):
            parser.error(
                f"--append: {args.out} already holds {args.workload} --trace {args.trace} runs "
                f"of seeds {sorted(held.intersection(args.seeds))}"
            )

    for k, seed in enumerate(args.seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            try:
                run = run_once(roots[side], args.workload, seed, args.seconds, args.trace)
            except RuntimeError as e:
                print(f"bench_pairs: {e}", file=sys.stderr)
                return 1
            data["runs"].append({"side": side, **run})
            result = run["result"]
            print(
                f"{args.workload} seed {seed} {side:<6} ops {result['attempted']} correct {result['correct']}",
                file=sys.stderr,
            )
        if data["what"] is None:
            commits = {r["side"]: side_name(roots[r["side"]], r["stamp"]) for r in data["runs"]}
            data["what"] = (
                "perfbench/run.py in alternated pairs (the side that runs first alternates); "
                f"parent {commits['parent']}, change {commits['change']}."
            )
        data["summary"] = summarize(data["runs"], end_to_end)
        for line in verdicts(data["runs"], data["summary"], end_to_end):
            print(line, file=sys.stderr)
        args.out.write_text(json.dumps({k: data[k] for k in ("what", "summary", "runs")}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
