#!/usr/bin/env python3
"""Digest the benchmark's op outputs and measure the bytes each op retains.

    python3 scripts/op_digest.py [--workload NAME ...] [--seeds 3 77]
        [--cycles N] [--retain-ops N]

For each workload (default: all of ``perfbench/workloads.py``'s ``WORKLOADS``)
and each workload seed, the library is set up as ``perfbench/run.py`` sets it
up, and two lines are printed:

- ``<workload> seed <s>: <c> cycles, <n> ops, sha256 <hex>``: one SHA-256
  over the key and the ``repr`` of the output of every op of ``c`` whole
  cycles, run untimed from op 0.  Two checkouts whose op outputs are
  repr-identical print the same digest.  The default cycles are those of
  ``CYCLES``; ``--cycles`` sets one count for every workload.
- ``<workload> seed <s>: retained <b> B/op over <n> ops (tracemalloc)``: on
  a fresh set-up, the bytes still allocated after ``n`` ops whose outputs
  are kept, as ``run.py`` keeps them, less those allocated before the first
  op, over ``n``: ``--retain-ops`` rounded up to whole cycles, so that two
  checkouts compare at the same op count whatever their speed.  What a
  function caches in those ops (prepared programs, cells, points) counts.
  ``--retain-ops 0`` leaves the line out.

The workloads are imported from ``perfbench/`` and read, never changed.
Exits 2 on a usage error, such as a ``--workload`` that is not one of
``WORKLOADS``, before anything runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run
import workloads

# whole cycles digested per workload seed by default: about 1800 genericity
# trials, 318 adversarial ops and 84 prox ops
CYCLES = {"genericity": 200, "adversarial": 3, "prox": 6}


def set_up(name: str, seed: int):
    """The workload ``name`` of ``seed`` on a freshly imported library."""
    workload = workloads.WORKLOADS[name](seed)
    workload.set_up(run.load_library())
    return workload


def digest(name: str, seed: int, cycles: int) -> tuple:
    """(ops, SHA-256 hex) over the key and output repr of ``cycles`` cycles."""
    workload = set_up(name, seed)
    h = hashlib.sha256()
    ops = cycles * workload.cycle
    for k in range(ops):
        _, key, fn, args = workload.prepare(k)
        h.update(f"{key}\n{fn(*args)!r}\n".encode())
    return ops, h.hexdigest()


def retained(name: str, seed: int, ops: int) -> tuple:
    """(ops, bytes retained per op) over ``ops`` rounded up to whole cycles."""
    workload = set_up(name, seed)
    ops = -(-ops // workload.cycle) * workload.cycle
    outputs = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(ops):
            _, _, fn, args = workload.prepare(k)
            outputs.append(fn(*args))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return ops, (after - before) / ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to run; repeat for more (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 77], help="workload seeds (default 3 77)")
    parser.add_argument("--cycles", type=int, help="whole cycles to digest, for every workload (default: CYCLES)")
    parser.add_argument("--retain-ops", type=int, default=2000, help="ops of the retained-bytes line (default 2000; 0: none)")
    args = parser.parse_args(argv)
    if any(seed < 0 for seed in args.seeds):
        parser.error("--seeds must be nonnegative integers")
    if args.cycles is not None and args.cycles < 1:
        parser.error("--cycles must be at least 1")
    if args.retain_ops < 0:
        parser.error("--retain-ops must be nonnegative")
    if not (ROOT / "src" / "nondegen" / "__init__.py").is_file():
        parser.error(f"no library source at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            cycles = args.cycles or CYCLES[name]
            ops, hexdigest = digest(name, seed, cycles)
            print(f"{name} seed {seed}: {cycles} cycles, {ops} ops, sha256 {hexdigest}", flush=True)
            if args.retain_ops:
                ops, per_op = retained(name, seed, args.retain_ops)
                print(f"{name} seed {seed}: retained {per_op:.0f} B/op over {ops} ops (tracemalloc)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
