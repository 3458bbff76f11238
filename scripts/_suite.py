"""The settings of the experiment suite scripts: their five flags, checked by
the CLI's own sampler check, and the output directory."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nondegen.cli import UsageError, _integer, _sampler


def settings(description, trials_help, outdir, argv=None):
    """``(args, cfg)`` for a suite: ``cfg`` is :func:`nondegen.cli._sampler`'s
    ``SamplerConfig``, and ``args.outdir`` exists.  A bad setting is a usage
    error, exit 2, raised before ``--outdir`` is created."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--trials", type=_integer, default=1000, help=trials_help)
    parser.add_argument("--seed", type=_integer, default=42, help="base PRNG seed")
    parser.add_argument("--bits", type=_integer, default=64, help="bit width of sampled rationals")
    parser.add_argument("--radius", default="1", help="sampling box radius (rational token)")
    parser.add_argument("--outdir", type=Path, default=Path(outdir), help="CSV output directory")
    args = parser.parse_args(argv)
    try:
        cfg = _sampler(args)
    except UsageError as e:
        parser.error(str(e))
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        parser.error(f"cannot create --outdir '{args.outdir}': {e}")
    return args, cfg
