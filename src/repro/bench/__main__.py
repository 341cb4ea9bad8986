"""CLI: ``python -m repro.bench <fig5|fig6|fig7|claims|all> [--fast]``."""

from __future__ import annotations

import argparse
import sys

from repro.bench import figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures as tables.",
    )
    parser.add_argument(
        "target",
        choices=["fig5", "fig6", "fig7", "claims", "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="short sweep/horizon (shapes only, not CI-quality)",
    )
    args = parser.parse_args(argv)
    if args.target in ("fig5", "all"):
        figures.fig5_tpcw(fast=args.fast)
        print()
    if args.target in ("fig6", "all"):
        figures.fig6_largedb(fast=args.fast)
        print()
    if args.target in ("fig7", "all"):
        figures.fig7_update_intensive(fast=args.fast)
        print()
    if args.target in ("claims", "all"):
        figures.claims(fast=args.fast)
    return 0


if __name__ == "__main__":
    sys.exit(main())
