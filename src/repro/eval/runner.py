"""Command-line experiment runner.

Regenerates the paper's tables/figures from the shell::

    python -m repro.eval.runner --experiment table2
    python -m repro.eval.runner --experiment all --out results/

Each experiment prints its formatted rows and (with ``--out``) writes
them to ``<out>/<name>.txt``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from repro.distrib.launchers import LAUNCHERS
from repro.eval import experiments as exp

#: name -> (runner(**kwargs), formatter)
EXPERIMENTS = {
    "table2": (exp.run_table2, exp.format_table2),
    "table3": (exp.run_table3, exp.format_table3),
    "table4": (exp.run_table4, exp.format_table4),
    "table5": (exp.run_table5, exp.format_table5),
    "fig4": (exp.run_fig4, exp.format_fig4),
    "fig6": (exp.run_fig6, exp.format_fig6),
    "fig7": (exp.run_fig7, exp.format_fig7),
    "reaction_time": (exp.run_reaction_time, exp.format_reaction_time),
}


def run_experiment(
    name: str,
    seed: int,
    quick: bool,
    shards: int = 1,
    launcher: "str | None" = None,
    shard_dir: "str | None" = None,
    max_retries: int = 0,
) -> str:
    """Run one experiment and return its formatted text.

    The sharding knobs ``shards``/``launcher``/``shard_dir``/
    ``max_retries`` are forwarded to experiments whose runners accept
    them (the ones driving compiler searches); the search results are
    identical to a serial run (and, with retries, crash-tolerant).
    """
    runner, formatter = EXPERIMENTS[name]
    kwargs: dict = {"seed": seed}
    if name != "fig6":  # fig6 takes n_flows rather than quick
        kwargs["quick"] = quick
    accepted = inspect.signature(runner).parameters
    if "shards" in accepted:
        kwargs["shards"] = shards
        kwargs["launcher"] = launcher
        kwargs["shard_dir"] = shard_dir
        kwargs["max_retries"] = max_retries
    result = runner(**kwargs)
    return formatter(result)


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the Homunculus paper's tables and figures."
    )
    parser.add_argument(
        "--experiment",
        default="all",
        choices=["all", *EXPERIMENTS],
        help="which experiment to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the larger (slower) dataset/budget configuration",
    )
    parser.add_argument("--out", default=None, help="directory for .txt artifacts")
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard compiler-driven experiments over this many shards "
             "(identical results; see docs/distrib.md)",
    )
    parser.add_argument(
        "--launcher", default=None, choices=sorted(LAUNCHERS),
        help="shard launcher (default: inprocess)",
    )
    parser.add_argument(
        "--shard-dir", default=None,
        help="scratch directory for shard task/result/spill files",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0,
        help="re-post failed shard tasks this many times before aborting",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name in names:
        start = time.time()
        text = run_experiment(
            name,
            seed=args.seed,
            quick=not args.full,
            shards=args.shards,
            launcher=args.launcher,
            shard_dir=args.shard_dir,
            max_retries=args.max_retries,
        )
        elapsed = time.time() - start
        print(f"\n=== {name} ({elapsed:.1f}s) ===\n{text}")
        if args.out:
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")
            print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
