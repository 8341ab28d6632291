"""Time one import in fresh interpreters, alternating two source trees.

Usage:

    python3 tools/import_time.py PARENT_SRC CHANGE_SRC MODULE [--pairs N]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories put on ``PYTHONPATH``,
such as the ``src`` directories of two checkouts. Each pair runs one
fresh ``python`` process per tree, and the tree that runs first
alternates from pair to pair, so a slow spell of the machine falls on
both sides. Every process runs with ``PYTHONDONTWRITEBYTECODE=1`` and
times ``import MODULE`` with ``time.perf_counter``, leaving out
interpreter start-up. The time covers every module the import loads,
also a submodule that ``-X importtime`` does not list because it is
imported inside a function. A ``__pycache__`` already in a tree is
still read, so time clean copies to include the compile cost.

Prints the median and quartiles of each side in milliseconds, and in
how many pairs the change was faster (a tie counts for neither side).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

_TIMER = (
    "import importlib, sys, time\n"
    "start = time.perf_counter()\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds(src: Path, module: str) -> float:
    """Seconds that ``import module`` takes in a fresh interpreter with
    ``src`` as its ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _TIMER, module], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"import {module} failed under {src}:\n{proc.stderr}")
    return float(proc.stdout)


def summary(name: str, seconds: list[float]) -> str:
    # One sample is its own median and quartiles; quantiles() needs two.
    if len(seconds) == 1:
        quartiles = seconds * 3
    else:
        quartiles = statistics.quantiles(seconds, n=4, method="inclusive")
    q1, median, q3 = (1000 * q for q in quartiles)
    return f"{name:<7} median {median:7.2f} ms  quartiles {q1:.2f}-{q3:.2f} ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("module")
    parser.add_argument("--pairs", type=int, default=20, help="number of pairs (default: 20)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not src.is_dir():
            parser.error(f"no directory {src}")

    parent: list[float] = []
    change: list[float] = []
    for pair in range(args.pairs):
        order = [(srcs[0], parent), (srcs[1], change)]
        for src, times in order[::-1] if pair % 2 else order:
            times.append(import_seconds(src, args.module))
    wins = sum(c < p for p, c in zip(parent, change))
    print(f"import {args.module}: {args.pairs} pairs, parent and change alternating first")
    print(summary("parent", parent))
    print(summary("change", change))
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
