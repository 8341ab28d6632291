"""Time the benchmark's commands in fresh processes, alternating two
source trees.

Usage:

    python3 tools/command_time.py PARENT_SRC CHANGE_SRC --workload W --seed N [--pairs N]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``citenet`` package. The workload's corpus is generated once from
``--seed`` with ``bench/corpus.py``. Each pair runs every command that
``bench/run.py`` lists for the workload as one fresh ``python -m citenet``
process per tree, with ``PYTHONDONTWRITEBYTECODE=1`` and otherwise the
caller's environment. The tree that runs first alternates from pair to
pair, so a slow spell of the machine falls on both sides. A time is the
wall time of the whole process, start-up and exit included.

Prints, per command and for the whole pass (the sum of a pair's
commands), the median and quartiles of each side in milliseconds and in
how many pairs the change was faster (a tie counts for neither side). A
command that exits non-zero stops the run. A gain in ``pass_s`` is
still shown with ``bench/run.py`` pairs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/ or tools/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import generate  # noqa: E402
from import_time import summary  # noqa: E402
from run import WORKLOADS  # noqa: E402


def command_seconds(src: Path, argv: tuple[str, ...], out: Path, cwd: Path) -> float:
    """Wall seconds of one ``python -m citenet`` process run against ``src``."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "citenet", *argv], env=env, cwd=cwd,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{argv[0]} exited {proc.returncode} under {src}:\n"
                         + proc.stderr.decode(errors="replace"))
    return wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "citenet" / "__init__.py").is_file():
            parser.error(f"no citenet package under {src}")

    with tempfile.TemporaryDirectory(prefix="command-time-") as tmp:
        tmp = Path(tmp)
        corpus, out = tmp / "corpus", tmp / "out"
        workload = WORKLOADS[args.workload]
        commands = workload.commands(corpus, out, generate(workload.spec, args.seed, corpus))
        labels = [command.label for command in commands]
        times = {label: ([], []) for label in [*labels, "pass"]}  # (parent, change)
        for pair in range(args.pairs):
            sides = (1, 0) if pair % 2 else (0, 1)
            for side in sides:
                times["pass"][side].append(0.0)
            for command in commands:
                for side in sides:
                    wall = command_seconds(srcs[side], command.argv, out, tmp)
                    times[command.label][side].append(wall)
                    times["pass"][side][-1] += wall

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, "
          "parent and change alternating first")
    for label, (parent, change) in times.items():
        wins = sum(c < p for p, c in zip(parent, change))
        print(label)
        print("  " + summary("parent", parent))
        print("  " + summary("change", change))
        print(f"  change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
