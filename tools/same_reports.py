"""Check that two citenet source trees give byte-identical results on the
benchmark's commands.

Usage:

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC --seed N [--workload W]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``citenet`` package. The corpus of each chosen workload (all of them by
default) is generated once from ``--seed`` with ``bench/corpus.py``, and
every command that ``bench/run.py`` lists for the workload runs as a fresh
``python -m citenet`` process against each tree, with the same arguments
and output directory. Report files, stdout, stderr and exit codes are
compared; the first lines of any difference are printed. Exit status 0
means all of them were byte-identical, 1 that some were not.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from corpus import generate  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_side(src: Path, argv: tuple[str, ...], out: Path, cwd: Path) -> dict[str, bytes]:
    """Run one command against ``src``: its exit code, stdout, stderr and
    report files, each as bytes keyed by name."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "citenet", *argv], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
              "stderr": proc.stderr}
    if out.is_dir():
        result |= {f"report {p.name}": p.read_bytes() for p in sorted(out.iterdir())}
    return result


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {name}: only in the {'change' if a is None else 'parent'}")
            continue
        diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                    b.decode(errors="replace").splitlines(),
                                    "parent", "change", lineterm="", n=0)
        lines.append(f"  {name} differs:")
        lines += [f"    {line}" for line in list(diff)[:12]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "citenet" / "__init__.py").is_file():
            parser.error(f"no citenet package under {src}")

    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        tmp = Path(tmp)
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            corpus, out = tmp / name / "corpus", tmp / name / "out"
            truth = generate(workload.spec, args.seed, corpus)
            for command in workload.commands(corpus, out, truth):
                parent, change = (run_side(src, command.argv, out, tmp) for src in srcs)
                compared += 1
                lines = differences(parent, change)
                if lines:
                    differing += 1
                    print(f"{name} {command.label}: DIFFERENT")
                    print("\n".join(lines))
                else:
                    print(f"{name} {command.label}: same ({len(parent) - 3} report files)")
    print(f"{compared - differing} of {compared} commands byte-identical (seed {args.seed})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
