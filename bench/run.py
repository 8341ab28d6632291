"""citenet benchmark: runs the ``citenet`` CLI the way analysts use it.

Usage (from the repository root):

    python3 bench/run.py --workload doc-rank --seed 1 --seconds 40 --trace 0

Each workload generates a corpus from ``--seed`` (``corpus.py``), then
runs passes over its list of CLI commands until ``--seconds`` have
elapsed and at least ``MIN_PASSES`` passes have run. Every command is a
fresh ``python -m citenet`` process started from this one process, one
at a time. After every pass the reports are checked against the
generated ground truth (``check.py``).

With ``--trace 0`` the end-to-end metrics are printed. With
``--trace 1`` the same commands run in-process through ``cli.main``,
alternating untraced passes with passes that record spans around calls
into each citenet module (``tracing.py``), and the per-layer metrics are
printed. The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Files are written only under ``.bench_work/`` in the repository root.
The program under test is imported from ``src/``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from check import Checker, count_failures
from corpus import CorpusSpec, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
COMMAND_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
# A run never stops before this many passes, even past --seconds. With
# TAIL_BEYOND or fewer passes the tail would be the maximum, one slow
# pass; with only a few more it would be one of the fastest passes, which
# the fast and slow spells of a shared host's CPUs pick by chance. Here it
# is at least the fourth fastest pass (the p29 of 14).
MIN_PASSES = TAIL_BEYOND + 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and how to check its reports."""

    label: str
    family: str  # rank | journal | concentration | study
    check: str  # key into check.CHECKS
    stems: tuple[str, ...]  # report file stems it writes
    argv: tuple[str, ...]  # arguments after the program name
    inputs: tuple[str, ...]  # corpus files it reads
    params: dict = field(default_factory=dict)


def _graph_args(corpus: Path) -> tuple[str, ...]:
    return ("--edges", str(corpus / "edges.csv"), "--docs", str(corpus / "docs.csv"))


GRAPH_INPUTS = ("edges.csv", "docs.csv")


def _doc_rank(corpus: Path, out: Path, truth: dict) -> list[Command]:
    g = _graph_args(corpus)
    out = str(out)
    return [
        Command("pagerank", "rank", "pagerank", ("pagerank",),
                ("pagerank", *g, "--out-dir", out, "--json"), GRAPH_INPUTS),
        Command("hits", "rank", "hits", ("hits-authority", "hits-hub"),
                ("hits", *g, "--top", "100", "--out-dir", out), GRAPH_INPUTS, {"top": 100}),
    ]


def _journal_panel(corpus: Path, out: Path, truth: dict) -> list[Command]:
    g = _graph_args(corpus)
    year = str(truth["cite_year"])
    window = (*g, "--cite-year", year, "--out-dir", str(out))
    shares, thresholds = (0.5, 0.8), (20,)
    curve_flags = [f for s in shares for f in ("--share", str(s))]
    curve_flags += [f for t in thresholds for f in ("--threshold", str(t))]
    return [
        Command("total-cites", "journal", "total-cites", ("total-cites",),
                ("total-cites", *window), GRAPH_INPUTS),
        Command("impact-factor", "journal", "impact-factor", ("impact-factor",),
                ("impact-factor", *window), GRAPH_INPUTS),
        Command("influence", "journal", "influence", ("influence",),
                ("influence", *window, "--prune-nonreferencing"), GRAPH_INPUTS),
        Command("bradford", "concentration", "bradford", ("bradford",),
                ("bradford", *window), GRAPH_INPUTS, {"zones": 3}),
        Command("share-curve", "concentration", "share-curve", ("share-curve",),
                ("share-curve", *window, *curve_flags, "--json"), GRAPH_INPUTS,
                {"shares": shares, "thresholds": thresholds}),
        Command("stability", "concentration", "stability", ("stability",),
                ("stability", *window, "--cite-year-b", str(truth["cite_year"] - 1),
                 "--top", "20"), GRAPH_INPUTS, {"top": 20}),
    ]


def _study_panel(corpus: Path, out: Path, truth: dict) -> list[Command]:
    docs = ("--docs", str(corpus / "docs.csv"))
    ranks = ("--ranks", str(corpus / "rank_records.csv"))
    subjects = list(truth["study"])
    authors = tuple(f for name in subjects for f in ("--author", name))
    outdir = ("--out-dir", str(out))
    ranked_inputs = ("docs.csv", "rank_records.csv")
    return [
        Command("study-sample", "study", "study-sample", ("study-sample",),
                ("study", "sample", *docs, "--author", subjects[0], *outdir), ("docs.csv",),
                {"author": subjects[0]}),
        Command("study-rank-buckets-tc", "study", "study-rank-buckets",
                ("study-rank-buckets-tc",),
                ("study", "rank-buckets", *docs, *ranks, *authors, "--measure", "tc", *outdir),
                ranked_inputs, {"measure": "tc"}),
        Command("study-rank-buckets-if", "study", "study-rank-buckets",
                ("study-rank-buckets-if",),
                ("study", "rank-buckets", *docs, *ranks, *authors, "--measure", "if", *outdir),
                ranked_inputs, {"measure": "if"}),
        Command("study-tc-vs-if", "study", "study-tc-vs-if", ("study-tc-vs-if",),
                ("study", "tc-vs-if", *docs, *ranks, *authors, *outdir), ranked_inputs),
        Command("study-authorship", "study", "study-authorship", ("study-authorship",),
                ("study", "authorship", *docs, *authors, *outdir), ("docs.csv",)),
        Command("study-authorship-reviews", "study", "study-authorship",
                ("study-authorship-reviews",),
                ("study", "authorship", *docs, *authors, "--reviews-only", *outdir),
                ("docs.csv",), {"reviews_only": True}),
        Command("h-index", "study", "h-index", ("h-index",),
                ("h-index", "--profile", str(corpus / "profile.csv"), *outdir), ("profile.csv",)),
        Command("correlate", "study", "correlate", ("correlate",),
                ("correlate", "--data", str(corpus / "xy.csv"), *outdir), ("xy.csv",)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: CorpusSpec
    commands: Callable[[Path, Path, dict], list[Command]]  # (corpus, out, truth)


# Sizes are scaled so that a pass of every workload fits about
# MIN_PASSES times into one run, while the layer each workload is
# built to stress still does most of its work (see design.json).
WORKLOADS = {
    "doc-rank": Workload("doc-rank", CorpusSpec(
        docs=7_000, edges=70_000, journals=300, years=12, authors=2_800,
        model="preferential", fault_rate=0.005), _doc_rank),
    "journal-panel": Workload("journal-panel", CorpusSpec(
        docs=2_200, edges=14_000, journals=200, years=12, authors=1_000), _journal_panel),
    "study-panel": Workload("study-panel", CorpusSpec(
        docs=2_500, edges=0, journals=300, years=12, authors=1_500,
        study_authors=20, profile_rows=400, xy_rows=2_000), _study_panel),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Every command compiles citenet from source, whatever the caller's
    # setting, so no run depends on bytecode left by an earlier one.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, unlike Popen.wait, reports the child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, run_dir: Path) -> list[float]:
    """Wall time of fresh interpreters that import citenet.cli."""
    times = []
    for _ in range(SETUP_REPS):
        code, wall, _ = spawn([sys.executable, "-c", "import citenet.cli"], env,
                              run_dir / "setup.err")
        if code != 0:
            sys.stderr.write((run_dir / "setup.err").read_text(errors="replace"))
            raise SystemExit("bench: citenet.cli cannot be imported from src/")
        times.append(wall)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_cli(workload: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    corpus = run_dir / "corpus"
    truth = generate(workload.spec, seed, corpus)
    env = child_env()
    setup = measure_setup(env, run_dir)

    out = run_dir / "out"
    commands = workload.commands(corpus, out, truth)
    checker = Checker(truth)
    rows_per_pass = sum(truth["rows"][f] for c in commands for f in c.inputs)
    passes: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        record = {"walls": {}, "rss": []}
        pass_start = time.perf_counter()
        codes = {}
        for cmd in commands:
            code, wall, rss = spawn([sys.executable, "-m", "citenet", *cmd.argv], env,
                                    run_dir / f"{cmd.label}.err")
            codes[cmd.label] = code
            record["walls"][cmd.label] = wall
            record["rss"].append(rss)
        record["pass"] = time.perf_counter() - pass_start
        run_problems = {}
        for cmd in commands:
            run_problems[cmd.label] = []
            if codes[cmd.label] != 0:
                err = (run_dir / f"{cmd.label}.err").read_text(errors="replace")
                run_problems[cmd.label] = [f"exit code {codes[cmd.label]}",
                                           *err.strip().splitlines()[-3:]]
        attempted += len(commands)
        failed += count_failures(checker, commands, run_problems, out)
        passes.append(record)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + record["pass"] > seconds):
            break

    pass_times = [p["pass"] for p in passes]
    pass_s = statistics.median(pass_times)
    tail_s, tail_pct = tail(pass_times)
    families: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        per_family: dict[str, float] = defaultdict(float)
        for cmd in commands:
            per_family[cmd.family] += p["walls"][cmd.label]
        for family, value in per_family.items():
            families[family].append(value)

    print(f"{workload.name} seed {seed}: {len(passes)} passes of {len(commands)} commands; "
          f"{rows_per_pass} CSV input rows per pass")
    print(f"pass_s median {pass_s:.4f} s; pass_tail_s {tail_s:.4f} s is the "
          f"p{tail_pct:.1f} of {len(passes)} passes ({TAIL_BEYOND} beyond it)")
    print("pass times: " + ", ".join(f"{t:.3f}" for t in pass_times))
    print("family time per pass (median): " + ", ".join(
        f"{family}_cmds_s {statistics.median(v):.4f}" for family, v in families.items()))
    print("command time (median): " + ", ".join(
        f"{c.label} {statistics.median(p['walls'][c.label] for p in passes):.4f}"
        for c in commands))
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} commands)")

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (pass_s, "s"),
        "pass_tail_s": (tail_s, "s"),
        "rows_per_s": (rows_per_pass / pass_s, "rows/s"),
        "peak_rss_mb": (statistics.median(max(p["rss"]) for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "citenet" / "cli.py").is_file():
        print(f"bench: no citenet sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            from tracing import run_traced

            result = run_traced(workload, args.seed, args.seconds, run_dir, WORK, SRC)
        else:
            result = run_cli(workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        if not math.isfinite(value):
            print(f"bench: metric {name} is not finite", file=sys.stderr)
            return 2
        metrics[name] = {"value": float(value), "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
