"""numpy is imported on first array use (``citenet._numpy``), which only
the solver commands reach, and each citenet module when a command first
runs it.

Each test runs in a fresh interpreter, where numpy is not yet imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from laureate_fixture import SUBJECT_NAMES

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
SRC = TESTS.parent / "src"
BENCH = TESTS.parent / "bench"


def run_fresh(script: str, *args: str, path: tuple[Path, ...] = (),
              blas_threads: str | None = None) -> subprocess.CompletedProcess:
    # OPENBLAS_NUM_THREADS is the given value, or unset: an in-process
    # cli.main() earlier in the session has set it in this environment.
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), *map(str, path), env.get("PYTHONPATH")])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_docs_only_commands_never_import_numpy(tmp_path):
    authors = [flag for name in SUBJECT_NAMES for flag in ("--author", name)]
    by_author = ["--docs", str(DATA / "laureates_authors" / "docs.csv"), *authors]
    by_rank = ["--docs", str(DATA / "laureates_ranks" / "docs.csv"),
               "--ranks", str(DATA / "laureates_ranks" / "rank_records.csv"), *authors]
    out = ["--out-dir", str(tmp_path)]
    docs_only = [
        ["study", "sample", "--docs", str(DATA / "laureates_authors" / "docs.csv"),
         "--author", SUBJECT_NAMES[0], *out],
        ["study", "rank-buckets", *by_rank, *out],
        ["study", "tc-vs-if", *by_rank, *out],
        ["study", "authorship", *by_author, *out],
        ["study", "authorship", *by_author, "--reviews-only", *out],
        ["h-index", "--profile", str(DATA / "profile.csv"), *out],
        ["correlate", "--data", str(DATA / "xy.csv"), *out],
        ["correlate", "--data", str(DATA / "xy.csv"), "--method", "spearman", *out],
    ]
    solver = ["pagerank", "--edges", str(DATA / "mini" / "edges.csv"), *out]
    script = textwrap.dedent("""
        import json, sys
        import citenet, citenet.cli
        docs_only, solver = json.loads(sys.argv[1])
        for args in docs_only:
            assert citenet.cli.main(args) == 0, args
        assert "numpy" not in sys.modules, "a docs-only command imported numpy"
        assert citenet.cli.main(solver) == 0
        assert "numpy" in sys.modules
    """)
    run = run_fresh(script, json.dumps([docs_only, solver]))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "pagerank.csv").exists()


def test_threads_racing_the_first_import_all_get_numpy():
    script = textwrap.dedent("""
        import sys, threading
        sys.setswitchinterval(1e-6)
        from citenet._numpy import np
        assert "numpy" not in sys.modules
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n

        def work(i):
            barrier.wait()
            results[i] = int(np.bincount(np.arange(i + 1), minlength=n).sum())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == list(range(1, n + 1)), results
    """)
    run = run_fresh(script)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_solver_command_starts_no_blas_thread(preset, expected, tmp_path):
    # No command calls BLAS, so cli.main keeps OpenBLAS from starting its
    # thread pool when numpy loads, unless the caller chose a value.
    script = textwrap.dedent("""
        import os, sys
        import citenet.cli
        assert citenet.cli.main(sys.argv[2:]) == 0
        assert "numpy" in sys.modules
        if sys.argv[1] == "1" and os.path.isdir("/proc/self/task"):
            threads = os.listdir("/proc/self/task")
            assert len(threads) == 1, threads
        value = os.environ.get("OPENBLAS_NUM_THREADS")
        assert value == sys.argv[1], value
    """)
    run = run_fresh(script, expected, "pagerank", "--edges", str(DATA / "mini" / "edges.csv"),
                    "--out-dir", str(tmp_path), blas_threads=preset)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "pagerank.csv").exists()


def test_cli_import_loads_errors_and_graph_only():
    # Compared with the modules loaded before the import, since site
    # hooks may import some of these stdlib modules at start-up.
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import citenet.cli
        loaded = set(sys.modules) - before
        ours = sorted(name for name in loaded if name.split(".")[0] == "citenet")
        assert ours == ["citenet", "citenet._numpy", "citenet.cli", "citenet.errors",
                        "citenet.graph"], ours
        heavy = sorted(loaded & {"numpy", "statistics", "random", "decimal", "json"})
        assert heavy == [], heavy
    """)
    run = run_fresh(script)
    assert run.returncode == 0, run.stderr


MINI = ["--edges", str(DATA / "mini" / "edges.csv"), "--docs", str(DATA / "mini" / "docs.csv")]
PROFILE = ["h-index", "--profile", str(DATA / "profile.csv")]


@pytest.mark.parametrize(
    "commands, unused",
    [
        (
            [
                ["study", "sample", "--docs", str(DATA / "laureates_authors" / "docs.csv"),
                 "--author", SUBJECT_NAMES[0]],
                PROFILE,
                ["correlate", "--data", str(DATA / "xy.csv")],
                ["correlate", "--data", str(DATA / "xy.csv"), "--method", "spearman"],
            ],
            ["citenet.concentration", "citenet.ranking"],
        ),
        # Commands that build a table but run no study logic.
        (
            [
                ["pagerank", *MINI],
                ["hits", *MINI],
                ["influence", *MINI, "--cite-year", "2005", "--prune-nonreferencing"],
                ["total-cites", *MINI, "--cite-year", "2005"],
                ["impact-factor", *MINI, "--cite-year", "2005"],
                ["bradford", *MINI, "--cite-year", "2005", "--zones", "2"],
                ["share-curve", *MINI, "--cite-year", "2005"],
                ["stability", *MINI, "--cite-year", "2005", "--cite-year-b", "2004", "--top", "1"],
                PROFILE,
            ],
            ["citenet.study"],
        ),
        # impact-factor ranks its values as total-cites ranks counts.
        (
            [
                ["impact-factor", *MINI, "--cite-year", "2005"],
                ["impact-factor", *MINI, "--cite-year", "2005", "--journal", "Alpha"],
                ["impact-factor", *MINI, "--cite-year", "2005", "--doc-types", "article,review"],
                PROFILE,
            ],
            ["citenet.ranking", "citenet.study"],
        ),
    ],
    ids=["docs-only", "no-study-logic", "impact-factor"],
)
def test_commands_load_only_the_modules_they_run(commands, unused, tmp_path):
    commands = [[*args, "--out-dir", str(tmp_path)] for args in commands]
    script = textwrap.dedent("""
        import json, sys
        import citenet.cli
        commands, unused = json.loads(sys.argv[1])
        for args in commands:
            assert citenet.cli.main(args) == 0, args
        loaded = sorted(set(unused) & set(sys.modules))
        assert loaded == [], loaded
    """)
    run = run_fresh(script, json.dumps([commands, unused]))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "h-index.txt").exists()


JOURNAL_COMMANDS = [
    ["total-cites", *MINI, "--cite-year", "2005"],
    ["total-cites", *MINI, "--cite-year", "2005", "--journal", "Alpha"],
    ["impact-factor", *MINI, "--cite-year", "2005"],
    ["impact-factor", *MINI, "--cite-year", "2005", "--journal", "Alpha"],
    ["impact-factor", *MINI, "--cite-year", "2005", "--doc-types", "article,review"],
    ["bradford", *MINI, "--cite-year", "2005", "--zones", "2"],
    ["share-curve", *MINI, "--cite-year", "2005", "--share", "0.5", "--threshold", "2"],
    ["stability", *MINI, "--cite-year", "2005", "--cite-year-b", "2004", "--top", "1"],
    ["stability", *MINI, "--cite-year", "2005", "--cite-year-b", "2004", "--top", "1",
     "--by", "articles"],
    ["stability", *MINI, "--cite-year", "2005", "--cite-year-b", "2004", "--top", "1",
     "--by", "references"],
]


@pytest.mark.parametrize("solver", [
    ["influence", *MINI, "--cite-year", "2005", "--prune-nonreferencing"],
    ["pagerank", *MINI],
    ["hits", *MINI],
], ids=lambda args: args[0])
def test_only_solver_commands_import_numpy(solver, tmp_path):
    # The journal and concentration commands count with Python ints; a
    # solver iterates arrays, and so does the journal matrix it reads.
    out = ["--out-dir", str(tmp_path)]
    script = textwrap.dedent("""
        import json, sys
        import citenet.cli
        journal, solver = json.loads(sys.argv[1])
        for args in journal:
            assert citenet.cli.main(args) == 0, args
        assert "numpy" not in sys.modules, "a journal command imported numpy"
        assert citenet.cli.main(solver) == 0
        assert "numpy" in sys.modules, solver
    """)
    commands = [[*args, *out] for args in JOURNAL_COMMANDS], [*solver, *out]
    run = run_fresh(script, json.dumps(commands))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "stability.txt").exists()


def test_bench_tracer_targets_exist_after_cli_import():
    # bench/tracing.py patches these attributes after a warm-up pass; each
    # must be a module or class attribute once citenet.cli is imported.
    script = textwrap.dedent("""
        import citenet, citenet.cli
        from tracing import _targets
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in _targets(citenet)
                   if attr not in vars(owner)]
        assert missing == [], missing
    """)
    run = run_fresh(script, path=(BENCH,))
    assert run.returncode == 0, run.stderr


def test_bench_tracer_graph_targets_are_called(monkeypatch, tmp_path):
    # A target that still exists but is no longer called through its
    # owner would read 0 s under --trace 1, so wrap each one as
    # bench/tracing.py does and count the calls.
    import citenet.cli
    from citenet import formats
    from citenet.graph import CitationGraph

    calls = []
    for owner, attr in ((formats, "build_graph"), (CitationGraph, "edge_arrays"),
                        (citenet.cli, "aggregate_to_journal_matrix")):
        assert attr in vars(owner)

        def wrapper(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    mini = ["--edges", str(DATA / "mini" / "edges.csv"), "--docs", str(DATA / "mini" / "docs.csv")]
    assert citenet.cli.main(["influence", "--cite-year", "2005", *mini,
                             "--out-dir", str(tmp_path / "influence")]) == 0
    assert set(calls) == {"build_graph", "edge_arrays", "aggregate_to_journal_matrix"}
    calls.clear()
    docs = DATA / "laureates_authors" / "docs.csv"
    assert citenet.cli.main(["study", "sample", "--docs", str(docs), "--author", SUBJECT_NAMES[0],
                             "--out-dir", str(tmp_path / "sample")]) == 0
    assert calls == ["build_graph"]
