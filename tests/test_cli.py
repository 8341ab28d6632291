"""End-to-end CLI runs on bundled fixtures: golden comparisons,
determinism, and exit codes."""

import filecmp
from pathlib import Path

import pytest

from citenet.cli import main
from laureate_fixture import SUBJECT_NAMES

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

AUTHOR_FLAGS = [flag for name in SUBJECT_NAMES for flag in ("--author", name)]


def rank_study_args(command, *extra):
    return [
        "study", command,
        "--docs", str(DATA / "laureates_ranks" / "docs.csv"),
        "--ranks", str(DATA / "laureates_ranks" / "rank_records.csv"),
        *AUTHOR_FLAGS,
        *extra,
    ]


def author_study_args(*extra):
    return [
        "study", "authorship",
        "--docs", str(DATA / "laureates_authors" / "docs.csv"),
        *AUTHOR_FLAGS,
        *extra,
    ]


def assert_matches_golden(produced: Path, name: str):
    expected = (GOLDEN / name).read_bytes()
    assert produced.read_bytes() == expected, f"{produced} deviates from golden {name}"


class TestGoldenReports:
    def test_rank_buckets_tc_golden(self, tmp_path):
        code = main(rank_study_args("rank-buckets", "--measure", "tc", "--json",
                                    "--out-dir", str(tmp_path)))
        assert code == 0
        for suffix in (".csv", ".txt", ".json"):
            assert_matches_golden(tmp_path / f"study-rank-buckets-tc{suffix}",
                                  f"study-rank-buckets-tc{suffix}")

    def test_tc_vs_if_golden(self, tmp_path):
        code = main(rank_study_args("tc-vs-if", "--out-dir", str(tmp_path)))
        assert code == 0
        for suffix in (".csv", ".txt"):
            assert_matches_golden(tmp_path / f"study-tc-vs-if{suffix}",
                                  f"study-tc-vs-if{suffix}")

    def test_authorship_goldens(self, tmp_path):
        assert main(author_study_args("--out-dir", str(tmp_path))) == 0
        assert main(author_study_args("--reviews-only", "--out-dir", str(tmp_path))) == 0
        for name in ("study-authorship.csv", "study-authorship.txt",
                     "study-authorship-reviews.csv", "study-authorship-reviews.txt"):
            assert_matches_golden(tmp_path / name, name)

    def test_authorship_footers(self, tmp_path):
        main(author_study_args("--out-dir", str(tmp_path)))
        main(author_study_args("--reviews-only", "--out-dir", str(tmp_path)))
        all_works = (tmp_path / "study-authorship.txt").read_text()
        reviews = (tmp_path / "study-authorship-reviews.txt").read_text()
        assert "Overall % primary author of works: 40.3" in all_works
        assert "Overall % primary author of review articles: 68.8" in reviews

    def test_pagerank_cycle_golden(self, tmp_path):
        code = main(["pagerank", "--edges", str(DATA / "cycle_edges.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert_matches_golden(tmp_path / "pagerank.csv", "pagerank.csv")
        assert_matches_golden(tmp_path / "pagerank.txt", "pagerank.txt")


class TestDeterminism:
    CASES = {
        "pagerank": ["pagerank", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv")],
        "hits": ["hits", "--edges", str(DATA / "mini" / "edges.csv")],
        "influence": ["influence", "--matrix", str(DATA / "matrix2.csv")],
        "total-cites": ["total-cites", "--edges", str(DATA / "mini" / "edges.csv"),
                        "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005"],
        "impact-factor": ["impact-factor", "--edges", str(DATA / "mini" / "edges.csv"),
                          "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005"],
        "h-index": ["h-index", "--profile", str(DATA / "profile.csv")],
        "bradford": ["bradford", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"),
                     "--cite-year", "2005", "--zones", "2"],
        "share-curve": ["share-curve", "--edges", str(DATA / "mini" / "edges.csv"),
                        "--docs", str(DATA / "mini" / "docs.csv"),
                        "--cite-year", "2005", "--share", "0.5"],
        "stability": ["stability", "--edges", str(DATA / "mini" / "edges.csv"),
                      "--docs", str(DATA / "mini" / "docs.csv"),
                      "--cite-year", "2005", "--cite-year-b", "2004", "--top", "2"],
        "correlate": ["correlate", "--data", str(DATA / "xy.csv"), "--method", "spearman"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_double_run_is_byte_identical(self, name, tmp_path):
        args = self.CASES[name]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--json", "--out-dir", str(out_a)]) == 0
        assert main([*args, "--json", "--out-dir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()

    def test_study_commands_deterministic(self, tmp_path):
        for args in (rank_study_args("rank-buckets", "--measure", "if"),
                     author_study_args()):
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert main([*args, "--out-dir", str(out_a)]) == 0
            assert main([*args, "--out-dir", str(out_b)]) == 0
            match, mismatch, errors = filecmp.cmpfiles(
                out_a, out_b, [p.name for p in out_a.iterdir()], shallow=False
            )
            assert not mismatch and not errors and match


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["h-index", "--profile", str(DATA / "profile.csv")]) == 0
        assert "H-Index" in capsys.readouterr().out

    def test_usage_error_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err

    def test_usage_error_missing_required(self, capsys):
        assert main(["influence"]) == 1
        assert "--matrix" in capsys.readouterr().err
        assert main(["correlate"]) == 1

    def test_data_error_missing_file(self, capsys):
        assert main(["h-index", "--profile", "/does/not/exist.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_unknown_journal(self, capsys):
        code = main(["total-cites", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"),
                     "--cite-year", "2005", "--journal", "Nope"])
        assert code == 2

    def test_non_convergence_exit(self, tmp_path, capsys):
        code = main(["pagerank", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--max-iter", "2", "--tol", "1e-30",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        assert (tmp_path / "pagerank.csv").exists()  # partial result still written

    @pytest.mark.parametrize("solver", ["pagerank", "hits", "influence"])
    @pytest.mark.parametrize("flag", ["--tol=-1", "--tol=0", "--tol=nan", "--max-iter=0"])
    def test_bad_stopping_rule_is_a_data_error(self, solver, flag, capsys):
        assert main([*TestDeterminism.CASES[solver], flag]) == 2
        message = "tol must be positive" if flag.startswith("--tol") else "max_iter must be >= 1"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["hits", "influence weights"])
    def test_non_convergence_warning(self, solver, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("journal,A,B,pubs\nA,0,4,2\nB,1,0,3\n")
        args = {"hits": TestDeterminism.CASES["hits"],
                "influence weights": ["influence", "--matrix", str(matrix)]}[solver]
        assert main([*args, "--max-iter", "1", "--tol", "1e-300"]) == 3
        warning = capsys.readouterr().err.strip()
        assert warning.startswith(f"warning: {solver} did not converge in 1 iterations (residual ")

    def test_data_error_zero_variance_correlation(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n1,5\n2,5\n3,5\n")
        assert main(["correlate", "--data", str(path)]) == 2
        assert "zero variance" in capsys.readouterr().err


class TestCliBehaviors:
    def test_influence_on_symmetric_fixture_gives_unit_weights(self, capsys):
        assert main(["influence", "--matrix", str(DATA / "matrix2.csv")]) == 0
        out = capsys.readouterr().out
        assert "Alpha    1.0" in out
        assert "Beta     1.0" in out

    def test_influence_prune_flag(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,C,pubs\nA,0,4,1,2\nB,3,0,0,3\nC,0,0,0,1\n")
        assert main(["influence", "--matrix", str(path)]) == 2
        capsys.readouterr()
        assert main(["influence", "--matrix", str(path), "--prune-nonreferencing"]) == 0
        captured = capsys.readouterr()
        assert "pruned" in captured.err and "C" in captured.err
        assert "C" not in [line.split()[1] for line in captured.out.splitlines()
                           if line and line[0].isdigit()]

    def test_influence_from_graph_inputs(self, capsys):
        code = main(["influence", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Gamma" in captured.err  # dropped: no window publications
        assert "Alpha" in captured.out and "1.333333333333" in captured.out

    def test_influence_needs_matrix_or_cite_year(self, capsys):
        assert main(["influence", "--edges", str(DATA / "mini" / "edges.csv")]) == 1
        assert "cite-year" in capsys.readouterr().err

    def test_influence_prune_can_empty_the_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,pubs\nA,0,4,2\nB,0,0,3\n")
        assert main(["influence", "--matrix", str(path), "--prune-nonreferencing"]) == 2
        assert "no journals left" in capsys.readouterr().err

    def test_impact_factor_excludes_superclassic_only_journal(self, capsys):
        main(["impact-factor", "--edges", str(DATA / "mini" / "edges.csv"),
              "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005"])
        out = capsys.readouterr().out
        assert "excluded" in out and "Gamma" in out

    def test_total_cites_includes_superclassic_journal(self, capsys):
        main(["total-cites", "--edges", str(DATA / "mini" / "edges.csv"),
              "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005",
              "--journal", "Gamma"])
        out = capsys.readouterr().out
        assert "Gamma" in out

    def test_json_to_stdout(self, capsys):
        assert main(["h-index", "--profile", str(DATA / "profile.csv"), "--json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{")
        assert '"H-Index"' in out

    def test_strict_flag_propagates(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\nbadrow\n")
        assert main(["pagerank", "--edges", str(edges), "--strict"]) == 2
        capsys.readouterr()
        assert main(["pagerank", "--edges", str(edges)]) == 0
        assert "warning" in capsys.readouterr().err
