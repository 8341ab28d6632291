"""End-to-end CLI runs on bundled fixtures: golden comparisons,
determinism, and exit codes."""

import argparse
import filecmp
import json
import re
from pathlib import Path

import pytest

from citenet.cli import build_parser, main
from laureate_fixture import SUBJECT_NAMES

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

AUTHOR_FLAGS = [flag for name in SUBJECT_NAMES for flag in ("--author", name)]
MISSING_INPUTS = ["--edges", str(DATA / "missing" / "edges.csv"),
                  "--docs", str(DATA / "missing" / "docs.csv")]


MINI_INPUTS = ["--edges", str(DATA / "mini" / "edges.csv"),
               "--docs", str(DATA / "mini" / "docs.csv")]
# Three journals whose plain and reference-weighted mean weights differ.
ASYMMETRIC_MATRIX = "journal,A,B,C,pubs\nA,1,4,2,3\nB,3,0,5,2\nC,2,1,0,4\n"


def json_rows(capsys, argv):
    """The table rows that ``argv --json`` prints, after a zero exit."""
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


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

    def test_negative_share_curve_threshold_is_a_data_error(self, capsys):
        assert main(["share-curve", *MINI_INPUTS, "--cite-year", "2005",
                     "--threshold", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "citenet: error: threshold must be >= 0, got -1\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("solver", [["pagerank"], ["hits"], ["influence", "--cite-year", "2011"]])
    def test_bad_stopping_rule_rejected_before_loading(self, solver, tmp_path, capsys):
        missing = ["--edges", str(tmp_path / "missing.csv"), "--docs", str(tmp_path / "gone.csv")]
        assert main([*solver, *missing, "--tol=-1"]) == 2
        err = capsys.readouterr().err
        assert "tol must be positive" in err and "No such file" not in err

    @pytest.mark.parametrize("command", [["total-cites"], ["impact-factor"]])
    def test_unknown_journal_is_named(self, command, capsys):
        code = main([*command, "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"),
                     "--cite-year", "2005", "--journal", "nope"])
        assert code == 2
        assert "unknown journal 'nope'" in capsys.readouterr().err

    def test_impact_factor_of_journal_without_window_items(self, capsys):
        code = main(["impact-factor", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"),
                     "--cite-year", "2005", "--journal", "Gamma"])
        assert code == 2
        assert ("journal 'Gamma' published no countable items in 2003-2004"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("solver", ["hits", "influence weights"])
    def test_non_convergence_warning(self, solver, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("journal,A,B,pubs\nA,0,4,2\nB,1,0,3\n")
        args = {"hits": TestDeterminism.CASES["hits"],
                "influence weights": ["influence", "--matrix", str(matrix)]}[solver]
        assert main([*args, "--max-iter", "1", "--tol", "1e-300"]) == 3
        warning = capsys.readouterr().err.strip()
        assert warning.startswith(f"warning: {solver} did not converge in 1 iterations (residual ")

    @pytest.mark.parametrize("kind", ["edges", "docs", "matrix", "xy"])
    def test_non_utf8_byte_names_file_and_line(self, kind, tmp_path, capsys):
        good = {
            "edges": b"citing_id,cited_id\na1,b1\n",
            "docs": b"id,venue,year,doc_type,cites,authors\na1,J,2000,article,0,\n",
            "matrix": b"journal,A,B,pubs\nA,0,4,2\n",
            "xy": b"x,y\n1,2\n",
        }[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(good + b"b\xff,c\n")
        args = {
            "edges": ["pagerank", "--edges", str(path)],
            "docs": ["pagerank", "--edges", str(DATA / "mini" / "edges.csv"), "--docs", str(path)],
            "matrix": ["influence", "--matrix", str(path)],
            "xy": ["correlate", "--data", str(path)],
        }[kind]
        assert main(args) == 2
        assert capsys.readouterr().err == f"citenet: error: {path}:3: not valid UTF-8\n"

    def test_csv_syntax_error_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text(f"citing_id,cited_id\n{'a' * 140_000},b\n")
        assert main(["pagerank", "--edges", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"citenet: error: {path}:2: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("kind", ["docs", "matrix"])
    def test_number_too_large_for_64_bits_names_file_and_line(self, kind, tmp_path, capsys):
        big = "9" * 20
        path = tmp_path / f"{kind}.csv"
        path.write_text({
            "docs": f"id,venue,year,doc_type,cites,authors\nb,J,2000,,,\na,J,{big},,,\n",
            "matrix": f"journal,A,B,pubs\nA,0,1,2\nB,{big},0,3\n",
        }[kind])
        args = {
            "docs": ["impact-factor", "--docs", str(path), "--cite-year", "2001", "--strict"],
            "matrix": ["influence", "--matrix", str(path)],
        }[kind]
        assert main(args) == 2
        assert capsys.readouterr().err == {
            "docs": f"citenet: error: {path}:3: document 'a': year {big} is out of range\n",
            "matrix": f"citenet: error: {path}:3: Python int too large to convert to C long\n",
        }[kind]

    def test_unknown_author_is_named(self, capsys):
        code = main(["study", "sample", "--docs", str(DATA / "laureates_authors" / "docs.csv"),
                     "--author", "Nobody"])
        assert code == 2
        assert capsys.readouterr().err == "citenet: error: no documents authored by 'Nobody'\n"

    @pytest.mark.parametrize("venueless", [("x", "y"), ("y", "x")])
    def test_first_venueless_document_in_id_order_is_named(self, venueless, tmp_path, capsys):
        edges, docs = tmp_path / "edges.csv", tmp_path / "docs.csv"
        edges.write_text("citing_id,cited_id\na,b\n")
        docs.write_text("id,venue,year,doc_type,cites,authors\na,J,2005,,,\n"
                        + "".join(f"{doc},,2004,,,\n" for doc in venueless))
        code = main(["influence", "--edges", str(edges), "--docs", str(docs),
                     "--cite-year", "2005"])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            "citenet: error: document 'x' is inside the window but has no venue\n"
        )

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (["hits", "--top", "abc"], 1, "citenet hits: argument --top: invalid int value: 'abc'"),
            (["hits", "--top", "0"], 1, "citenet hits: argument --top: 0 must be >= 1"),
            (
                ["study", "sample", "--docs", str(DATA / "mini" / "docs.csv"),
                 "--author", "M. Okafor", "--every", "0"],
                1,
                "citenet study sample: argument --every: 0 must be >= 1",
            ),
            (
                ["influence", "--cite-year", "2011", "--source-years", "bad"],
                1,
                "citenet influence: bad --source-years 'bad'",
            ),
            (
                ["influence", "--cite-year", "2011", "--source-years", "2012:2010"],
                2,
                "citenet: error: source_years (2012, 2010) not an increasing range",
            ),
            (
                ["influence", "--cite-year", "2011", "--source-years", "2009:2012"],
                2,
                "citenet: error: source_years (2009, 2012) extend past cite_year 2011",
            ),
            # The window is checked before the inputs are read.
            (
                ["influence", "--cite-year", "2011", "--source-years", "bad", *MISSING_INPUTS],
                1,
                "citenet influence: bad --source-years 'bad'",
            ),
            (
                ["influence", "--cite-year", "2011", "--source-years", "2012:2010",
                 *MISSING_INPUTS],
                2,
                "citenet: error: source_years (2012, 2010) not an increasing range",
            ),
            (
                ["bradford", "--cite-year", "2005", "--targets", "abc"],
                1,
                "citenet bradford: bad --targets 'abc'",
            ),
            (
                ["bradford", "--cite-year", "2005", "--targets", "abc", *MISSING_INPUTS],
                1,
                "citenet bradford: bad --targets 'abc'",
            ),
            (
                ["impact-factor", "--cite-year", "2005", "--doc-types", "bogus"],
                1,
                "citenet impact-factor: bad --doc-types 'bogus'",
            ),
            (
                ["impact-factor", "--cite-year", "2005", "--doc-types", "bogus", *MISSING_INPUTS],
                1,
                "citenet impact-factor: bad --doc-types 'bogus'",
            ),
            # --matrix excludes the graph-source options; nothing is read.
            (
                ["influence", "--matrix", str(DATA / "matrix2.csv"), "--cite-year", "1",
                 "--source-years", "bad"],
                1,
                "citenet influence: --matrix cannot be combined with --cite-year, --source-years",
            ),
            (
                ["total-cites", "--matrix", str(DATA / "matrix2.csv"),
                 "--edges", str(DATA / "missing" / "edges.csv"), "--cite-year", "5"],
                1,
                "citenet total-cites: --matrix cannot be combined with --edges, --cite-year",
            ),
            # As 'bogus' above: only commas and blanks name no type at all.
            (
                ["impact-factor", "--cite-year", "2005", "--doc-types", ","],
                1,
                "citenet impact-factor: bad --doc-types ','",
            ),
            (
                ["impact-factor", "--cite-year", "2005", "--doc-types", " , ", *MISSING_INPUTS],
                1,
                "citenet impact-factor: bad --doc-types ' , '",
            ),
            # A target that parses as a number but is not finite is a data error.
            (
                ["bradford", "--cite-year", "2005", "--zones", "2", "--targets", "nan"],
                2,
                "citenet: error: targets must be finite",
            ),
            (
                ["bradford", "--cite-year", "2005", "--zones", "3", "--targets", "5,nan"],
                2,
                "citenet: error: targets must be finite",
            ),
            (
                ["bradford", "--cite-year", "2005", "--zones", "2", "--targets", "-5"],
                2,
                "citenet: error: targets must be positive",
            ),
            (
                ["bradford", "--cite-year", "2005", "--zones", "2", "--targets", "0"],
                2,
                "citenet: error: targets must be positive",
            ),
            # No document year is below 1, so neither is a cite year; the
            # year is checked before the inputs are read.
            (
                ["total-cites", "--cite-year", "-1"],
                1,
                "citenet total-cites: argument --cite-year: -1 must be >= 1",
            ),
            (
                ["impact-factor", "--cite-year", "0", *MISSING_INPUTS],
                1,
                "citenet impact-factor: argument --cite-year: 0 must be >= 1",
            ),
            (
                ["bradford", "--cite-year", "0", *MISSING_INPUTS],
                1,
                "citenet bradford: argument --cite-year: 0 must be >= 1",
            ),
            (
                ["stability", "--cite-year", "2005", "--cite-year-b", "0", "--top", "1",
                 *MISSING_INPUTS],
                1,
                "citenet stability: argument --cite-year-b: 0 must be >= 1",
            ),
            (
                ["influence", "--cite-year", "-3", *MISSING_INPUTS],
                1,
                "citenet influence: argument --cite-year: -3 must be >= 1",
            ),
            # An empty value is given, so it is bad: only a missing option
            # takes the default.
            (
                ["bradford", "--cite-year", "2005", "--targets", "", *MISSING_INPUTS],
                1,
                "citenet bradford: bad --targets ''",
            ),
            (
                ["impact-factor", "--cite-year", "2005", "--doc-types", "", *MISSING_INPUTS],
                1,
                "citenet impact-factor: bad --doc-types ''",
            ),
            (
                ["influence", "--cite-year", "2011", "--source-years", "", *MISSING_INPUTS],
                1,
                "citenet influence: bad --source-years ''",
            ),
        ],
    )
    def test_bad_option_value(self, args, code, err, capsys):
        if args[0] != "study" and "--edges" not in args and "--matrix" not in args:
            args = [*args, "--edges", str(DATA / "mini" / "edges.csv"),
                    "--docs", str(DATA / "mini" / "docs.csv")]
        assert main(args) == code
        assert capsys.readouterr().err == err + "\n"

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

    def test_influence_leaves_out_a_dangling_reference(self, tmp_path, capsys):
        docs = tmp_path / "d.csv"
        docs.write_text("id,venue,year,doc_type,cites,authors\na,J,2005,article,0,\n"
                        "b,J,2004,article,0,\n")
        edges, clean = tmp_path / "e.csv", tmp_path / "clean.csv"
        edges.write_text("citing_id,cited_id\na,b\na,ghost\n")
        clean.write_text("citing_id,cited_id\na,b\n")
        args = ["influence", "--docs", str(docs), "--cite-year", "2005"]
        assert main([*args, "--edges", str(clean)]) == 0
        want = capsys.readouterr()
        assert want.err == ""
        assert main([*args, "--edges", str(edges)]) == 0
        got = capsys.readouterr()
        assert got.out == want.out
        assert got.err == (f"warning: {edges}:3: edge (a,ghost) references unknown "
                           "document id(s) ghost\n")
        assert main([*args, "--edges", str(edges), "--strict"]) == 2
        assert f"{edges}:3: edge (a,ghost)" in capsys.readouterr().err

    def test_influence_unit_mean_normalization(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(ASYMMETRIC_MATRIX)
        unit = json_rows(capsys, ["influence", "--matrix", str(path),
                                  "--normalization", "unit_mean"])
        reference = json_rows(capsys, ["influence", "--matrix", str(path)])
        weights = {row[1]: row[2] for row in unit}
        assert sum(weights.values()) / len(weights) == pytest.approx(1.0, rel=1e-12)
        ratios = [weights[row[1]] / row[2] for row in reference]
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-12)
        assert ratios[0] != pytest.approx(1.0)  # the two means differ on this matrix

    def test_influence_zero_diagonal(self, tmp_path, capsys):
        from citenet import formats, ranking

        path = tmp_path / "m.csv"
        path.write_text(ASYMMETRIC_MATRIX)
        rows = json_rows(capsys, ["influence", "--matrix", str(path), "--zero-diagonal"])
        want = ranking.influence_metrics(formats.read_journal_matrix(path).without_self_citations())
        assert [(row[1], row[2], row[3], row[5]) for row in rows] == [
            (j, w, want.per_publication[j], want.total[j]) for j, w in want.weights.ranked()]

    def test_total_cites_from_a_matrix_sums_its_columns(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(ASYMMETRIC_MATRIX)
        rows = json_rows(capsys, ["total-cites", "--matrix", str(path)])
        assert [row[1:] for row in rows] == [["C", 2 + 5 + 0], ["A", 1 + 3 + 2], ["B", 4 + 0 + 1]]

    def test_impact_factor_of_one_journal(self, capsys):
        from citenet import load_corpus, metrics

        rows = json_rows(capsys, ["impact-factor", *MINI_INPUTS, "--cite-year", "2005",
                                  "--journal", "Alpha"])
        graph = load_corpus(DATA / "mini" / "edges.csv", DATA / "mini" / "docs.csv").graph
        assert rows == [[1, "Alpha", metrics.impact_factor_from_graph(graph, "Alpha", 2005)]]

    def test_share_curve_thresholds(self, capsys):
        from citenet import load_corpus, metrics

        assert main(["share-curve", *MINI_INPUTS, "--cite-year", "2005", "--threshold", "2",
                     "--threshold", "4", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        graph = load_corpus(DATA / "mini" / "edges.csv", DATA / "mini" / "docs.csv").graph
        counts = metrics.journal_cite_counts(graph, 2005).values()
        assert summary == {f"Journals with count >= {t}": sum(c >= t for c in counts)
                           for t in (2, 4)}
        assert list(summary.values()) == [3, 1]

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

    def test_impact_factor_footnote_names_excluded_journals(self, capsys):
        assert main(["impact-factor", "--edges", str(DATA / "mini" / "edges.csv"),
                     "--docs", str(DATA / "mini" / "docs.csv"), "--cite-year", "2005"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "note: excluded (no items in the two-year window): Gamma"
        assert [line.split()[1] for line in lines if line[:1].isdigit()] == ["Alpha", "Beta"]

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

    def test_correlate_skips_bad_rows_unless_strict(self, tmp_path, capsys):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n1,2\na,3\n2,4\n3,7\n")
        assert main(["correlate", "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: {path}:3: bad numeric row ['a', '3']\n"
        assert "pearson  3" in captured.out
        assert main(["correlate", "--data", str(path), "--strict"]) == 2
        assert capsys.readouterr().err == (
            f"citenet: error: {path}:3: bad numeric row ['a', '3']\n"
        )

    def test_correlate_treats_non_finite_cells_as_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n1,2\nnan,3\n2,4\n3,inf\n4,7\n")
        assert main(["correlate", "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: {path}:3: bad numeric row ['nan', '3']\n"
            f"warning: {path}:5: bad numeric row ['3', 'inf']\n"
        )
        assert "pearson  3" in captured.out
        assert main(["correlate", "--data", str(path), "--strict"]) == 2
        assert capsys.readouterr().err == (
            f"citenet: error: {path}:3: bad numeric row ['nan', '3']\n"
        )

    def test_correlate_on_huge_and_tiny_values(self, tmp_path, capsys):
        path = tmp_path / "xy.csv"
        for text, coefficient in (("x,y\n1e200,1\n2e200,2\n4e200,3\n", "0.9819805060619656"),
                                  ("x,y\n1e-200,1\n2e-200,2\n3e-200,3\n", "1.0")):
            path.write_text(text)
            assert main(["correlate", "--data", str(path)]) == 0
            assert f"pearson  3      {coefficient}\n" in capsys.readouterr().out

    def test_strict_flag_propagates(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\nbadrow\n")
        assert main(["pagerank", "--edges", str(edges), "--strict"]) == 2
        capsys.readouterr()
        assert main(["pagerank", "--edges", str(edges)]) == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["study", "sample", "--docs", str(DATA / "laureates_authors" / "docs.csv"),
         "--author", SUBJECT_NAMES[0]],
        rank_study_args("tc-vs-if"),
        author_study_args("--reviews-only"),
    ])
    def test_study_commands_leave_metadata_underived(self, args, monkeypatch, tmp_path):
        # A study command reads the document columns and builds records
        # only for the documents its authors match; it builds no arrays.
        from citenet import formats

        graphs = []
        load = formats.load_corpus

        def load_corpus(*a, **kw):
            bundle = load(*a, **kw)
            graphs.append(bundle.graph)
            return bundle

        monkeypatch.setattr(formats, "load_corpus", load_corpus)
        assert main([*args, "--out-dir", str(tmp_path)]) == 0
        [graph] = graphs
        assert "metadata" not in vars(graph)
        assert graph.n_edges == 0 and "_edge_arrays" not in vars(graph)
        assert len(graph.metadata) == graph.n_nodes > 0


def leaf_parsers(parser, prefix=()):
    """(command words, parser) for every subcommand that runs a handler."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield prefix, parser
    for action in subcommands:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, (*prefix, name))


def readme_synopsis():
    """Options per command in README's `## CLI` command block."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("Commands:", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    options, command = {}, None
    for line in block.splitlines():
        if not line.startswith(" "):
            command = tuple(re.match(r"((?:study )?[a-z-]+)", line).group(1).split())
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_synopsis_lists_every_option_of_every_command():
    shared = {"--help", "--out-dir", "--json", "--strict"}
    parsed = {
        command: {o for a in leaf._actions for o in a.option_strings if o.startswith("--")} - shared
        for command, leaf in leaf_parsers(build_parser())
    }
    assert len(parsed) == 14
    assert readme_synopsis() == parsed
