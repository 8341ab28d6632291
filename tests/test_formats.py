"""CSV ingestion, validation reporting, and round-trips."""

import csv
from pathlib import Path

import numpy as np
import pytest

from citenet import (
    CorpusBundle,
    DataError,
    DocType,
    DocumentRecord,
    build_graph,
    load_corpus,
    write_edges,
)
from citenet.formats import (
    read_docs,
    read_edges,
    read_journal_matrix,
    read_profile,
    read_rank_records,
    read_xy,
)

DATA = Path(__file__).resolve().parent / "data"


class TestLoadCorpus:
    def test_minimal_two_file_corpus_loads(self):
        edges, docs = DATA / "mini" / "edges.csv", DATA / "mini" / "docs.csv"
        bundle = load_corpus(edges=edges, docs=docs)
        assert bundle == CorpusBundle(build_graph(read_edges(edges)[0], read_docs(docs)[0]), [])
        assert bundle.warnings == []
        assert bundle.graph.n_nodes == 7
        assert bundle.graph.n_edges == 10

    def test_bundled_fixtures_load_with_zero_warnings(self):
        for corpus in ("laureates_ranks", "laureates_authors"):
            bundle = load_corpus(docs=DATA / corpus / "docs.csv", strict=True)
            assert bundle.warnings == []
            assert bundle.graph.n_nodes > 0
            ranks = DATA / corpus / "rank_records.csv"
            if ranks.exists():
                assert read_rank_records(ranks, strict=True)[1] == []

    def test_bundled_fixtures_match_their_builders(self):
        # Guards against drift between the committed CSVs and the
        # programmatic definitions in laureate_fixture.
        import laureate_fixture as fx

        bundle = load_corpus(docs=DATA / "laureates_ranks" / "docs.csv", strict=True)
        records, _ = read_rank_records(DATA / "laureates_ranks" / "rank_records.csv", strict=True)
        docs, want_records = fx.build_ranks_corpus()
        assert sorted(bundle.graph.metadata.values(), key=lambda d: d.id) == sorted(
            docs, key=lambda d: d.id
        )
        assert records == want_records
        authors = load_corpus(docs=DATA / "laureates_authors" / "docs.csv", strict=True)
        assert sorted(authors.graph.metadata.values(), key=lambda d: d.id) == sorted(
            fx.build_authors_corpus(), key=lambda d: d.id
        )

    def test_dangling_cited_id_strict_mode_names_the_row(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\na,ghost\n")
        docs = tmp_path / "docs.csv"
        docs.write_text("id,venue,year,doc_type,cites,authors\na,J,2000,article,0,\nb,J,2001,article,0,\n")
        with pytest.raises(DataError, match=r"edges\.csv:3.*ghost"):
            load_corpus(edges=edges, docs=docs, strict=True)
        bundle = load_corpus(edges=edges, docs=docs, strict=False)
        assert any("ghost" in w for w in bundle.warnings)
        assert "ghost" in bundle.graph.nodes

    def test_non_strict_skips_and_enumerates_bad_rows(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\nonlyone\nc,c\nd,e\n")
        bundle = load_corpus(edges=edges)
        assert bundle.graph.n_edges == 2  # a->b and d->e survive
        assert len(bundle.warnings) == 2
        assert any(":3:" in w for w in bundle.warnings)  # malformed row
        assert any("self-loop" in w for w in bundle.warnings)

    def test_strict_mode_rejects_malformed_row(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\nonlyone\n")
        with pytest.raises(DataError, match=":3:"):
            load_corpus(edges=edges, strict=True)

    def test_strict_names_dangling_row_over_earlier_self_loop(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\na,b\nb,b\na,ghost\n")
        docs = tmp_path / "docs.csv"
        docs.write_text("id,venue,year,doc_type,cites,authors\na,J,2000,article,0,\nb,J,2001,article,0,\n")
        with pytest.raises(DataError, match=r"edges\.csv:4: edge \(a,ghost\)"):
            load_corpus(edges=edges, docs=docs, strict=True)

    def test_dangling_notes_precede_self_loop_notes(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("citing_id,cited_id\nb,b\na,ghost\nghost,ghost\nz,a\n")
        docs = tmp_path / "docs.csv"
        docs.write_text("id,venue,year,doc_type,cites,authors\na,J,2000,article,0,\nb,J,2001,article,0,\n")
        bundle = load_corpus(edges=edges, docs=docs)
        assert bundle.warnings == [
            f"{edges}:3: edge (a,ghost) references unknown document id(s) ghost",
            f"{edges}:4: edge (ghost,ghost) references unknown document id(s) ghost, ghost",
            f"{edges}:5: edge (z,a) references unknown document id(s) z",
            f"{edges}:2: self-loop on 'b' skipped",
            f"{edges}:4: self-loop on 'ghost' skipped",
        ]
        assert bundle.graph.edges == (("a", "ghost", 1), ("z", "a", 1))

    def test_no_inputs_rejected(self):
        with pytest.raises(DataError, match="no input files"):
            load_corpus()

    def test_header_mismatch_rejected(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("from,to\na,b\n")
        with pytest.raises(DataError, match="header"):
            load_corpus(edges=edges)


class TestDocsFile:
    def test_reads_mini_docs(self):
        docs, warnings = read_docs(DATA / "mini" / "docs.csv")
        assert warnings == []
        by_id = {d.id: d for d in docs}
        assert by_id["b1"].doc_type is DocType.REVIEW
        assert by_id["a1"].authors == ("Rosa Q. Vega", "T. Underwood")
        assert by_id["a1"].cites == 30

    def test_bad_year_and_duplicate_are_reported(self, tmp_path):
        path = tmp_path / "docs.csv"
        path.write_text(
            "id,venue,year,doc_type,cites,authors\n"
            "a,J,not-a-year,article,0,\n"
            "b,J,2000,article,0,\n"
            "b,K,2001,article,0,\n"
        )
        docs, warnings = read_docs(path)
        assert [d.id for d in docs] == ["b"]
        assert len(warnings) == 2
        assert any(":2:" in w for w in warnings)
        assert any("duplicate" in w for w in warnings)

    @pytest.mark.parametrize("strict", [False, True])
    def test_rows_after_a_multiline_field_name_their_physical_line(self, tmp_path, strict):
        path = tmp_path / "docs.csv"
        path.write_text(
            "id,venue,year,doc_type,cites,authors\n"
            'a,"J\n'
            'K",2000,article,0,\n'
            "b,J,2001,article,0,\n"
            "c,J,notayear,article,0,\n"
        )
        note = f"{path}:5: invalid literal for int() with base 10: 'notayear'"
        if strict:
            with pytest.raises(DataError) as err:
                read_docs(path, strict=True)
            assert str(err.value) == note
        else:
            docs, warnings = read_docs(path)
            assert [(d.id, d.venue) for d in docs] == [("a", "J\nK"), ("b", "J")]
            assert warnings == [note]


class TestRankRecordsFile:
    def test_reads_fixture_records(self):
        records, warnings = read_rank_records(DATA / "laureates_ranks" / "rank_records.csv")
        assert warnings == []
        unindexed = [r for r in records if not r.indexed]
        assert len(unindexed) == 1
        assert unindexed[0].tc_rank is None and unindexed[0].if_rank is None

    def test_bad_flag_reported(self, tmp_path):
        path = tmp_path / "ranks.csv"
        path.write_text("journal,year,indexed,tc_rank,if_rank\nJ,2000,maybe,1,2\n")
        records, warnings = read_rank_records(path)
        assert records == []
        assert any("indexed flag" in w for w in warnings)

    def test_repeated_journal_year_is_a_bad_row(self, tmp_path):
        path = tmp_path / "ranks.csv"
        path.write_text("journal,year,indexed,tc_rank,if_rank\n"
                        "J,2001,true,10,20\nJ,2002,true,1,1\nJ,2001,true,900,1200\n")
        note = f"{path}:4: duplicate rank record for journal 'J' in 2001"
        records, warnings = read_rank_records(path)
        assert [(r.year, r.tc_rank) for r in records] == [(2001, 10), (2002, 1)]
        assert warnings == [note]
        with pytest.raises(DataError) as err:
            read_rank_records(path, strict=True)
        assert str(err.value) == note


class TestProfileFile:
    def test_reads_profile(self):
        profile, warnings = read_profile(DATA / "profile.csv")
        assert warnings == []
        assert profile.counts == (10, 8, 5, 4, 3)

    def test_negative_count_reported(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("cites\n5\n-1\n")
        profile, warnings = read_profile(path)
        assert profile.counts == (5,)
        assert any(":3:" in w for w in warnings)

    def test_row_with_more_than_one_cell_is_a_bad_row(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("cites\n3\n5,7\n4\n")
        profile, warnings = read_profile(path)
        assert profile.counts == (3, 4)
        assert warnings == [f"{path}:3: expected 1 field, got 2"]
        with pytest.raises(DataError) as err:
            read_profile(path, strict=True)
        assert str(err.value) == f"{path}:3: expected 1 field, got 2"


class TestMatrixFile:
    def test_reads_symmetric_matrix(self):
        m = read_journal_matrix(DATA / "matrix2.csv")
        assert m.journals == ("Alpha", "Beta")
        assert np.array_equal(m.counts, [[0, 5], [5, 0]])
        assert m.pubs.tolist() == [10, 10]

    def test_missing_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,pubs\nA,0,1,2\n")
        with pytest.raises(DataError, match="missing rows"):
            read_journal_matrix(path)

    def test_unknown_journal_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,pubs\nA,0,1,2\nZZ,1,0,2\n")
        with pytest.raises(DataError, match="ZZ"):
            read_journal_matrix(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,pubs\nB,3,0,4\nA,0,1,2\n")
        m = read_journal_matrix(path)
        assert np.array_equal(m.counts, [[0, 1], [3, 0]])
        assert m.pubs.tolist() == [2, 4]

    @pytest.mark.parametrize("rows, line, message", [
        ("A,1,-2,3\nB,1,1,1\n", 2, "citation counts must be nonnegative"),
        ("A,1,2,3\nB,1,1,0\n", 3, "every retained journal needs at least one publication"),
    ], ids=["negative-count", "zero-pubs"])
    def test_bad_count_names_its_line(self, tmp_path, rows, line, message):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,B,pubs\n" + rows)
        with pytest.raises(DataError) as err:
            read_journal_matrix(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_duplicate_header_journal_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("journal,A,A,pubs\nA,0,1,2\n")
        with pytest.raises(DataError, match="duplicate journal names"):
            read_journal_matrix(path)

    def test_matrix_round_trip(self, tmp_path):
        from citenet import JournalCitationMatrix

        matrix = JournalCitationMatrix(
            ("Alpha", "Beta", "Gamma"),
            np.array([[1, 4, 0], [2, 0, 3], [0, 0, 5]]),
            np.array([7, 2, 9]),
        )
        path = tmp_path / "m.csv"
        path.write_text("journal,Alpha,Beta,Gamma,pubs\nAlpha,1,4,0,7\nBeta,2,0,3,2\nGamma,0,0,5,9\n")
        assert read_journal_matrix(path) == matrix


class TestXYFile:
    def write(self, tmp_path, text):
        path = tmp_path / "xy.csv"
        path.write_text(text)
        return path

    def test_strict_names_the_bad_row(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\na,3\n")
        with pytest.raises(DataError) as err:
            read_xy(path, strict=True)
        assert str(err.value) == f"{path}:3: bad numeric row ['a', '3']"

    def test_non_strict_skips_and_warns(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\na,3\n4\n2,4.5\n")
        data, warnings = read_xy(path)
        assert data == ("x", "y", [(1.0, 2.0), (2.0, 4.5)])
        assert warnings == [
            f"{path}:3: bad numeric row ['a', '3']",
            f"{path}:4: bad numeric row ['4']",
        ]

    def test_non_finite_cells_are_bad_rows(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\nnan,3\n4,-inf\n1e999,5\n6,7\n")
        data, warnings = read_xy(path)
        assert data == ("x", "y", [(1.0, 2.0), (6.0, 7.0)])
        assert warnings == [
            f"{path}:3: bad numeric row ['nan', '3']",
            f"{path}:4: bad numeric row ['4', '-inf']",
            f"{path}:5: bad numeric row ['1e999', '5']",
        ]
        with pytest.raises(DataError) as err:
            read_xy(path, strict=True)
        assert str(err.value) == f"{path}:3: bad numeric row ['nan', '3']"

    def test_columns_are_chosen_by_name(self, tmp_path):
        path = self.write(tmp_path, "id,x,y\nq,1,2\nr,3,5\n")
        assert read_xy(path, "y", "x") == (("y", "x", [(2.0, 1.0), (5.0, 3.0)]), [])
        with pytest.raises(DataError) as err:
            read_xy(path, x_col="z")
        assert str(err.value) == f"{path}: no column 'z' in the header"
        with pytest.raises(DataError) as err:
            read_xy(path, y_col="id ")
        assert str(err.value) == f"{path}: no column 'id ' in the header"

    def test_blank_and_header_only_files(self, tmp_path):
        assert read_xy(self.write(tmp_path, "x,y\n")) == (("x", "y", []), [])
        assert read_xy(self.write(tmp_path, "x,y\n\n,\n1,2\n")) == (("x", "y", [(1.0, 2.0)]), [])
        for text in ("", "x\n1\n"):
            path = self.write(tmp_path, text)
            with pytest.raises(DataError, match="need a header row with at least two columns"):
                read_xy(path)


class TestCsvRows:
    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"citing_id,cited_id\na,b\nb,c\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_corpus(edges=marked, strict=True) == load_corpus(edges=plain, strict=True)

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"\xef\xbb\xbfciting_id,cited_id\na,b\n\xff,c\n")
        with pytest.raises(DataError, match=r"edges\.csv:3: not valid UTF-8$"):
            read_xy(path)

    def test_crlf_and_quoted_fields_parse_as_the_csv_module_does(self, tmp_path):
        path = tmp_path / "docs.csv"
        path.write_bytes(
            b"x,y,year\r\n"
            b'a,"J, ""Q""",2000\r\n'
            b'b,"two\r\nlines",2001\n'
            b"\xc3\xa9,\xe2\x80\xa8,\x00\r"
            b"4,5,2002"
        )
        with open(path, newline="", encoding="utf-8") as fh:
            expected = list(csv.reader(fh))
        # The first three data rows are not numeric, so each comes back
        # as parsed, with the physical line it starts on.
        (_, _, pairs), warnings = read_xy(path)
        assert pairs == [(4.0, 5.0)]
        assert warnings == [
            f"{path}:{line}: bad numeric row {row!r}" for line, row in zip((2, 3, 5), expected[1:])
        ]
        assert expected[1] == ["a", 'J, "Q"', "2000"]

    def test_line_counts_crlf_endings(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"citing_id,cited_id\r\na,b\r\nc,\xe9\r\n")
        with pytest.raises(DataError, match=r"edges\.csv:3: not valid UTF-8$"):
            read_xy(path)


class TestRoundTrip:
    def test_edge_list_round_trip_is_lossless(self, tmp_path):
        graph = build_graph(
            [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("zz", "a")]
        )
        path = tmp_path / "edges.csv"
        write_edges(graph, path)
        assert path.read_text() == "citing_id,cited_id\na,b\na,b\nb,c\nc,a\nzz,a\n"
        edges, warnings = read_edges(path)
        assert warnings == []
        assert build_graph(edges) == graph

    def test_docs_round_trip(self, tmp_path):
        docs = [
            DocumentRecord("a", "J, with comma", 2000, authors=("X. One", "Y. Two"),
                           doc_type=DocType.REVIEW, cites=9),
            DocumentRecord("b", "K", 2001),
        ]
        edges_path = tmp_path / "edges.csv"
        docs_path = tmp_path / "docs.csv"
        edges_path.write_text("citing_id,cited_id\na,b\n")
        docs_path.write_text(
            "id,venue,year,doc_type,cites,authors\n"
            'a,"J, with comma",2000,review,9,X. One;Y. Two\n'
            "b,K,2001,article,0,\n"
        )
        bundle = load_corpus(edges=edges_path, docs=docs_path, strict=True)
        assert bundle.graph == build_graph([("a", "b")], docs=docs)

    def test_written_files_are_byte_stable(self, tmp_path):
        graph = build_graph([("a", "b"), ("b", "c")])
        p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        write_edges(graph, p1)
        write_edges(graph, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_quoting_is_bit_exact(self, tmp_path):
        # Minimal quoting, doubled inner quotes, LF endings.
        path = tmp_path / "docs.csv"
        path.write_bytes(
            b"id,venue,year,doc_type,cites,authors\n"
            b'a,"J ""Q"", vol 1",2000,article,0,X One;Y Two\n'
        )
        docs, warnings = read_docs(path, strict=True)
        assert (list(docs), warnings) == (
            [DocumentRecord("a", 'J "Q", vol 1', 2000, authors=("X One", "Y Two"))], []
        )
