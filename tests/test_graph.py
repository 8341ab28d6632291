"""Graph construction, degree queries, and journal aggregation."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citenet import (
    CitationGraph,
    DataError,
    DocType,
    DocumentRecord,
    JournalCitationMatrix,
    TimeWindow,
    aggregate_to_journal_matrix,
    build_graph,
    journal_article_counts,
    load_corpus,
)


def random_edges(rng, n_nodes, n_edges):
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    edges = []
    while len(edges) < n_edges:
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v:
            edges.append((u, v))
    return edges


class TestBuildGraph:
    def test_direct_construction(self):
        g = build_graph([("a", "b"), ("b", "c")])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.nodes == ("a", "b", "c")

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(DataError, match="self-loop"):
            build_graph([("a", "a")])

    def test_duplicate_edges_become_multiplicity(self):
        # Oracle: count duplicates in the input by linear scan.
        edges = [("a", "b"), ("a", "b")]
        expected = sum(1 for e in edges if e == ("a", "b"))
        g = build_graph(edges)
        assert g.edges == (("a", "b", expected),) == (("a", "b", 2),)

    def test_empty_edge_list_accepted(self):
        g = build_graph([], docs=[DocumentRecord("d1", "J", 2000)])
        assert g.nodes == ("d1",)
        assert g.n_edges == 0

    def test_empty_endpoint_rejected(self):
        with pytest.raises(DataError, match="empty endpoint"):
            build_graph([("a", "")])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([("a", "b"), ("c", "c"), ("d", "")], "self-loop on 'c'"),
            ([("a", "b"), ("", "d"), ("c", "c")], "edge \\('', 'd'\\) has an empty endpoint"),
        ],
        ids=["self_loop_first", "empty_endpoint_first"],
    )
    def test_first_bad_pair_in_input_order_is_named(self, pairs, message):
        with pytest.raises(DataError, match=message):
            build_graph(pairs)

    def test_duplicate_doc_id_rejected(self):
        docs = [DocumentRecord("d1", "J", 2000), DocumentRecord("d1", "K", 2001)]
        with pytest.raises(DataError, match="duplicate document id"):
            build_graph([], docs=docs)

    def test_nodes_are_union_of_endpoints_and_doc_ids(self):
        g = build_graph([("a", "b")], docs=[DocumentRecord("c", "J", 2000)])
        assert g.nodes == ("a", "b", "c")

    def test_order_independence(self):
        rng = random.Random(7)
        edges = random_edges(rng, 12, 40)
        g1 = build_graph(edges)
        for _ in range(5):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            assert build_graph(shuffled) == g1


class TestArrayForm:
    """The graph is its (src, dst, mult) arrays; ``edges`` is derived."""

    def test_edges_are_derived_from_the_arrays(self):
        g = build_graph([("b", "a"), ("a", "c"), ("b", "a")])
        assert g.nodes == ("a", "b", "c")
        assert [a.tolist() for a in g.edge_arrays()] == [[0, 1], [2, 0], [1, 2]]
        assert sorted(zip(*g.edge_rows)) == [(0, 2), (1, 0), (1, 0)]
        assert all(a.dtype == np.int64 for a in g.edge_arrays())
        assert g.edges == (("a", "c", 1), ("b", "a", 2))
        assert g.n_edges == 3

    def test_edge_tuples_build_the_same_graph(self):
        docs = [DocumentRecord("a", "J", 2000), DocumentRecord("d", "K", 2001)]
        g = build_graph([("b", "a"), ("a", "c"), ("b", "a")], docs)
        assert CitationGraph(nodes=g.nodes, edges=g.edges, metadata=g.metadata) == g
        assert CitationGraph(nodes=g.nodes, metadata=g.metadata) != g
        assert CitationGraph(nodes=g.nodes, edges=[("a", "c", 1), ("b", "a", 3)],
                             metadata=g.metadata) != g
        assert CitationGraph(()) == build_graph([]) and CitationGraph(()).n_edges == 0

    def test_edge_tuples_sort_the_nodes(self):
        g = CitationGraph(nodes=("c", "b", "a"), edges=[("c", "a", 2)])
        assert g.nodes == ("a", "b", "c")
        assert g.edges == (("c", "a", 2),) and g.in_degree("a") == 2 and g.out_degree("b") == 0

    @pytest.mark.parametrize("nodes, edges, metadata, message", [
        (("a", "c"), [("a", "b", 1)], None, "id 'b' is an edge endpoint or record but not"),
        (("a", "c"), [("a", "a", 2)], None, "self-loop on 'a'"),
        (("a", ""), [("a", "", 1)], None, "has an empty endpoint"),
        (("a", "c"), [("a", "c", -1)], None, "multiplicity must be an integer >= 1"),
        (("a", "c"), [("a", "c", 0)], None, "multiplicity must be an integer >= 1"),
        (("a", "c"), [("a", "c", 1.5)], None, "multiplicity must be an integer >= 1"),
        (("a", "c", "a"), [], None, "duplicate node 'a'"),
        (("a", "c"), [], {"x": DocumentRecord("a", "J", 2000)},
         "metadata key 'x' holds the record of 'a'"),
        (("a",), [], {"b": DocumentRecord("b", "J", 2000)},
         "id 'b' is an edge endpoint or record but not"),
    ], ids=["unknown-endpoint", "self-loop", "empty-endpoint", "negative-multiplicity",
            "zero-multiplicity", "float-multiplicity", "duplicate-node", "key-not-id",
            "record-not-node"])
    def test_edge_tuples_are_checked(self, nodes, edges, metadata, message):
        with pytest.raises(DataError, match=message):
            CitationGraph(nodes=nodes, edges=edges, metadata=metadata)

    def test_a_graph_cannot_be_changed(self):
        g = build_graph([("a", "b")])
        for change in (lambda: setattr(g, "nodes", ("c",)), lambda: delattr(g, "nodes"),
                       lambda: setattr(g, "extra", 1), lambda: delattr(g, "_pairs")):
            with pytest.raises(AttributeError, match="immutable"):
                change()
        assert g == build_graph([("a", "b")])


class TestDocsOnlyGraph:
    """A graph without edges goes through the same layout as one with
    edges: its nodes are the sorted document ids, and its columns are
    the ones a graph over the same documents with an edge has."""

    DOCS = [
        DocumentRecord("c", "J", 2001),
        DocumentRecord("a", "K", 2000, doc_type=DocType.REVIEW),
        DocumentRecord("b", "J", 2000),
        DocumentRecord("d", "", 2000),
    ]

    def check(self, graph):
        assert graph.nodes == ("a", "b", "c", "d")
        assert graph.edges == ()
        for array in graph.edge_arrays():
            assert array.dtype == np.int64 and array.shape == (0,)
        journal, year, doc_type = graph.node_columns()
        assert journal == [1, 0, 0, -1]
        assert year == [2000, 2000, 2001, 2000]
        assert doc_type == [1, 0, 0, 0]
        assert journal_article_counts(graph, 2000) == {"J": 1, "K": 1}
        # Node columns and article counts do not depend on edges, so a
        # graph over the same documents with one edge has the same ones.
        general = build_graph([("a", "b")], self.DOCS)
        assert graph.node_columns() == general.node_columns()
        assert journal_article_counts(graph, 2000) == journal_article_counts(general, 2000)

    def test_no_edges(self):
        self.check(build_graph([], self.DOCS))

    def test_edge_rows_all_skipped(self, tmp_path):
        docs, edges = tmp_path / "docs.csv", tmp_path / "edges.csv"
        docs.write_text(
            "id,venue,year,doc_type,cites,authors\n"
            "c,J,2001,article,0,\na,K,2000,review,0,\nb,J,2000,article,0,\nd,,2000,article,0,\n"
        )
        edges.write_text("citing_id,cited_id\na,a\nb\nc,\n,d\n\nd,d,x\n")
        bundle = load_corpus(edges=edges, docs=docs)
        assert len(bundle.warnings) == 5
        self.check(bundle.graph)
        assert bundle.graph == build_graph([], self.DOCS) == load_corpus(docs=docs).graph
        alone = load_corpus(edges=edges).graph
        assert alone.nodes == () and alone.edges == ()
        assert [a.tolist() for a in alone.edge_arrays()] == [[], [], []]


class TestDocumentRecord:
    def test_validates_year(self):
        with pytest.raises(DataError, match="year"):
            DocumentRecord("d", "J", 0)

    def test_rejects_empty_author_names(self):
        with pytest.raises(DataError, match="author"):
            DocumentRecord("d", "J", 2000, authors=("A. One", " "))

    def test_empty_author_list_allowed(self):
        assert DocumentRecord("d", "J", 2000).authors == ()


class TestDegrees:
    def test_star_graph(self):
        g = build_graph([(f"leaf{i}", "hub") for i in range(5)])
        assert g.in_degree("hub") == 5
        for i in range(5):
            assert g.out_degree(f"leaf{i}") == 1
            assert g.in_degree(f"leaf{i}") == 0

    def test_edgeless_graph_degrees_are_zero(self):
        g = build_graph([], docs=[DocumentRecord("d1", "J", 2000)])
        assert g.in_degree("d1") == 0
        assert g.out_degree("d1") == 0

    def test_unknown_node(self):
        g = build_graph([("a", "b")])
        with pytest.raises(DataError, match="unknown node"):
            g.in_degree("zz")
        with pytest.raises(DataError, match="unknown node"):
            g.out_degree("zz")

    def test_heavily_backlinked_hub(self):
        # A single page drawing 62,804 inlinks, far above every other node.
        n = 62_804
        g = build_graph((f"page{i}", "hub") for i in range(n))
        assert g.in_degree("hub") == n

    def test_random_graph_matches_brute_force_scan(self):
        rng = random.Random(42)
        edges = random_edges(rng, 20, 120)
        g = build_graph(edges)
        for node in g.nodes:
            assert g.in_degree(node) == sum(1 for _, v in edges if v == node)
            assert g.out_degree(node) == sum(1 for u, _ in edges if u == node)

    def test_degree_sums_equal_edge_multiplicity(self):
        for seed in range(5):
            rng = random.Random(seed)
            edges = random_edges(rng, 15, 60)
            g = build_graph(edges)
            total_in = sum(g.in_degree(n) for n in g.nodes)
            total_out = sum(g.out_degree(n) for n in g.nodes)
            assert total_in == total_out == g.n_edges == len(edges)


def two_journal_corpus():
    docs = [
        DocumentRecord("a1", "A", 2000),
        DocumentRecord("b1", "B", 1999),
    ]
    return build_graph([("a1", "b1")], docs=docs)


class TestJournalAggregation:
    def test_single_cross_reference(self):
        g = two_journal_corpus()
        m = aggregate_to_journal_matrix(g, TimeWindow(2000, (1999, 2000)))
        assert m.journals == ("A", "B")
        assert np.array_equal(m.counts, [[0, 1], [0, 0]])
        assert m.pubs.tolist() == [1, 1]

    def test_all_citations_outside_window_drops_everything(self):
        g = two_journal_corpus()
        m = aggregate_to_journal_matrix(g, TimeWindow(1990, (1985, 1989)))
        assert m.journals == ()
        assert m.dropped == ()  # nothing was even in the window
        m2 = aggregate_to_journal_matrix(g, TimeWindow(2000, (1950, 1951)))
        assert m2.journals == ()
        assert m2.dropped == ("A",)  # citing-side journal with no window pubs

    def test_four_journal_corpus_matches_hand_tally(self):
        # 2005 references to 2003-2004 items. Hand tally:
        #   W->X twice (one doc cites it twice), W->Y once, X->Y once,
        #   Y->Y self-citation once; Z publishes in 2005 only -> dropped.
        docs = [
            DocumentRecord("w1", "W", 2005),
            DocumentRecord("w2", "W", 2003),
            DocumentRecord("x1", "X", 2005),
            DocumentRecord("x2", "X", 2004),
            DocumentRecord("y1", "Y", 2005),
            DocumentRecord("y2", "Y", 2003),
            DocumentRecord("y3", "Y", 2004),
            DocumentRecord("z1", "Z", 2005),
            DocumentRecord("old", "X", 1998),
        ]
        edges = [
            ("w1", "x2"), ("w1", "x2"),       # W cites X twice
            ("w1", "y2"),                     # W cites Y
            ("x1", "y3"),                     # X cites Y
            ("y1", "y2"),                     # Y cites itself (journal level)
            ("z1", "x2"),                     # dropped: Z has no window pubs
            ("w1", "old"),                    # outside source years
            ("w2", "y2"),                     # citing side not in cite year
        ]
        g = build_graph(edges, docs=docs)
        m = aggregate_to_journal_matrix(g, TimeWindow(2005, (2003, 2004)))
        assert m.journals == ("W", "X", "Y")
        expected = np.array([
            [0, 2, 1],
            [0, 0, 1],
            [0, 0, 1],
        ])
        assert np.array_equal(m.counts, expected)
        assert m.pubs.tolist() == [1, 1, 2]
        assert m.dropped == ("Z",)

    def test_zero_diagonal_flag(self):
        docs = [
            DocumentRecord("y1", "Y", 2005),
            DocumentRecord("y2", "Y", 2004),
        ]
        g = build_graph([("y1", "y2")], docs=docs)
        m = aggregate_to_journal_matrix(g, TimeWindow(2005, (2004, 2004)))
        assert m.counts.sum() == 1
        assert m.without_self_citations().counts.sum() == 0

    def test_pruning_runs_to_a_fixed_point(self):
        # Y and Z give no references; X cites only Y, B cites only X.
        journals = ("Z", "A", "Y", "B", "X")
        counts = np.zeros((5, 5), dtype=np.int64)
        for i, j in (("A", "A"), ("A", "B"), ("X", "Y"), ("B", "X"), ("A", "Z")):
            counts[journals.index(i), journals.index(j)] += 1
        m = JournalCitationMatrix(journals, counts, np.arange(1, 6), ("Q",))
        pruned, names = m.without_nonreferencing()
        assert names == ("Z", "Y", "X", "B")  # round order; matrix order within a round
        assert pruned == JournalCitationMatrix(("A",), [[1]], [2], ("Q",))

    def test_pruning_keeps_a_matrix_where_every_journal_references(self):
        m = JournalCitationMatrix(("A", "B"), [[0, 2], [1, 0]], [1, 1])
        assert m.without_nonreferencing() == (m, ())

    def test_reference_to_doc_without_metadata_is_left_out(self):
        docs = [DocumentRecord("a1", "A", 2000), DocumentRecord("a0", "A", 1999)]
        window = TimeWindow(2000, (1999, 2000))
        g = build_graph([("a1", "a0"), ("a1", "mystery")], docs=docs)
        without = build_graph([("a1", "a0")], docs=docs)
        assert aggregate_to_journal_matrix(g, window) == aggregate_to_journal_matrix(
            without, window)

    def test_missing_venue_inside_window_errors(self):
        docs = [DocumentRecord("a1", "", 2000)]
        g = build_graph([], docs=docs)
        with pytest.raises(DataError, match="no venue"):
            aggregate_to_journal_matrix(g, TimeWindow(2000, (1999, 2000)))

    def test_matrix_total_matches_brute_force_edge_filter(self):
        rng = random.Random(3)
        journals = ["J1", "J2", "J3", "J4"]
        docs = []
        for i in range(40):
            docs.append(
                DocumentRecord(
                    f"d{i:02d}",
                    venue=rng.choice(journals),
                    year=rng.choice([2002, 2003, 2004, 2005]),
                )
            )
        by_id = {d.id: d for d in docs}
        edges = random_edges(rng, 0, 0)
        ids = [d.id for d in docs]
        for _ in range(150):
            u, v = rng.choice(ids), rng.choice(ids)
            if u != v:
                edges.append((u, v))
        g = build_graph(edges, docs=docs)
        window = TimeWindow(2005, (2003, 2004))
        m = aggregate_to_journal_matrix(g, window)
        retained = set(m.journals)
        expected = sum(
            1
            for u, v in edges
            if by_id[u].year == 2005
            and 2003 <= by_id[v].year <= 2004
            and by_id[u].venue in retained
            and by_id[v].venue in retained
        )
        assert int(m.counts.sum()) == expected


def restrict_to_pruning(matrix):
    """Oracle for ``without_nonreferencing``: each round, restrict the
    matrix by name to the journals that give references."""
    pruned = []
    while True:
        refs = matrix.reference_totals()
        silent = [j for j, r in zip(matrix.journals, refs) if r == 0]
        if not silent:
            return matrix, tuple(pruned)
        pruned += silent
        wanted = {j for j, r in zip(matrix.journals, refs) if r}
        idx = [i for i, j in enumerate(matrix.journals) if j in wanted]
        matrix = JournalCitationMatrix(
            tuple(matrix.journals[i] for i in idx),
            matrix.counts[np.ix_(idx, idx)],
            matrix.pubs[idx],
            matrix.dropped,
        )


@st.composite
def sparse_matrices(draw):
    """Journal matrices with a few references per row, so that pruning
    one journal often silences another and runs for several rounds.
    Names come in no particular order; ``dropped`` is arbitrary."""
    names = draw(st.permutations([f"J{i:02d}" for i in range(draw(st.integers(0, 14)))]))
    n = len(names)
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            counts[i, j] += draw(st.integers(1, 3))
    pubs = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    dropped = tuple(draw(st.lists(st.sampled_from(["Q", "R", "S"]), max_size=2, unique=True)))
    return JournalCitationMatrix(tuple(names), counts, pubs, dropped)


class TestPruningOracle:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(sparse_matrices())
    @example(JournalCitationMatrix(
        ("Z", "A", "Y", "B", "X"),
        [[0, 0, 0, 0, 0], [1, 1, 1, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
        [1, 2, 3, 4, 5],
        ("Q",),
    ))
    def test_matches_the_restrict_to_loop(self, matrix):
        want, want_names = restrict_to_pruning(matrix)
        got, names = matrix.without_nonreferencing()
        assert got == want
        assert names == want_names
        assert got.dropped == matrix.dropped


class TestTimeWindow:
    def test_source_years_must_not_pass_cite_year(self):
        with pytest.raises(DataError):
            TimeWindow(2000, (1999, 2001))

    def test_two_year_window(self):
        w = TimeWindow.two_year(1969)
        assert w.source_years == (1967, 1968)


class TestAuthorIndex:
    def test_matches_per_document_name_scan(self):
        from citenet.graph import normalize_author

        rng = random.Random(5)
        names = ["Jane Q. Smith", "jane  q. SMITH", " A. Other", "B. Reader", "b. reader "]
        docs = [
            DocumentRecord(f"p{i:02d}", "J", 2000 + i % 5,
                           authors=tuple(rng.choice(names) for _ in range(rng.randint(0, 4))))
            for i in range(60)
        ]
        g = build_graph([], docs=docs)
        for name in (*names, "Nobody", "jane q smith"):
            wanted = normalize_author(name)
            expected = tuple(d for d in g.metadata.values()
                             if any(normalize_author(a) == wanted for a in d.authors))
            assert g.docs_by_author(name) == expected
        assert g.docs_by_author("Nobody") == ()
