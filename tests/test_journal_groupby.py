"""The int-coded journal group-by against plain string-walk references.

Every journal metric counts journal codes in Python over the graph's
node columns and its raw edge rows (``edge_rows``, one per citation
instance). The reference functions below walk ``graph.edges`` and
``graph.metadata`` one entry at a time, weighting each distinct pair by
its multiplicity; results must agree exactly.
"""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from citenet import (
    CitationGraph,
    DataError,
    DocType,
    DocumentRecord,
    ImpactFactorInput,
    JournalCitationMatrix,
    TimeWindow,
    UndefinedMetricError,
    aggregate_to_journal_matrix,
    build_graph,
    impact_factor,
    impact_factor_from_graph,
    impact_factors,
    journal_article_counts,
    journal_cite_counts,
    journal_reference_counts,
    total_cites,
)

# ---------------------------------------------------------------------------
# reference implementations: one Python step per edge or record
# ---------------------------------------------------------------------------


def ref_journals(graph):
    return tuple(sorted({d.venue for d in graph.metadata.values() if d.venue}))


def ref_total_cites(graph, journal, window):
    meta = graph.metadata
    if journal not in ref_journals(graph):
        raise DataError(f"unknown journal {journal!r}")
    total = 0
    for citing, cited, mult in graph.edges:
        citing_doc = meta.get(citing)
        if citing_doc is None or citing_doc.year != window.cite_year:
            continue
        cited_doc = meta.get(cited)
        if cited_doc is not None and cited_doc.venue == journal:
            total += mult
    return total


def ref_impact_factor_from_graph(graph, journal, cite_year, doc_types=None):
    if journal not in ref_journals(graph):
        raise DataError(f"unknown journal {journal!r}")
    first, last = TimeWindow.two_year(cite_year).source_years
    allowed = set(doc_types) if doc_types is not None else None
    meta = graph.metadata
    items = {
        doc.id
        for doc in meta.values()
        if doc.venue == journal
        and first <= doc.year <= last
        and (allowed is None or doc.doc_type in allowed)
    }
    if not items:
        raise UndefinedMetricError(
            f"journal {journal!r} published no countable items in "
            f"{first}-{last}"
        )
    cites = 0
    for citing, cited, mult in graph.edges:
        if cited not in items:
            continue
        citing_doc = meta.get(citing)
        if citing_doc is not None and citing_doc.year == cite_year:
            cites += mult
    return impact_factor(ImpactFactorInput(cites, len(items)))


def ref_journal_cite_counts(graph, cite_year):
    meta = graph.metadata
    counts = dict.fromkeys(ref_journals(graph), 0)
    for citing, cited, mult in graph.edges:
        citing_doc = meta.get(citing)
        if citing_doc is None or citing_doc.year != cite_year:
            continue
        cited_doc = meta.get(cited)
        if cited_doc is not None and cited_doc.venue:
            counts[cited_doc.venue] += mult
    return counts


def ref_journal_article_counts(graph, year):
    counts = dict.fromkeys(ref_journals(graph), 0)
    for doc in graph.metadata.values():
        if doc.venue and doc.year == year:
            counts[doc.venue] += 1
    return counts


def ref_journal_reference_counts(graph, year):
    meta = graph.metadata
    counts = dict.fromkeys(ref_journals(graph), 0)
    for citing, _, mult in graph.edges:
        citing_doc = meta.get(citing)
        if citing_doc is not None and citing_doc.venue and citing_doc.year == year:
            counts[citing_doc.venue] += mult
    return counts


def ref_aggregate(graph, window, zero_diagonal=False):
    first, last = window.source_years
    meta = graph.metadata
    pubs = Counter()
    universe = set()
    # Records in node (sorted id) order: the venue-less document named
    # must not depend on the order of the docs file's rows.
    for doc in sorted(meta.values(), key=lambda d: d.id):
        in_source = first <= doc.year <= last
        if (in_source or doc.year == window.cite_year) and not doc.venue:
            raise DataError(f"document {doc.id!r} is inside the window but has no venue")
        if doc.venue and (in_source or doc.year == window.cite_year):
            universe.add(doc.venue)
        if in_source and doc.venue:
            pubs[doc.venue] += 1
    journals = tuple(sorted(j for j in universe if pubs[j] > 0))
    dropped = tuple(sorted(universe - set(journals)))
    index = {j: i for i, j in enumerate(journals)}
    counts = np.zeros((len(journals), len(journals)), dtype=np.int64)
    for citing, cited, mult in graph.edges:
        citing_doc = meta.get(citing)
        if citing_doc is None or citing_doc.year != window.cite_year:
            continue
        cited_doc = meta.get(cited)
        if cited_doc is None or not first <= cited_doc.year <= last:
            continue  # a dangling reference is left out
        i = index.get(citing_doc.venue)
        j = index.get(cited_doc.venue)
        if i is not None and j is not None:
            counts[i, j] += mult
    if zero_diagonal:
        np.fill_diagonal(counts, 0)
    return JournalCitationMatrix(
        journals, counts, np.array([pubs[j] for j in journals], dtype=np.int64), dropped
    )


def outcome(fn, *args, **kwargs):
    """A call's result, or its error type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except (DataError, UndefinedMetricError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

YEARS = range(2000, 2008)
# 0-2 have no documents (year 0 marks a node without a record); 1990 has
# only venue-less records; 2009 has no citing documents.
CITE_YEARS = (0, 1, 2, 1990, *YEARS, 2009)
DOC_TYPE_SETS = (None, (DocType.ARTICLE, DocType.REVIEW), (DocType.BOOK,), ())


def random_graph(seed):
    """A seeded corpus exercising every branch of the journal metrics.

    - parallel edges (the edge list repeats pairs);
    - venue-less records in 1990 (outside every window) and 2003;
    - edge endpoints ``x*`` without a record, cited only from 2005 and
      from each other;
    - every DocType;
    - journal ``Old`` publishes only before 2002 and ``New`` only in
      2007, so several cite years leave a journal without IF items.
    """
    rng = random.Random(seed)
    journals = ["J0", "J1", "J2", "J3", "J4"]
    docs = []
    for i in range(160):
        docs.append(DocumentRecord(
            f"d{i:03d}", rng.choice(journals), rng.choice(YEARS),
            doc_type=rng.choice(list(DocType)),
        ))
    docs += [DocumentRecord(f"old{i}", "Old", rng.choice((2000, 2001))) for i in range(6)]
    docs += [DocumentRecord(f"new{i}", "New", 2007, doc_type=DocType.REVIEW) for i in range(4)]
    docs += [DocumentRecord(f"nv{i}", "", 1990) for i in range(5)]
    docs += [DocumentRecord(f"nv-mid{i}", "", 2003) for i in range(2)]
    ids = [d.id for d in docs]
    from_2005 = [d.id for d in docs if d.year == 2005]
    missing = [f"x{i}" for i in range(6)]
    edges = []
    for _ in range(1400):
        citing, cited = rng.choice(ids), rng.choice(ids)
        if citing != cited:
            edges += [(citing, cited)] * rng.choice((1, 1, 1, 2, 3))
    for _ in range(40):
        edges.append((rng.choice(from_2005), rng.choice(missing)))
        edges.append((rng.choice(missing), rng.choice(ids)))
        edges.append((f"x{len(edges) % 6}", f"x{(len(edges) + 1) % 6}"))
    rng.shuffle(edges)
    return build_graph(edges, docs=docs)


def split_venues(graph):
    """Every journal split in two by alternating its documents, as the
    benchmark's journal-scaling probe does; the graph is built directly."""
    split = {
        doc_id: replace(doc, venue=f"{doc.venue}-{i % 2}") if doc.venue else doc
        for i, (doc_id, doc) in enumerate(sorted(graph.metadata.items()))
    }
    return CitationGraph(nodes=graph.nodes, edges=graph.edges, metadata=split)


GRAPHS = {
    "built": lambda: random_graph(7),
    "split": lambda: split_venues(random_graph(7)),
    "other-seed": lambda: random_graph(11),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def test_fixture_covers_every_case():
    g = random_graph(7)
    assert {d.doc_type for d in g.metadata.values()} == set(DocType)
    assert any(m > 1 for _, _, m in g.edges)
    assert any(not d.venue for d in g.metadata.values())
    assert any(v not in g.metadata for _, v, _ in g.edges)
    assert any(u not in g.metadata for u, _, _ in g.edges)


class TestAgainstStringWalk:
    def test_journals(self, graph):
        assert graph.journals() == ref_journals(graph)

    def test_count_dicts(self, graph):
        for year in CITE_YEARS:
            for fn, ref in ((journal_cite_counts, ref_journal_cite_counts),
                            (journal_article_counts, ref_journal_article_counts),
                            (journal_reference_counts, ref_journal_reference_counts)):
                got, want = fn(graph, year), ref(graph, year)
                assert list(got.items()) == list(want.items()), (fn.__name__, year)
                assert all(type(v) is int for v in got.values())

    def test_total_cites(self, graph):
        for year in CITE_YEARS:
            window = TimeWindow(year, (year, year))
            for journal in (*graph.journals(), "nope"):
                got = outcome(total_cites, graph, journal, window)
                assert got == outcome(ref_total_cites, graph, journal, window), (journal, year)
                assert got[0] != "ok" or type(got[1]) is int

    @pytest.mark.parametrize("doc_types", DOC_TYPE_SETS)
    def test_impact_factor(self, graph, doc_types):
        for year in CITE_YEARS:
            want_values, want_excluded = {}, []
            for journal in (*graph.journals(), "nope"):
                want = outcome(ref_impact_factor_from_graph, graph, journal, year, doc_types)
                got = outcome(impact_factor_from_graph, graph, journal, year, doc_types)
                assert got == want, (journal, year)
                if want[0] == "ok":
                    want_values[journal] = want[1]
                elif want[0] == "UndefinedMetricError":
                    want_excluded.append(journal)
            values, excluded = impact_factors(graph, year, doc_types)
            assert list(values.items()) == list(want_values.items()), year
            assert excluded == tuple(want_excluded), year

    def test_some_journal_has_no_if_items(self, graph):
        results = [impact_factors(graph, year) for year in YEARS]
        assert any(values and excluded for values, excluded in results)

    def test_aggregate(self, graph):
        for year in CITE_YEARS:
            for window in (TimeWindow.two_year(year), TimeWindow(year, (year - 5, year))):
                got = outcome(aggregate_to_journal_matrix, graph, window)
                assert got == outcome(ref_aggregate, graph, window), window
                if got[0] == "ok":
                    zeroed = ref_aggregate(graph, window, zero_diagonal=True)
                    assert got[1].without_self_citations() == zeroed, window

    def test_aggregate_takes_both_paths(self, graph):
        results = [outcome(aggregate_to_journal_matrix, graph, TimeWindow.two_year(year))[0]
                   for year in YEARS]
        assert "ok" in results and "DataError" in results

    def test_dangling_edges_are_left_out(self):
        g = random_graph(7)
        window = TimeWindow(2005, (1991, 2002))  # no venue-less record inside
        dangling = [v for u, v, _ in g.edges
                    if v not in g.metadata and u in g.metadata and g.metadata[u].year == 2005]
        assert len(set(dangling)) > 1
        kept = [(u, v) for u, v, m in g.edges if v in g.metadata for _ in range(m)]
        without = build_graph(kept, docs=list(g.metadata.values()))
        assert aggregate_to_journal_matrix(g, window) == aggregate_to_journal_matrix(
            without, window)


def test_per_journal_calls_walk_the_rows_once(monkeypatch):
    # A per-journal loop (the benchmark's journal-scaling probe makes one
    # of 200 calls) reads a count vector kept on the graph: one walk per
    # cite year and doc-type set, not one per journal.
    rng = random.Random(3)
    docs = [DocumentRecord(f"d{i:04d}", f"J{i % 200:03d}", rng.choice((2003, 2004, 2005)))
            for i in range(1000)]
    edges = [(rng.choice(docs).id, rng.choice(docs).id) for _ in range(3000)]
    g = build_graph([(u, v) for u, v in edges if u != v], docs)
    walks = []
    rows = vars(CitationGraph)["edge_rows"]
    monkeypatch.setattr(CitationGraph, "edge_rows",
                        property(lambda self: walks.append(1) or rows.__get__(self)))
    journals = g.journals()
    assert len(journals) == 200
    window = TimeWindow(2005, (2005, 2005))
    totals = [total_cites(g, journal, window) for journal in journals]
    assert len(walks) == 1
    assert totals == [ref_total_cites(g, journal, window) for journal in journals]
    for doc_types in (None, [DocType.ARTICLE], None, [DocType.ARTICLE]):
        for journal in journals:
            impact_factor_from_graph(g, journal, 2005, doc_types)
    assert len(walks) == 3
    total_cites(g, journals[0], TimeWindow(2004, (2004, 2004)))
    assert len(walks) == 4


class TestNodeColumns:
    def test_columns_follow_node_order(self):
        g = random_graph(7)
        journal, year, doc_type = g.node_columns()
        types = list(DocType)
        for i, node in enumerate(g.nodes):
            doc = g.metadata.get(node)
            if doc is None:
                assert (journal[i], year[i], doc_type[i]) == (-1, 0, -1)
            else:
                want = g.journals().index(doc.venue) if doc.venue else -1
                assert (journal[i], year[i], doc_type[i]) == (
                    want, doc.year, types.index(doc.doc_type))

    def test_record_outside_nodes_is_rejected(self):
        doc = DocumentRecord("a", "J", 2000)
        with pytest.raises(DataError, match="not a graph node"):
            CitationGraph(nodes=(), edges=(), metadata={"a": doc})

    def test_journal_index(self):
        g = random_graph(7)
        assert [g.journal_index(j) for j in g.journals()] == list(range(len(g.journals())))
        with pytest.raises(DataError, match="unknown journal 'nope'"):
            g.journal_index("nope")
