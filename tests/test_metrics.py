"""Total cites, impact factor, and h-index."""

import random

import pytest

from citenet import (
    CitationProfile,
    DataError,
    DocType,
    DocumentRecord,
    ImpactFactorInput,
    TimeWindow,
    UndefinedMetricError,
    build_graph,
    h_index,
    impact_factor,
    impact_factor_from_graph,
    profile_summary,
    total_cites,
)
from citenet.graph import JournalCitationMatrix

import numpy as np


def corpus_with_citations(per_doc_citations, journal="J", year=2000, cite_year=2005):
    """One journal with one doc per entry; each doc receives the given
    number of citations from distinct cite_year documents."""
    docs = [DocumentRecord(f"d{i}", journal, year) for i in range(len(per_doc_citations))]
    edges = []
    k = 0
    for i, cites in enumerate(per_doc_citations):
        for _ in range(cites):
            citer = f"c{k}"
            k += 1
            docs.append(DocumentRecord(citer, "Other", cite_year))
        edges.extend((f"c{j}", f"d{i}") for j in range(k - cites, k))
    return build_graph(edges, docs=docs)


class TestTotalCites:
    def test_seven_in_window_references(self):
        g = corpus_with_citations([3, 4])
        assert total_cites(g, "J", TimeWindow(2005, (2005, 2005))) == 7

    def test_window_excluding_all_edges(self):
        g = corpus_with_citations([3, 4])
        assert total_cites(g, "J", TimeWindow(2004, (2004, 2004))) == 0

    def test_unknown_journal(self):
        g = corpus_with_citations([1])
        with pytest.raises(DataError, match="unknown journal"):
            total_cites(g, "Nope", TimeWindow(2005, (2005, 2005)))

    def test_three_journal_corpus_matches_brute_force_filter(self):
        rng = random.Random(6)
        journals = ["A", "B", "C"]
        docs = [
            DocumentRecord(f"d{i}", rng.choice(journals), rng.choice([2003, 2004, 2005]))
            for i in range(30)
        ]
        by_id = {d.id: d for d in docs}
        edges = []
        ids = list(by_id)
        for _ in range(120):
            u, v = rng.choice(ids), rng.choice(ids)
            if u != v:
                edges.append((u, v))
        g = build_graph(edges, docs=docs)
        window = TimeWindow(2005, (2005, 2005))
        for journal in journals:
            expected = sum(
                1 for u, v in edges
                if by_id[u].year == 2005 and by_id[v].venue == journal
            )
            assert total_cites(g, journal, window) == expected

    def test_no_age_cap_on_cited_items(self):
        # An ancient classic still counts toward the annual cited total.
        docs = [
            DocumentRecord("classic", "J", 1951),
            DocumentRecord("citer", "Other", 2005),
        ]
        g = build_graph([("citer", "classic")], docs=docs)
        assert total_cites(g, "J", TimeWindow(2005, (2005, 2005))) == 1

    def test_from_matrix_column_sum(self):
        m = JournalCitationMatrix(
            ("A", "B"), np.array([[0, 4], [2, 1]]), np.array([3, 3])
        )
        assert dict(zip(m.journals, m.citation_totals().tolist())) == {"A": 2, "B": 5}

    def test_additive_over_disjoint_windows(self):
        docs = [
            DocumentRecord("t", "J", 2000),
            DocumentRecord("c1", "K", 2004),
            DocumentRecord("c2", "K", 2005),
        ]
        g = build_graph([("c1", "t"), ("c2", "t")], docs=docs)
        w1 = total_cites(g, "J", TimeWindow(2004, (2004, 2004)))
        w2 = total_cites(g, "J", TimeWindow(2005, (2005, 2005)))
        assert w1 + w2 == 2


class TestImpactFactor:
    def test_exact_division(self):
        assert impact_factor(ImpactFactorInput(120, 60)) == pytest.approx(2.000)

    def test_zero_cites(self):
        assert impact_factor(ImpactFactorInput(0, 40)) == 0.0

    def test_zero_items_rejected_at_construction(self):
        with pytest.raises(DataError, match="items_in_window"):
            ImpactFactorInput(10, 0)

    def test_scale_consistency(self):
        base = impact_factor(ImpactFactorInput(30, 12))
        doubled = impact_factor(ImpactFactorInput(60, 24))
        assert base == doubled

    def test_from_graph_matches_manual_tally(self):
        # Journal J publishes 2 items in 2003-2004; they receive 5
        # references from 2005 documents -> IF = 5/2 = 2.5.
        docs = [
            DocumentRecord("j1", "J", 2003),
            DocumentRecord("j2", "J", 2004),
            DocumentRecord("j3", "J", 2000),  # outside the window
        ]
        docs += [DocumentRecord(f"c{i}", "K", 2005) for i in range(6)]
        edges = [
            ("c0", "j1"), ("c1", "j1"), ("c2", "j1"),
            ("c3", "j2"), ("c4", "j2"),
            ("c5", "j3"),  # citation to an old item: TC yes, IF no
        ]
        g = build_graph(edges, docs=docs)
        assert impact_factor_from_graph(g, "J", 2005) == pytest.approx(5 / 2)
        assert total_cites(g, "J", TimeWindow(2005, (2005, 2005))) == 6

    def test_superclassic_only_journal_is_excluded(self):
        docs = [
            DocumentRecord("ancient", "Methods", 1951),
            DocumentRecord("citer", "K", 2005),
        ]
        g = build_graph([("citer", "ancient")], docs=docs)
        with pytest.raises(UndefinedMetricError, match="no countable items"):
            impact_factor_from_graph(g, "Methods", 2005)
        # ...while still contributing fully to total cites.
        assert total_cites(g, "Methods", TimeWindow(2005, (2005, 2005))) == 1

    def test_superclassic_contributes_nothing_to_if(self):
        # A journal where one ancient paper draws 3 of 100 annual cites:
        # IF counts only the 97 to recent items.
        docs = [DocumentRecord("lowry", "JBC", 1951),
                DocumentRecord("recent1", "JBC", 2004),
                DocumentRecord("recent2", "JBC", 2003)]
        docs += [DocumentRecord(f"c{i}", "K", 2005) for i in range(100)]
        edges = [(f"c{i}", "lowry") for i in range(3)]
        edges += [(f"c{i}", "recent1" if i % 2 else "recent2") for i in range(3, 100)]
        g = build_graph(edges, docs=docs)
        assert total_cites(g, "JBC", TimeWindow(2005, (2005, 2005))) == 100
        assert impact_factor_from_graph(g, "JBC", 2005) == pytest.approx(97 / 2)

    def test_doc_type_filter(self):
        docs = [
            DocumentRecord("a", "J", 2004, doc_type=DocType.ARTICLE),
            DocumentRecord("n", "J", 2004, doc_type=DocType.OTHER),
            DocumentRecord("c0", "K", 2005),
            DocumentRecord("c1", "K", 2005),
        ]
        g = build_graph([("c0", "a"), ("c1", "n")], docs=docs)
        assert impact_factor_from_graph(g, "J", 2005) == pytest.approx(2 / 2)
        filtered = impact_factor_from_graph(g, "J", 2005, doc_types=[DocType.ARTICLE])
        assert filtered == pytest.approx(1 / 1)

    def test_tc_vs_if_divergence(self):
        # A small review journal (few items, many cites) outranks a big
        # journal by IF while the big journal wins by TC.
        docs = [DocumentRecord(f"r{i}", "SmallRev", 2004) for i in range(5)]
        docs += [DocumentRecord(f"b{i}", "BigJ", 2004) for i in range(200)]
        docs += [DocumentRecord(f"c{i}", "K", 2005) for i in range(1000)]
        edges = [(f"c{i}", f"r{i % 5}") for i in range(200)]
        edges += [(f"c{i}", f"b{(i - 200) % 200}") for i in range(200, 1000)]
        g = build_graph(edges, docs=docs)
        window = TimeWindow(2005, (2005, 2005))
        tc = {j: total_cites(g, j, window) for j in ("SmallRev", "BigJ")}
        if_ = {j: impact_factor_from_graph(g, j, 2005) for j in ("SmallRev", "BigJ")}
        assert tc["BigJ"] > tc["SmallRev"]
        assert if_["SmallRev"] > if_["BigJ"]


def brute_force_h(counts):
    return max(
        (h for h in range(len(counts) + 1) if sum(1 for c in counts if c >= h) >= h),
        default=0,
    )


class TestHIndex:
    def test_empty_and_zero_profiles(self):
        assert h_index([]) == 0
        assert h_index([0, 0, 0]) == 0

    def test_worked_example(self):
        # Exhaustive scan: h=4 (four papers with >= 4 cites, not five with >= 5).
        assert brute_force_h([10, 8, 5, 4, 3]) == 4
        assert h_index([10, 8, 5, 4, 3]) == 4

    def test_matches_exhaustive_oracle_on_random_profiles(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(0, 40)
            counts = [rng.randrange(0, 120) for _ in range(n)]
            assert h_index(counts) == brute_force_h(counts)

    def test_permutation_invariant(self):
        rng = random.Random(9)
        counts = [rng.randrange(0, 50) for _ in range(25)]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert h_index(counts) == h_index(shuffled)

    def test_monotone_under_increment(self):
        rng = random.Random(10)
        for _ in range(200):
            counts = [rng.randrange(0, 30) for _ in range(15)]
            base = h_index(counts)
            i = rng.randrange(15)
            bumped = counts[:]
            bumped[i] += 1
            assert h_index(bumped) >= base

    def test_bounded_by_paper_count(self):
        assert h_index([100] * 7) == 7


class TestProfileSummary:
    def test_empty(self):
        assert profile_summary([]) == (0, 0, 0, 0)

    def test_h_core_summary(self):
        # Constructed laureate-style profile: 49 papers in the h-core
        # with max 797 and total 6692 (range 748), plus a sub-core tail
        # that must not change the summary.
        core = [797, 142] + [124] * 46 + [49]
        assert len(core) == 49
        assert sum(core) == 6692
        profile = CitationProfile(tuple(core + [38, 21, 10, 3, 0]))
        summary = profile_summary(profile)
        assert summary.h_index == 49
        assert summary.max_cites == 797
        assert summary.total_cites == 6692
        assert summary.cites_range == 748

    def test_from_graph_variant(self):
        docs = [
            DocumentRecord("p1", "J", 2000, authors=("Jane Q. Smith", "A. Other")),
            DocumentRecord("p2", "J", 2001, authors=("B. Reader", "Jane Q. Smith")),
            DocumentRecord("p3", "J", 2002, authors=("B. Reader",)),
        ]
        docs += [DocumentRecord(f"c{i}", "K", 2005) for i in range(4)]
        edges = [("c0", "p1"), ("c1", "p1"), ("c2", "p2"), ("c3", "p3")]
        g = build_graph(edges, docs=docs)
        # Each publication's count is its in-degree in the graph; the
        # CLI's "no documents authored by" error is in test_cli.py.
        docs = g.docs_by_author("jane q. smith")
        profile = CitationProfile(tuple(g.in_degree(doc.id) for doc in docs))
        assert sorted(profile.counts) == [1, 2]
        assert h_index(profile) == 1
        assert g.docs_by_author("Nobody") == ()

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError, match="nonnegative"):
            CitationProfile((3, -1))
