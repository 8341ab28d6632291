"""Property tests for the int-coded graph: ``build_graph`` interns ids once
and every query reads the integer form.

Examples are derandomized and kept in no example database, so every run
draws the same cases.
"""

import csv
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from citenet import DocType, DocumentRecord, build_graph, load_corpus
from citenet.cli import main

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Short ids over a tiny alphabet, with a trailing NUL or space, so that ids
# differing only by those suffixes or by letter case are drawn often.
ids = st.builds(
    lambda stem, suffix: stem + suffix,
    st.text(alphabet="aAbB", min_size=1, max_size=2),
    st.sampled_from(["", "\x00", " "]),
)
edge_rows = st.lists(st.tuples(ids, ids), max_size=40)


@st.composite
def corpora(draw):
    """(edge rows without self-loops, document records, shuffle seed)."""
    rows = [(u, v) for u, v in draw(edge_rows) if u != v]
    doc_ids = draw(st.lists(ids, unique=True, max_size=12))
    docs = [
        DocumentRecord(
            doc_id,
            draw(st.sampled_from(["J1", "J2", ""])),
            draw(st.integers(2000, 2003)),
            doc_type=draw(st.sampled_from(list(DocType))),
            cites=draw(st.integers(0, 5)),
        )
        for doc_id in doc_ids
    ]
    return rows, docs, draw(st.integers(0, 2**32 - 1))


def shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def write_corpus(directory: Path, rows, docs) -> tuple[Path, Path]:
    edges_path, docs_path = directory / "edges.csv", directory / "docs.csv"
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["citing_id", "cited_id"])
        writer.writerows(rows)
    with open(docs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "venue", "year", "doc_type", "cites", "authors"])
        writer.writerows(
            [d.id, d.venue, d.year, d.doc_type.value, d.cites, ""] for d in docs
        )
    return edges_path, docs_path


def reports(rows, docs) -> dict[str, bytes]:
    """Report files of ``pagerank`` and ``total-cites`` on a written corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edges_path, docs_path = write_corpus(tmp, rows, docs)
        corpus = ["--edges", str(edges_path), "--docs", str(docs_path)]
        out = tmp / "out"
        assert main(["pagerank", *corpus, "--out-dir", str(out), "--json"]) == 0
        code = main(["total-cites", *corpus, "--cite-year", "2002", "--out-dir", str(out)])
        assert code == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@PROPERTY
@given(corpora())
def test_permuted_rows_give_the_same_graph(corpus):
    rows, docs, seed = corpus
    rng = random.Random(seed)
    g1 = build_graph(rows, docs)
    g2 = build_graph(shuffled(rows, rng), shuffled(docs, rng))
    assert g1 == g2
    columns = zip((*g1.edge_arrays(), *g1.node_columns()), (*g2.edge_arrays(), *g2.node_columns()))
    for a, b in columns:
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(PROPERTY, max_examples=30)
@given(corpora())
def test_permuted_rows_give_byte_identical_reports(corpus):
    rows, docs, seed = corpus
    assume(rows or docs)  # pagerank rejects an empty graph
    rng = random.Random(seed)
    assert reports(rows, docs) == reports(shuffled(rows, rng), shuffled(docs, rng))


@PROPERTY
@given(edge_rows, st.lists(ids, max_size=6))
def test_every_distinct_id_is_its_own_node(rows, doc_ids):
    rows = [(u, v) for u, v in rows if u != v]
    doc_ids = list(dict.fromkeys(doc_ids))
    g = build_graph(rows, [DocumentRecord(d, "J", 2000) for d in doc_ids])
    assert g.nodes == tuple(sorted({*doc_ids, *(x for row in rows for x in row)}))


def test_ids_differing_by_nul_space_or_case_stay_distinct(tmp_path):
    rows = [("a", "a\x00"), ("a\x00", "a "), ("a ", "A"), ("A", "a")]
    edges_path, _ = write_corpus(tmp_path, rows, [])
    graph = load_corpus(edges=edges_path, strict=True).graph
    assert graph.nodes == ("A", "a", "a\x00", "a ")
    assert graph.edges == (("A", "a", 1), ("a", "a\x00", 1), ("a\x00", "a ", 1), ("a ", "A", 1))
    assert [graph.in_degree(node) for node in graph.nodes] == [1, 1, 1, 1]


@PROPERTY
@given(edge_rows)
def test_degrees_match_a_linear_scan(rows):
    g = build_graph(rows, allow_self_loops=True)
    for node in g.nodes:
        assert g.in_degree(node) == sum(1 for _, v in rows if v == node)
        assert g.out_degree(node) == sum(1 for u, _ in rows if u == node)


@PROPERTY
@given(edge_rows)
def test_n_edges_counts_the_clean_rows(rows):
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, _ = write_corpus(Path(tmp), rows, [])
        bundle = load_corpus(edges=edges_path)
    clean = [(u, v) for u, v in rows if u != v]
    assert bundle.graph.n_edges == len(clean)
    assert len(bundle.warnings) == len(rows) - len(clean)
