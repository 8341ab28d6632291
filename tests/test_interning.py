"""Property tests for the int-coded graph: ``build_graph`` interns ids once
and every query reads the integer form.

Examples are derandomized and kept in no example database, so every run
draws the same cases.
"""

import csv
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citenet import CitationGraph, DataError, DocType, DocumentRecord, build_graph, load_corpus
from citenet.cli import main
from citenet.formats import _RowReader, read_docs

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


@st.composite
def linked_corpora(draw):
    """A corpus from ``corpora()`` plus edges between its documents, so
    that the journal commands count citations."""
    rows, docs, seed = draw(corpora())
    if docs:
        linked = st.sampled_from([d.id for d in docs])
        rows += [(u, v) for u, v in draw(st.lists(st.tuples(linked, linked), max_size=30)) if u != v]
    return rows, docs, seed


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


def reports(rows, docs) -> dict[str, tuple[int, dict[str, bytes]]]:
    """Exit code and report files of each graph command on a written corpus."""
    window = ["--cite-year", "2002"]
    commands = {
        "pagerank": ["pagerank", "--json"],
        "hits": ["hits"],
        "total-cites": ["total-cites", *window],
        "impact-factor": ["impact-factor", *window],
        "bradford": ["bradford", *window, "--zones", "2"],
    }
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edges_path, docs_path = write_corpus(tmp, rows, docs)
        corpus = ["--edges", str(edges_path), "--docs", str(docs_path)]
        for label, argv in commands.items():
            out = tmp / label
            code = main([*argv, *corpus, "--out-dir", str(out)])
            files = sorted(out.iterdir()) if out.exists() else []
            results[label] = code, {path.name: path.read_bytes() for path in files}
    return results


@PROPERTY
@given(corpora())
def test_permuted_rows_give_the_same_graph(corpus):
    rows, docs, seed = corpus
    rng = random.Random(seed)
    g1 = build_graph(rows, docs)
    g2 = build_graph(shuffled(rows, rng), shuffled(docs, rng))
    assert g1 == g2
    for a, b in zip(g1.edge_arrays(), g2.edge_arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert g1.node_columns() == g2.node_columns()


@settings(PROPERTY, max_examples=300)
@given(corpora())
def test_edge_tuples_rebuild_the_graph(corpus):
    rows, docs, _ = corpus
    g = build_graph(rows, docs)
    rebuilt = CitationGraph(g.nodes, g.edges, g.metadata)
    assert rebuilt == g
    for a, b in zip(rebuilt.edge_arrays(), g.edge_arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert rebuilt.node_columns() == g.node_columns()


@settings(PROPERTY, max_examples=30)
@given(linked_corpora())
def test_permuted_rows_give_byte_identical_reports(corpus):
    rows, docs, seed = corpus
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
    rows = [(u, v) for u, v in rows if u != v]
    g = build_graph(rows)
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


# Edge-file ids: short ids and ids that the writer quotes, one of them
# across two lines.
names = st.one_of(ids, st.sampled_from(["a\nb", 'q"t', "c,d"]))
malformed_rows = st.one_of(
    st.sampled_from([[], [""]]),  # blank rows, skipped without a note
    st.lists(names, min_size=1, max_size=1),
    st.lists(names, min_size=3, max_size=3),
    st.tuples(st.just(""), names).map(list),
    st.tuples(names, st.just("")).map(list),
)


@st.composite
def edge_files(draw):
    """(raw edge rows, document records or None), with duplicate,
    self-loop, malformed and blank rows; the documents cover all, some
    or none of the edge endpoints."""
    rows = draw(st.lists(st.tuples(names, names).map(list), max_size=25))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    if draw(st.booleans()):
        rows += draw(st.lists(malformed_rows, max_size=2))
    rows = draw(st.permutations(rows))
    endpoints = sorted({x for row in rows if len(row) == 2 for x in row if x})
    cover = draw(st.sampled_from(["none", "all", "some"]))
    if cover == "none":
        return rows, None
    if cover == "some":
        endpoints = draw(st.lists(st.sampled_from(endpoints or ["a"]), unique=True))
    return rows, [DocumentRecord(doc_id, "J", 2000) for doc_id in endpoints]


def reference_load(edges_path, docs_path, strict):
    """The edge-row policy as one loop over string ids, counted with a
    Counter: (nodes, edges, warnings)."""
    warnings = []

    def complain(note):
        if strict:
            raise DataError(note)
        warnings.append(note)

    rows = []
    with open(edges_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        lineno = reader.line_num + 1  # the physical line a record starts on
        for row in reader:
            if len(row) == 2 and row[0] and row[1]:
                rows.append((lineno, *row))
            elif any(row):
                complain(f"{edges_path}:{lineno}: malformed edge row {row!r}")
            lineno = reader.line_num + 1
    docs, notes = read_docs(docs_path, strict) if docs_path is not None else ([], [])
    warnings += notes
    known = {d.id for d in docs} if docs_path is not None else None
    loops, counts = [], Counter()
    for lineno, citing, cited in rows:
        if known is not None and (citing not in known or cited not in known):
            dangling = ", ".join(x for x in (citing, cited) if x not in known)
            complain(f"{edges_path}:{lineno}: edge ({citing},{cited}) references "
                     f"unknown document id(s) {dangling}")
        if citing == cited:
            loops.append(f"{edges_path}:{lineno}: self-loop on {citing!r} skipped")
        else:
            counts[citing, cited] += 1
    if strict and loops:
        raise DataError(loops[0])
    nodes = tuple(sorted({*(d.id for d in docs), *(x for pair in counts for x in pair)}))
    edges = tuple(sorted((u, v, m) for (u, v), m in counts.items()))
    return nodes, edges, warnings + loops


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return "DataError", str(exc)


@settings(PROPERTY, max_examples=150)
@given(edge_files())
@example(([["b", "b"], ["a", "ghost"], ["ghost", "ghost"]], [DocumentRecord(d, "J", 2000) for d in "ab"]))
def test_load_corpus_matches_the_string_policy_loop(corpus):
    rows, docs = corpus
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, docs_path = write_corpus(Path(tmp), rows, docs or [])
        docs_path = docs_path if docs is not None else None
        for strict in (False, True):
            want = outcome(reference_load, edges_path, docs_path, strict)
            got = outcome(load_corpus, edges_path, docs_path, strict)
            if want[0] == "DataError":
                assert got == want
                continue
            nodes, edges, warnings = want
            graph = got.graph
            assert (graph.nodes, graph.edges, got.warnings) == (nodes, edges, warnings)
            index = {node: i for i, node in enumerate(nodes)}
            columns = ([index[u] for u, _, _ in edges], [index[v] for _, v, _ in edges],
                       [m for _, _, m in edges])
            for array, column in zip(graph.edge_arrays(), columns):
                assert array.dtype == np.int64 and array.tolist() == column
            assert graph.n_edges == sum(columns[2])


# docs.csv rows with bad or huge years, negative or non-numeric cites,
# unknown doc types, duplicate and empty ids, spaced or blank author lists,
# and rows of the wrong width (blank rows among them).
doc_rows = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["a", "b", "c", "", "a "]),
            st.sampled_from(["J", "", "K, L", 'Q "x"']),
            st.sampled_from(["2000", "1", " 2001", "0", "-3", "", "abc", "1e3",
                             str(2**63 - 1), str(2**63)]),
            st.sampled_from(["article", "review", "", "other", "bogus", "Review"]),
            st.sampled_from(["0", "5", "", "-1", "x"]),
            st.sampled_from(["", "A. One", " A. One ;  B. Two ", ";;", "A;;B", "   ", "A; ;B"]),
        ).map(list),
        st.lists(st.sampled_from(["a", "", "2000"]), max_size=8),
    ),
    max_size=12,
)


def record_loop_read_docs(path, strict):
    """The loop ``formats.read_docs`` ran before it kept columns: one
    ``DocumentRecord`` per row, whose constructor does the checks."""
    reader = _RowReader(path, strict, ["id", "venue", "year", "doc_type", "cites", "authors"])
    docs, seen = [], set()
    for lineno, row in reader:
        if len(row) != 6:
            reader.complain(lineno, f"expected 6 fields, got {len(row)}")
            continue
        doc_id, venue, year_s, type_s, cites_s, authors_s = row
        try:
            doc = DocumentRecord(
                id=doc_id,
                venue=venue,
                year=int(year_s),
                doc_type=DocType(type_s) if type_s else DocType.OTHER,
                cites=int(cites_s) if cites_s else 0,
                authors=tuple(a.strip() for a in authors_s.split(";") if a.strip()),
            )
        except (ValueError, DataError) as exc:
            reader.complain(lineno, str(exc))
            continue
        if doc.id in seen:
            reader.complain(lineno, f"duplicate document id {doc.id!r}")
            continue
        seen.add(doc.id)
        docs.append(doc)
    return docs, reader.warnings


@settings(PROPERTY, max_examples=200)
@given(doc_rows)
@example([["a", "J", str(2**63), "article", "0", ""], ["a", "J", "2000", "bogus", "0", ""],
          ["b", "J", "2000", "", "-1", ""], ["a", "J", "2000", "", "", " X ;; Y "],
          ["a", "K", "2001", "review", "1", ""], [], ["", "", "", "", "", ""]])
def test_columnar_read_docs_matches_the_record_loop(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "docs.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "venue", "year", "doc_type", "cites", "authors"])
            writer.writerows(rows)
        for strict in (False, True):
            want = outcome(record_loop_read_docs, path, strict)
            got = outcome(read_docs, path, strict)
            loaded = outcome(load_corpus, None, path, strict)
            if want[0] == "DataError":
                assert got == loaded == want
                continue
            docs, warnings = got
            assert (list(docs), warnings) == want
            assert loaded.warnings == warnings
            assert list(loaded.graph.metadata.items()) == [(d.id, d) for d in want[0]]
