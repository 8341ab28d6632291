"""Immutable citation-graph and journal-matrix data model.

A :class:`CitationGraph` is a directed multigraph at the document level
(edge = citing document -> cited document). An inlink is a received
citation, an outlink is a given reference; degree queries count edge
multiplicity. :func:`aggregate_to_journal_matrix` rolls document-level
edges up to a square journal-to-journal count matrix for a time window.

Graphs and matrices are immutable after construction: any number of
readers may query them concurrently.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Container, Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from ._numpy import np
from .errors import DataError


class DocType(Enum):
    """Bibliographic type of a document."""

    ARTICLE = "article"
    REVIEW = "review"
    BOOK = "book"
    PROCEEDINGS = "proceedings"
    OTHER = "other"


def normalize_author(name: str) -> str:
    """Whitespace- and case-normalized form used for exact name matching."""
    return " ".join(name.split()).casefold()


@dataclass(frozen=True)
class DocumentRecord:
    """Per-document metadata.

    ``cites`` is an externally supplied citation count (e.g. a scraped
    total), independent of any edges present in a graph. ``authors`` is
    the byline in order; position 1 is the primary author. ``venue`` may
    be empty when the journal is unknown.
    """

    id: str
    venue: str
    year: int
    authors: tuple[str, ...] = ()
    doc_type: DocType = DocType.ARTICLE
    cites: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "authors", tuple(self.authors))
        _check_document(self.id, self.year, self.authors, self.cites)


def _check_document(doc_id: str, year: int, authors: tuple[str, ...], cites: int) -> None:
    """Reject a document field outside its domain: the checks of
    :class:`DocumentRecord`, which ``formats.read_docs`` runs on each row
    without building a record."""
    if not doc_id:
        raise DataError("document id must be nonempty")
    if not isinstance(year, int) or year <= 0:
        raise DataError(f"document {doc_id!r}: year must be a positive integer")
    if year >= 2**63:  # aggregate_to_journal_matrix holds years as int64
        raise DataError(f"document {doc_id!r}: year {year} is out of range")
    if not all(map(str.strip, authors)):
        raise DataError(f"document {doc_id!r}: author names must be nonempty")
    if cites < 0:
        raise DataError(f"document {doc_id!r}: cites must be >= 0")


class _DocColumns(Sequence):
    """Checked documents as parallel tuples, one per :class:`DocumentRecord`
    field in field order; item ``i`` is built as a record when read.

    Raises :class:`DataError` on a duplicate id.
    """

    def __init__(self, rows: Iterable[tuple]) -> None:
        self.ids, self.venues, self.years, self.authors, self.doc_types, self.cites = (
            tuple(zip(*rows)) or ((),) * 6
        )
        if len(set(self.ids)) < len(self.ids):
            seen: set[str] = set()
            duplicate = next(i for i in self.ids if i in seen or seen.add(i))
            raise DataError(f"duplicate document id {duplicate!r}")

    @classmethod
    def of(cls, docs: Iterable[DocumentRecord]) -> "_DocColumns":
        return cls((d.id, d.venue, d.year, d.authors, d.doc_type, d.cites) for d in docs)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> DocumentRecord:
        return DocumentRecord(self.ids[i], self.venues[i], self.years[i], self.authors[i],
                              self.doc_types[i], self.cites[i])


@dataclass(frozen=True)
class TimeWindow:
    """A citation time window: references made in ``cite_year`` to items
    published within the inclusive ``source_years`` range."""

    cite_year: int
    source_years: tuple[int, int]

    def __post_init__(self) -> None:
        first, last = self.source_years
        if first > last:
            raise DataError(f"source_years {self.source_years} not an increasing range")
        if last > self.cite_year:
            raise DataError(
                f"source_years {self.source_years} extend past cite_year {self.cite_year}"
            )

    @classmethod
    def two_year(cls, cite_year: int) -> "TimeWindow":
        """The classic two-preceding-years window used by the impact factor."""
        return cls(cite_year, (cite_year - 2, cite_year - 1))


class CitationGraph:
    """Directed document-level citation graph.

    The graph holds its edge rows as one list of int codes, citing,
    cited, citing, ..., one row per citation instance, so parallel
    citations are kept as repeated rows. Codes are the order in which
    ids were first seen; ``_rank[code]`` is the id's position in
    ``nodes``. ``nodes`` is sorted, so two graphs built from
    permutations of the same input compare equal. Journal counts walk
    the rows in Python (``edge_rows``); only ``edge_arrays()``, the
    deduplicated arrays the solvers iterate, imports numpy.

    ``edges`` lists the distinct (citing, cited, multiplicity) pairs in
    ``edge_arrays()`` order. The documents are held as columns beside
    the rows, and ``metadata`` maps each id to its
    :class:`DocumentRecord`, built from them on first read.
    ``CitationGraph(nodes, edges, metadata)`` builds a graph from such
    tuples and records, with ``build_graph``'s checks; it raises
    :class:`DataError` on a duplicate node, a multiplicity that is not an
    int >= 1, an endpoint or record id outside ``nodes``, or a
    ``metadata`` key other than its record's id, and sorts ``nodes``.
    ``build_graph`` is the usual way to make a graph.
    A graph is immutable: assigning or deleting an attribute raises
    ``AttributeError``.
    """

    nodes: tuple[str, ...]
    _pairs: list[int]
    _rank: list[int]
    _docs: _DocColumns

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str, int]] = (),
        metadata: Mapping[str, DocumentRecord] | None = None,
    ) -> None:
        nodes, edges, metadata = tuple(nodes), tuple(edges), dict(metadata or {})
        codes = {node: code for code, node in enumerate(nodes)}
        if len(codes) < len(nodes):
            raise DataError(f"duplicate node {Counter(nodes).most_common(1)[0][0]!r}")
        bad = next((edge for edge in edges if not isinstance(edge[2], int) or edge[2] < 1), None)
        if bad is not None:
            raise DataError(f"edge {bad!r}: multiplicity must be an integer >= 1")
        pairs = _intern(((u, v) for u, v, m in edges for _ in range(m)), codes)
        docs = _DocColumns.of(metadata.values())
        stray = (codes.keys() | docs.ids) - set(nodes)
        if stray:
            raise DataError(f"id {min(stray)!r} is an edge endpoint or record but not a graph node")
        key = next((k for k, doc in metadata.items() if k != doc.id), None)
        if key is not None:
            raise DataError(f"metadata key {key!r} holds the record of {metadata[key].id!r}")
        _lay_out(self, codes, pairs, docs)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: a CitationGraph is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationGraph):
            return NotImplemented
        return (self.nodes, self.edges, self.metadata) == (other.nodes, other.edges, other.metadata)

    def _derived(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, computed once per ``key``: a value that another
        module derives from this immutable graph, such as a count vector.
        Threads racing on a new key may each compute it; all get the
        value stored first."""
        memo = vars(self).setdefault("_memo", {})
        return memo[key] if key in memo else memo.setdefault(key, compute())

    @cached_property
    def _node_index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def metadata(self) -> dict[str, DocumentRecord]:
        """Document records by id, in the order they were given."""
        return {doc.id: doc for doc in self._docs}

    @cached_property
    def edges(self) -> tuple[tuple[str, str, int], ...]:
        """(citing, cited, multiplicity) per distinct pair, in array order."""
        if not self._pairs:
            return ()
        src, dst, mult = self.edge_arrays()
        names = np.array(self.nodes, dtype=object)
        return tuple(zip(names[src].tolist(), names[dst].tolist(), mult.tolist()))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Total edge multiplicity (number of citation instances)."""
        return len(self._pairs) // 2

    def in_degree(self, node: str) -> int:
        """Number of citations received by ``node`` (inlinks, with multiplicity)."""
        return self._degrees[0][self._position(node)]

    def out_degree(self, node: str) -> int:
        """Number of references given by ``node`` (outlinks, with multiplicity)."""
        return self._degrees[1][self._position(node)]

    def _position(self, node: str) -> int:
        try:
            return self._node_index[node]
        except KeyError:
            raise DataError(f"unknown node {node!r}") from None

    @cached_property
    def _degrees(self) -> tuple[Counter, Counter]:
        citing, cited = self.edge_rows
        return Counter(cited), Counter(citing)

    @cached_property
    def edge_rows(self) -> tuple[list[int], list[int]]:
        """(citing, cited) node positions, one entry per citation instance."""
        rows = list(map(self._rank.__getitem__, self._pairs))
        return rows[0::2], rows[1::2]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (src, dst, mult) int64 arrays over node positions: document
        ``src[k]`` cites ``dst[k]`` ``mult[k]`` times, one entry per
        distinct pair, sorted by (src, dst). Empty for a graph without
        edges."""
        return self._edge_arrays

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.nodes)
        rank = np.array(self._rank, dtype=np.int64)
        src, dst = rank[np.array(self._pairs, dtype=np.int64)].reshape(-1, 2).T
        keys, mult = np.unique(src * n + dst, return_counts=True)
        return (*divmod(keys, n), mult)

    def journals(self) -> tuple[str, ...]:
        """Distinct venues appearing in document metadata, sorted."""
        return self._journals

    @cached_property
    def _journals(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._docs.venues) - {""}))

    @cached_property
    def _journal_codes(self) -> dict[str, int]:
        return {journal: code for code, journal in enumerate(self._journals)}

    def journal_index(self, journal: str) -> int:
        """Position of ``journal`` in ``journals()``; its code in ``node_columns()``."""
        try:
            return self._journal_codes[journal]
        except KeyError:
            raise DataError(f"unknown journal {journal!r}") from None

    def node_columns(self) -> tuple[list[int], list[int], list[int]]:
        """Per-node (journal code, year, doc-type code) lists in ``nodes`` order.

        The journal code indexes ``journals()`` and is -1 for a node with
        no record or no venue; the year is 0 for a node with no record
        (a real year is always >= 1); the doc-type code indexes
        ``list(DocType)`` and is -1 for a node with no record. Every
        journal metric counts over these columns and ``edge_rows``.
        """
        return self._node_columns

    @cached_property
    def _node_columns(self) -> tuple[list[int], list[int], list[int]]:
        n = len(self.nodes)
        journal, year, doc_type = [-1] * n, [0] * n, [-1] * n
        docs, idx = self._docs, self._node_index
        codes = self._journal_codes
        type_codes = {t: code for code, t in enumerate(DocType)}
        for doc_id, venue, doc_year, t in zip(docs.ids, docs.venues, docs.years, docs.doc_types):
            i = idx[doc_id]
            journal[i], year[i], doc_type[i] = codes.get(venue, -1), doc_year, type_codes[t]
        return journal, year, doc_type

    def docs_by_author(self, author: str) -> tuple[DocumentRecord, ...]:
        """Documents whose byline names ``author``, in metadata order.

        Names match exactly after :func:`normalize_author`; a document
        naming the author twice is listed once.
        """
        positions = self._author_index.get(normalize_author(author), ())
        return tuple(map(self._docs.__getitem__, positions))

    @cached_property
    def _author_index(self) -> dict[str, list[int]]:
        """Normalized author name -> positions of the documents naming it."""
        index: dict[str, list[int]] = {}
        for i, authors in enumerate(self._docs.authors):
            for name in dict.fromkeys(map(normalize_author, authors)):
                index.setdefault(name, []).append(i)
        return index


class _InternedEdges(NamedTuple):
    """Edge rows that ``load_corpus`` has already interned and checked:
    ``pairs`` holds (citing, cited) codes into ``codes``, interleaved,
    with no self-loops. The codes in ``dropped`` named rows that were
    skipped; one that no other row or document names is not a node."""

    codes: dict[str, int]
    pairs: list[int]
    dropped: set[int]


def build_graph(
    edge_list: Iterable[tuple[str, str]],
    docs: Sequence[DocumentRecord] | None = None,
) -> CitationGraph:
    """Build a :class:`CitationGraph` from (citing, cited) pairs.

    Duplicate pairs accumulate multiplicity. Self-loops are rejected, as
    ``load_corpus`` skips them. Nodes are the union of edge endpoints and
    document ids; an empty edge list is accepted.
    """
    if isinstance(edge_list, _InternedEdges):  # load_corpus's rows are checked already
        codes, pairs, dropped = dict(edge_list.codes), edge_list.pairs, edge_list.dropped
    else:
        codes, dropped = {}, set()
        pairs = _intern(edge_list, codes)
    docs = docs if isinstance(docs, _DocColumns) else _DocColumns.of(docs or ())
    return _lay_out(CitationGraph.__new__(CitationGraph), codes, pairs, docs, dropped)


def _intern(edge_list: Iterable[tuple[str, str]], codes: dict[str, int]) -> list[int]:
    """The (citing, cited) codes of ``edge_list``, interleaved; an id not
    yet in ``codes`` is added with the next code. Raises
    :class:`DataError` on an empty endpoint or a self-loop."""
    pairs: list[int] = []
    for citing, cited in edge_list:
        if not citing or not cited:
            raise DataError(f"edge ({citing!r}, {cited!r}) has an empty endpoint")
        if citing == cited:
            raise DataError(f"self-loop on {citing!r}")
        pairs += (codes.setdefault(citing, len(codes)), codes.setdefault(cited, len(codes)))
    return pairs


def _lay_out(graph: CitationGraph, codes: dict[str, int], pairs: list[int], docs: _DocColumns,
             dropped: Set[int] = frozenset()) -> CitationGraph:
    """Set ``graph``'s fields from checked rows and documents, and return it.

    ``pairs`` holds (citing, cited) codes into ``codes``, interleaved.
    The nodes are the ids of ``codes`` and ``docs``, sorted, less the
    ``dropped`` codes that no row or document names (``load_corpus``
    interns the ids of rows it then skips). ``_rank`` maps each code to
    its node's position, so ``edge_arrays``' pair keys sort exactly as
    the (citing, cited) strings.
    """
    doc_codes = [codes.setdefault(doc_id, len(codes)) for doc_id in docs.ids]
    ids = list(codes)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    unused = dropped.difference(doc_codes)
    if unused:
        unused -= set(pairs)
        order = [code for code in order if code not in unused]
    rank = [0] * len(ids)  # an unused code keeps 0: no row names it
    for position, code in enumerate(order):
        rank[code] = position
    nodes = tuple(map(ids.__getitem__, order))
    vars(graph).update(nodes=nodes, _rank=rank, _pairs=pairs, _docs=docs)
    return graph


def _window_mask(graph: CitationGraph, first: int, last: int,
                 doc_types: Container[DocType] | None = None) -> list[bool]:
    """Node mask in ``nodes`` order: the documents with a record published
    in ``first``..``last`` whose doc type is in ``doc_types`` (default:
    any). A node without a record is in no window."""
    _, year, doc_type = graph.node_columns()
    allowed = [doc_types is None or t in doc_types for t in DocType] + [False]  # -1: no record
    return [allowed[t] and first <= y <= last for y, t in zip(year, doc_type)]


@dataclass(frozen=True, eq=False)
class JournalCitationMatrix:
    """Square journal-to-journal citation count matrix.

    ``counts[i][j]`` is the number of references from journal ``i`` to
    journal ``j`` within the window; the diagonal holds journal
    self-citations. ``pubs[j]`` is the number of journal-``j``
    publications in the window's source years (always >= 1: journals
    without window publications are dropped at construction and listed
    in ``dropped``).
    """

    journals: tuple[str, ...]
    counts: np.ndarray
    pubs: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        pubs = np.asarray(self.pubs, dtype=np.int64)
        n = len(self.journals)
        if len(set(self.journals)) != n:
            raise DataError("journal list contains duplicates")
        if counts.shape != (n, n):
            raise DataError(f"count matrix shape {counts.shape} does not match {n} journals")
        if pubs.shape != (n,):
            raise DataError(f"pubs vector shape {pubs.shape} does not match {n} journals")
        if n and counts.min() < 0:
            raise DataError("citation counts must be nonnegative")
        if n and pubs.min() < 1:
            raise DataError("every retained journal needs at least one publication")
        counts.setflags(write=False)
        pubs.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "pubs", pubs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JournalCitationMatrix):
            return NotImplemented
        return (
            self.journals == other.journals
            and self.dropped == other.dropped
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.pubs, other.pubs)
        )

    @property
    def n_journals(self) -> int:
        return len(self.journals)

    def reference_totals(self) -> np.ndarray:
        """References given per journal (row sums)."""
        return self.counts.sum(axis=1)

    def citation_totals(self) -> np.ndarray:
        """Citations received per journal (column sums)."""
        return self.counts.sum(axis=0)

    def without_self_citations(self) -> "JournalCitationMatrix":
        """Copy with the diagonal (journal self-citations) zeroed."""
        counts = self.counts.copy()
        np.fill_diagonal(counts, 0)
        return JournalCitationMatrix(self.journals, counts, self.pubs, self.dropped)

    def without_nonreferencing(self) -> tuple["JournalCitationMatrix", tuple[str, ...]]:
        """Copy without the journals that give no references, and their names.

        Removing a journal also removes the references to it, which can
        leave another journal with none, so pruning runs to a fixed point.
        Names come in the order they were pruned, in matrix order within
        one round; the result may have no journals left.
        """
        matrix, pruned = self, []
        while True:
            keep = matrix.reference_totals() > 0
            if keep.all():
                return matrix, tuple(pruned)
            pruned += compress(matrix.journals, (~keep).tolist())
            matrix = JournalCitationMatrix(
                tuple(compress(matrix.journals, keep.tolist())),
                matrix.counts[np.ix_(keep, keep)],
                matrix.pubs[keep],
                matrix.dropped,
            )


def aggregate_to_journal_matrix(
    graph: CitationGraph,
    window: TimeWindow,
) -> JournalCitationMatrix:
    """Aggregate document edges to a journal matrix for ``window``.

    counts[i][j] counts references from journal-i documents published in
    the cite year to journal-j documents published in the source years;
    pubs[j] counts journal-j documents in the source years. Journals with
    zero source-year publications are dropped (reported in ``dropped``),
    and references touching a dropped journal are excluded with them. A
    reference to a document without a record (a dangling edge, which
    ``load_corpus`` reports as it loads) has no year, so it is left out,
    as every journal count leaves it out.

    Raises :class:`DataError` when a document inside the window has no
    venue (the first in ``nodes`` order is named).
    """
    journal = np.array(graph.node_columns()[0], dtype=np.int64)
    in_source = np.array(_window_mask(graph, *window.source_years), dtype=bool)
    citing = np.array(_window_mask(graph, window.cite_year, window.cite_year), dtype=bool)
    no_venue = np.flatnonzero((in_source | citing) & (journal < 0))
    if no_venue.size:
        doc_id = graph.nodes[no_venue[0]]
        raise DataError(f"document {doc_id!r} is inside the window but has no venue")
    names = graph.journals()
    pubs = np.bincount(journal[in_source], minlength=len(names))
    kept = pubs > 0
    seen = np.bincount(journal[in_source | citing], minlength=len(names)) > 0
    journals = tuple(compress(names, kept.tolist()))
    dropped = tuple(compress(names, (seen & ~kept).tolist()))

    src, dst, mult = graph.edge_arrays()
    live = citing[src] & in_source[dst]
    # Graph journal code -> matrix row, -1 for a journal the matrix drops.
    # Both ends of a live edge are in the window, where the check above
    # found a venue for every document.
    row = np.where(kept, np.cumsum(kept) - 1, -1)
    i, j = row[journal[src[live]]], row[journal[dst[live]]]
    both = (i >= 0) & (j >= 0)
    n = len(journals)
    counts = np.bincount(
        i[both] * n + j[both], weights=mult[live][both], minlength=n * n
    ).astype(np.int64).reshape(n, n)

    return JournalCitationMatrix(
        journals=journals,
        counts=counts,
        pubs=pubs[kept],
        dropped=dropped,
    )
