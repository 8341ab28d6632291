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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DataError


class DocType(Enum):
    """Bibliographic type of a document."""

    ARTICLE = "article"
    REVIEW = "review"
    BOOK = "book"
    PROCEEDINGS = "proceedings"
    OTHER = "other"


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
        if not self.id:
            raise DataError("document id must be nonempty")
        object.__setattr__(self, "authors", tuple(self.authors))
        if not isinstance(self.year, int) or self.year <= 0:
            raise DataError(f"document {self.id!r}: year must be a positive integer")
        if any(not a.strip() for a in self.authors):
            raise DataError(f"document {self.id!r}: author names must be nonempty")
        if self.cites < 0:
            raise DataError(f"document {self.id!r}: cites must be >= 0")


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

    def covers_source(self, year: int) -> bool:
        return self.source_years[0] <= year <= self.source_years[1]


@dataclass(frozen=True)
class CitationGraph:
    """Directed document-level citation graph.

    ``edges`` stores one entry per distinct (citing, cited) pair with its
    multiplicity; parallel citations are kept as multiplicity rather than
    deduplicated. Node and edge orderings are sorted, so two graphs built
    from permutations of the same input compare equal.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    metadata: Mapping[str, DocumentRecord] = field(default_factory=dict)

    @cached_property
    def _node_index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def _in_degree(self) -> dict[str, int]:
        deg = dict.fromkeys(self.nodes, 0)
        for _, cited, mult in self.edges:
            deg[cited] += mult
        return deg

    @cached_property
    def _out_degree(self) -> dict[str, int]:
        deg = dict.fromkeys(self.nodes, 0)
        for citing, _, mult in self.edges:
            deg[citing] += mult
        return deg

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Total edge multiplicity (number of citation instances)."""
        return sum(mult for _, _, mult in self.edges)

    def __contains__(self, node: str) -> bool:
        return node in self._node_index

    def in_degree(self, node: str) -> int:
        """Number of citations received by ``node`` (inlinks, with multiplicity)."""
        try:
            return self._in_degree[node]
        except KeyError:
            raise DataError(f"unknown node {node!r}") from None

    def out_degree(self, node: str) -> int:
        """Number of references given by ``node`` (outlinks, with multiplicity)."""
        try:
            return self._out_degree[node]
        except KeyError:
            raise DataError(f"unknown node {node!r}") from None

    def edge_multiplicity(self, citing: str, cited: str) -> int:
        return self._edge_lookup.get((citing, cited), 0)

    @cached_property
    def _edge_lookup(self) -> dict[tuple[str, str], int]:
        return {(u, v): m for u, v, m in self.edges}

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as (source index, target index, multiplicity) arrays.

        Index order follows ``nodes``; array order follows the sorted
        ``edges`` tuple, so downstream accumulations have a fixed
        reduction order.
        """
        return self._edge_arrays

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = self._node_index
        src = np.fromiter((idx[u] for u, _, _ in self.edges), dtype=np.int64, count=len(self.edges))
        dst = np.fromiter((idx[v] for _, v, _ in self.edges), dtype=np.int64, count=len(self.edges))
        mult = np.fromiter((m for _, _, m in self.edges), dtype=np.int64, count=len(self.edges))
        return src, dst, mult

    def journals(self) -> tuple[str, ...]:
        """Distinct venues appearing in document metadata, sorted."""
        return tuple(sorted({d.venue for d in self.metadata.values() if d.venue}))


def build_graph(
    edge_list: Iterable[tuple[str, str]],
    docs: Sequence[DocumentRecord] | None = None,
    allow_self_loops: bool = False,
) -> CitationGraph:
    """Build a :class:`CitationGraph` from (citing, cited) pairs.

    Duplicate pairs accumulate multiplicity. Self-loops are rejected
    unless ``allow_self_loops`` is set. Nodes are the union of edge
    endpoints and document ids; an empty edge list is accepted.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for citing, cited in edge_list:
        if not citing or not cited:
            raise DataError(f"edge ({citing!r}, {cited!r}) has an empty endpoint")
        if citing == cited and not allow_self_loops:
            raise DataError(f"self-loop on {citing!r} (pass allow_self_loops=True to keep)")
        counts[(citing, cited)] += 1

    metadata: dict[str, DocumentRecord] = {}
    for doc in docs or ():
        if doc.id in metadata:
            raise DataError(f"duplicate document id {doc.id!r}")
        metadata[doc.id] = doc

    nodes: set[str] = set(metadata)
    for citing, cited in counts:
        nodes.add(citing)
        nodes.add(cited)

    edges = tuple((u, v, counts[(u, v)]) for u, v in sorted(counts))
    return CitationGraph(nodes=tuple(sorted(nodes)), edges=edges, metadata=metadata)


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
    window: TimeWindow | None = None
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
            and self.window == other.window
            and self.dropped == other.dropped
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.pubs, other.pubs)
        )

    @property
    def n_journals(self) -> int:
        return len(self.journals)

    def index(self, journal: str) -> int:
        try:
            return self.journals.index(journal)
        except ValueError:
            raise DataError(f"unknown journal {journal!r}") from None

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
        return JournalCitationMatrix(self.journals, counts, self.pubs, self.window, self.dropped)

    def restrict_to(self, journals: Sequence[str]) -> "JournalCitationMatrix":
        """Square submatrix over ``journals`` (kept in matrix order)."""
        unknown = sorted(set(journals) - set(self.journals))
        if unknown:
            raise DataError(f"unknown journals: {', '.join(unknown)}")
        keep = [j for j in self.journals if j in set(journals)]
        idx = [self.index(j) for j in keep]
        return JournalCitationMatrix(
            tuple(keep),
            self.counts[np.ix_(idx, idx)],
            self.pubs[idx],
            self.window,
            self.dropped,
        )


def aggregate_to_journal_matrix(
    graph: CitationGraph,
    window: TimeWindow,
    zero_diagonal: bool = False,
) -> JournalCitationMatrix:
    """Aggregate document edges to a journal matrix for ``window``.

    counts[i][j] counts references from journal-i documents published in
    the cite year to journal-j documents published in the source years;
    pubs[j] counts journal-j documents in the source years. Journals with
    zero source-year publications are dropped (reported in ``dropped``),
    and references touching a dropped journal are excluded with them.

    Raises :class:`DataError` when an in-window reference points at a
    document without usable metadata (no record, or no venue).
    """
    meta = graph.metadata

    pubs: Counter[str] = Counter()
    universe: set[str] = set()
    for doc in meta.values():
        in_source = window.covers_source(doc.year)
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
            continue  # undated or out-of-window citing side
        cited_doc = meta.get(cited)
        if cited_doc is None:
            raise DataError(
                f"document {cited!r} is cited from inside the window but has no metadata"
            )
        if not window.covers_source(cited_doc.year):
            continue
        i = index.get(citing_doc.venue)
        j = index.get(cited_doc.venue)
        if i is not None and j is not None:
            counts[i, j] += mult

    if zero_diagonal:
        np.fill_diagonal(counts, 0)

    return JournalCitationMatrix(
        journals=journals,
        counts=counts,
        pubs=np.array([pubs[j] for j in journals], dtype=np.int64),
        window=window,
        dropped=dropped,
    )
