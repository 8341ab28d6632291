"""Classical size-dependent and size-corrected measures: total cites,
two-year impact factor, and the h-index."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .errors import DataError, UndefinedMetricError
from .graph import CitationGraph, DocType, TimeWindow, _window_mask


@dataclass(frozen=True)
class ImpactFactorInput:
    """Numerator and denominator of a two-year impact factor: citations
    received in the cite year to items from the two source years, over
    the number of such items."""

    cites_to_window: int
    items_in_window: int

    def __post_init__(self) -> None:
        if self.cites_to_window < 0:
            raise DataError("cites_to_window must be >= 0")
        if self.items_in_window < 1:
            raise DataError("items_in_window must be >= 1 (zero-item journals are excluded)")


@dataclass(frozen=True)
class CitationProfile:
    """Citation counts of one author's publications, in any order."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(c < 0 for c in self.counts):
            raise DataError("citation counts must be nonnegative")

    def __len__(self) -> int:
        return len(self.counts)


class ProfileSummary(NamedTuple):
    """Summary of an author's h-core (the h most-cited publications)."""

    h_index: int
    max_cites: int
    cites_range: int
    total_cites: int


def total_cites(graph: CitationGraph, journal: str, window: TimeWindow) -> int:
    """Raw citations received by ``journal``: references made in
    ``window.cite_year`` to the journal's documents, with no cap on the
    cited item's age (this is the annual cited count, so old classics
    keep contributing)."""
    code = graph.journal_index(journal)
    return _cite_counts(graph, window.cite_year)[code]


def impact_factor(inp: ImpactFactorInput) -> float:
    """Citations to the two-year window divided by items published in it."""
    return inp.cites_to_window / inp.items_in_window


def impact_factor_from_graph(
    graph: CitationGraph,
    journal: str,
    cite_year: int,
    doc_types: Iterable[DocType] | None = None,
) -> float:
    """Two-year impact factor computed from a document graph.

    Items are the journal's documents from the two preceding years
    (all doc types by default; pass ``doc_types`` to restrict the
    countable set, which filters numerator and denominator alike).
    Citations are references to those items made in ``cite_year``.
    Raises :class:`UndefinedMetricError` when the journal published
    nothing in the window, e.g. a journal whose cited material is all
    old superclassics; callers exclude it rather than report 0.
    """
    code = graph.journal_index(journal)
    cites, items = _impact_counts(graph, cite_year, doc_types)
    if not items[code]:
        first, last = TimeWindow.two_year(cite_year).source_years
        raise UndefinedMetricError(
            f"journal {journal!r} published no countable items in {first}-{last}"
        )
    return impact_factor(ImpactFactorInput(cites[code], items[code]))


def impact_factors(
    graph: CitationGraph,
    cite_year: int,
    doc_types: Iterable[DocType] | None = None,
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Two-year impact factors of every journal, in one pass over the edges.

    Returns ``(values, excluded)``: the impact factor of each journal
    with countable items in the window, in ``graph.journals()`` order,
    and the journals without any, for which it is undefined. Items and
    citations are as in :func:`impact_factor_from_graph`.
    """
    rows = list(zip(graph.journals(), *_impact_counts(graph, cite_year, doc_types)))
    values = {name: impact_factor(ImpactFactorInput(cites, items)) for name, cites, items in rows
              if items}
    return values, tuple(name for name, _, items in rows if not items)


def _impact_counts(
    graph: CitationGraph, cite_year: int, doc_types: Iterable[DocType] | None
) -> tuple[list[int], list[int]]:
    """Per-journal numerator and denominator of the two-year impact factor."""
    allowed = set(DocType if doc_types is None else doc_types)

    def count() -> tuple[list[int], list[int]]:
        journal = graph.node_columns()[0]
        item = _window_mask(graph, *TimeWindow.two_year(cite_year).source_years, allowed)
        citing = _window_mask(graph, cite_year, cite_year)
        cited = (journal[v] for u, v in zip(*graph.edge_rows) if item[v] and citing[u])
        return _per_journal(graph, cited), _per_journal(graph, compress(journal, item))

    return graph._derived(("impact", cite_year, frozenset(allowed)), count)


def h_index(profile: CitationProfile | Sequence[int]) -> int:
    """Largest h such that at least h publications have >= h citations each."""
    counts = profile.counts if isinstance(profile, CitationProfile) else tuple(profile)
    ranked = sorted(counts, reverse=True)
    h = 0
    for i, c in enumerate(ranked, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def profile_summary(profile: CitationProfile | Sequence[int]) -> ProfileSummary:
    """h-index plus max / range / total cites over the h-core.

    The cites range is max minus min over the h most-cited publications
    (the h-core); an empty profile summarizes to all zeros.
    """
    counts = profile.counts if isinstance(profile, CitationProfile) else tuple(profile)
    h = h_index(counts)
    if h == 0:
        return ProfileSummary(0, 0, 0, 0)
    core = sorted(counts, reverse=True)[:h]
    return ProfileSummary(h, core[0], core[0] - core[-1], sum(core))


def _per_journal(graph: CitationGraph, codes: Iterable[int]) -> list[int]:
    """Group-by-journal count: how often each journal code occurs in
    ``codes``, one slot per journal in ``graph.journals()`` order.
    Entries without a journal (code -1) are dropped."""
    counts = [0] * (len(graph.journals()) + 1)  # code -1 lands in the last slot
    for code in codes:
        counts[code] += 1
    return counts[:-1]


def _cite_counts(graph: CitationGraph, cite_year: int) -> list[int]:
    def count() -> list[int]:
        journal = graph.node_columns()[0]
        citing = _window_mask(graph, cite_year, cite_year)
        return _per_journal(graph, (journal[v] for u, v in zip(*graph.edge_rows) if citing[u]))

    return graph._derived(("cites", cite_year), count)


def _as_dict(graph: CitationGraph, counts: list[int]) -> dict[str, int]:
    return dict(zip(graph.journals(), counts))


def journal_cite_counts(graph: CitationGraph, cite_year: int) -> dict[str, int]:
    """Citations received per journal from references made in ``cite_year``
    (no cap on cited-item age). Journals receiving none report 0."""
    return _as_dict(graph, _cite_counts(graph, cite_year))


def journal_article_counts(graph: CitationGraph, year: int) -> dict[str, int]:
    """Documents published per journal in ``year``."""
    journal = graph.node_columns()[0]
    return _as_dict(graph, _per_journal(graph, compress(journal, _window_mask(graph, year, year))))


def journal_reference_counts(graph: CitationGraph, year: int) -> dict[str, int]:
    """References given per journal by documents published in ``year``."""
    journal = graph.node_columns()[0]
    citing = _window_mask(graph, year, year)
    return _as_dict(graph, _per_journal(graph, (journal[u] for u in graph.edge_rows[0]
                                                if citing[u])))
