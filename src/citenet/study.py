"""Validation-study harness: stratified sampling, rank-bucket tables,
total-cites vs impact-factor comparison, authorship-position tables,
and rank correlations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import mul

from .errors import DataError, UndefinedMetricError
from .graph import DocType, DocumentRecord, normalize_author
from .reports import Cell, StudyTable


class RankBucket(Enum):
    """JCR-style rank bands."""

    TOP_500 = "top-500"
    FROM_501_TO_1000 = "501-1000"
    BELOW_1000 = "below-1000"
    NOT_INDEXED = "not-indexed"


class AuthorshipClass(Enum):
    """Byline-position bands."""

    PRIMARY = "primary"
    SECOND_TO_FIFTH = "2nd-5th"
    SIXTH_TO_TENTH = "6th-10th"
    ELEVENTH_OR_LOWER = "11th+"


# Each band's column label and the largest rank or byline position in
# it, in column order.
_RANK_BANDS = {
    RankBucket.TOP_500: ("Top 500", 500),
    RankBucket.FROM_501_TO_1000: ("Ranked 501-1000", 1000),
    RankBucket.BELOW_1000: ("Below 1000", math.inf),
}
_AUTHORSHIP_BANDS = {
    AuthorshipClass.PRIMARY: ("Primary", 1),
    AuthorshipClass.SECOND_TO_FIFTH: ("2nd to 5th", 5),
    AuthorshipClass.SIXTH_TO_TENTH: ("6th to 10th", 10),
    AuthorshipClass.ELEVENTH_OR_LOWER: ("11th and Lower", math.inf),
}


def _band(value: int, bands: Mapping[Enum, tuple[str, float]]) -> Enum:
    """The first of ``bands`` whose largest value is at least ``value``."""
    return next(band for band, (_, largest) in bands.items() if value <= largest)


@dataclass(frozen=True)
class RankRecord:
    """A journal's external ranking for one year, by total cites and by
    impact factor. Absent ranks mean not indexed or unranked that year."""

    journal: str
    year: int
    indexed: bool = True
    tc_rank: int | None = None
    if_rank: int | None = None

    def __post_init__(self) -> None:
        for label, rank in (("tc_rank", self.tc_rank), ("if_rank", self.if_rank)):
            if rank is not None and rank < 1:
                raise DataError(f"{label} must be >= 1 when present, got {rank}")

    def rank_for(self, measure: str) -> int | None:
        _check_measure(measure)
        return self.tc_rank if measure == "tc" else self.if_rank


def _check_measure(measure: str) -> None:
    if measure not in ("tc", "if"):
        raise DataError(f"unknown measure {measure!r}; use 'tc' or 'if'")


def percent(count: int, denominator: int) -> float | None:
    """count/denominator as a percentage, half-up to one decimal.

    Half-up (not banker's) rounding: 93.75 -> 93.8, 31.25 -> 31.3.
    Returns None when the denominator is zero (undefined, rendered
    blank).
    """
    if denominator == 0:
        return None
    # Exact tenths, half-up; int / int is correctly rounded to a float.
    return (2000 * count + denominator) // (2 * denominator) / 10


def midpoint_median(values: Sequence[int | float]) -> float | None:
    """Median with even-sized sets reported as the midpoint (x.5)."""
    from statistics import median

    if not values:
        return None
    return float(median(values))


def stratified_every_kth(
    docs: Sequence[DocumentRecord], k: int, *, seed: int | None = None
) -> list[DocumentRecord]:
    """Every k-th document starting from the most cited.

    ``docs`` must already be sorted by cites descending (ties by id);
    positions 1, 1+k, 1+2k, ... are taken, so the top item always leads
    and the sample has ceil(n/k) items. Pass ``seed`` for the randomized
    variant that draws the starting offset from [0, k).
    """
    if k < 1:
        raise DataError(f"sampling interval must be >= 1, got {k}")
    keys = [(-d.cites, d.id) for d in docs]
    if keys != sorted(keys):
        raise DataError("documents are not sorted by cites descending (ties by id)")
    offset = 0
    if seed is not None:
        import random

        offset = random.Random(seed).randrange(k)
    return list(docs[offset::k])


def bucket(rank: int | None) -> RankBucket:
    """Band a rank: <=500, 501-1000, >1000, or not indexed (absent)."""
    if rank is None:
        return RankBucket.NOT_INDEXED
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    return _band(rank, _RANK_BANDS)


def resolve_rank_records(
    docs: Sequence[DocumentRecord], records: Iterable[RankRecord]
) -> list[tuple[DocumentRecord, RankRecord | None]]:
    """Pair each document with the rank record for (venue, publication
    year), or None when there is no such record (treated as not
    indexed)."""
    by_key = {(r.journal, r.year): r for r in records}
    return [(doc, by_key.get((doc.venue, doc.year))) for doc in docs]


Samples = Mapping[str, Sequence[tuple[DocumentRecord, "RankRecord | None"]]]


def _subjects(by_subject: Mapping[str, Sequence], what: str, empty: str):
    """Yield (subject, items), rejecting an empty mapping or subject."""
    if not by_subject:
        raise DataError(f"no {what} given")
    for subject, items in by_subject.items():
        if not items:
            raise DataError(f"{empty} for subject {subject!r}")
        yield subject, items


def _band_layout(bands: Mapping[Enum, tuple[str, float]]) -> tuple[tuple[str, ...], ...]:
    """Columns and formats of a count and a percentage per band."""
    columns = tuple(column for label, _ in bands.values() for column in (label, f"% {label}"))
    return columns, ("d", "p") * len(bands)


def _band_cells(tallies: Mapping[Enum, int], size: int) -> tuple[Cell, ...]:
    """Each band's count and its percentage of ``size``, in band order."""
    return tuple(cell for count in tallies.values() for cell in (count, percent(count, size)))


def rank_bucket_table(samples_by_subject: Samples, measure: str) -> StudyTable:
    """Per-subject rank-bucket counts/percentages and median rank.

    Percentages are over the items indexed for the measure (rank
    present); unresolved or unranked items count toward the sample size
    only. The median is over the indexed ranks.
    """
    _check_measure(measure)
    rows = []
    for subject, sample in _subjects(samples_by_subject, "samples", "empty sample"):
        ranks = []
        for _, record in sample:
            rank = record.rank_for(measure) if record is not None and record.indexed else None
            if rank is not None:
                ranks.append(rank)
        tallies = dict.fromkeys(_RANK_BANDS, 0)
        for rank in ranks:
            tallies[bucket(rank)] += 1
        rows.append(
            (subject, len(sample), *_band_cells(tallies, len(ranks)), midpoint_median(ranks))
        )
    label = measure.upper()
    band_columns, band_formats = _band_layout(_RANK_BANDS)
    return StudyTable(
        title=f"Journal rank buckets by {label} in year of publication",
        columns=("Subject", "Sample Size", *band_columns, "Median Rank"),
        formats=("s", "d", *band_formats, "m"),
        rows=tuple(rows),
        footnotes=(
            f"Percentages and median are over items with a {label} rank; "
            "items without one count toward the sample size only.",
        ),
    )


def tc_vs_if_comparison(samples_by_subject: Samples) -> StudyTable:
    """Per-subject share of items whose total-cites rank beats their
    impact-factor rank (numerically smaller = higher standing; ties do
    not count as higher). The percentage is over items carrying both
    ranks; items lacking either are excluded from it and reported."""
    rows = []
    for subject, sample in _subjects(samples_by_subject, "samples", "empty sample"):
        indexed = 0
        both = 0
        higher = 0
        for _, record in sample:
            if record is None or not record.indexed:
                continue
            indexed += 1
            if record.tc_rank is None or record.if_rank is None:
                continue
            both += 1
            if record.tc_rank < record.if_rank:
                higher += 1
        rows.append(
            (
                subject,
                len(sample),
                indexed,
                len(sample) - indexed,
                percent(indexed, len(sample)),
                higher,
                percent(higher, both),
            )
        )
    return StudyTable(
        title="Total-cites rank vs impact-factor rank in year of publication",
        columns=(
            "Subject",
            "Sample Size",
            "Indexed",
            "Not Indexed",
            "% Indexed",
            "Higher by TC",
            "% Higher by TC",
        ),
        formats=("s", "d", "d", "d", "p", "d", "p"),
        rows=tuple(rows),
        footnotes=(
            "% Higher by TC is over indexed items carrying both ranks; "
            "not-indexed items are excluded from the percentage.",
        ),
    )


def authorship_position(doc: DocumentRecord, author: str) -> tuple[int, AuthorshipClass]:
    """1-based byline position of ``author`` and its class band.

    Name matching is exact after whitespace/case normalization; no
    fuzzy matching is attempted.
    """
    wanted = normalize_author(author)
    for position, name in enumerate(doc.authors, 1):
        if normalize_author(name) == wanted:
            return position, _band(position, _AUTHORSHIP_BANDS)
    raise DataError(f"author {author!r} not in the byline of document {doc.id!r}")


def authorship_table(
    docs_by_subject: Mapping[str, Sequence[DocumentRecord]],
    authors: Mapping[str, str],
    reviews_only: bool = False,
) -> StudyTable:
    """Per-subject authorship-position pattern.

    Each subject's documents must be sorted by cites descending (their
    1-based positions are the cites ranks). With ``reviews_only`` the
    table covers just review-type documents and adds their rank
    positions; pass the full document list in that case rather than a
    sample. The summary line is the overall share of primary
    authorship.
    """
    considered_by_subject = {
        subject: [
            (position, doc)
            for position, doc in enumerate(docs, 1)
            if not reviews_only or doc.doc_type is DocType.REVIEW
        ]
        for subject, docs in docs_by_subject.items()
    }
    rows = []
    total_works = 0
    total_primary = 0
    for subject, considered in _subjects(
        considered_by_subject, "documents", "no documents to classify"
    ):
        try:
            author = authors[subject]
        except KeyError:
            raise DataError(f"no author name configured for subject {subject!r}") from None
        tallies = dict.fromkeys(_AUTHORSHIP_BANDS, 0)
        author_counts = []
        for _, doc in considered:
            _, klass = authorship_position(doc, author)
            tallies[klass] += 1
            author_counts.append(len(doc.authors))
        size = len(considered)
        total_works += size
        total_primary += tallies[AuthorshipClass.PRIMARY]
        if reviews_only:
            spread: Cell = midpoint_median([rank for rank, _ in considered])
        else:
            spread = f"{min(author_counts)} to {max(author_counts)}"
        rows.append(
            (subject, size, spread, midpoint_median(author_counts), *_band_cells(tallies, size))
        )

    if reviews_only:
        title = "Authorship pattern of review articles"
        lead_columns = ("Reviews", "Cites Rank Median")
        lead_formats = ("d", "m")
        summary_label = "Overall % primary author of review articles"
    else:
        title = "Authorship pattern of sampled works"
        lead_columns = ("Sample Size", "Authors Range")
        lead_formats = ("d", "s")
        summary_label = "Overall % primary author of works"
    band_columns, band_formats = _band_layout(_AUTHORSHIP_BANDS)
    return StudyTable(
        title=title,
        columns=("Subject", *lead_columns, "Authors Median", *band_columns),
        formats=("s", *lead_formats, "m", *band_formats),
        rows=tuple(rows),
        summary=((summary_label, percent(total_primary, total_works)),),
    )


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties given the average of their positions."""
    ranks = [0.0] * len(values)
    done = 0
    by_value = sorted(range(len(values)), key=values.__getitem__)
    for _, tied in groupby(by_value, key=values.__getitem__):
        tied = list(tied)
        for i in tied:
            ranks[i] = done + (len(tied) + 1) / 2
        done += len(tied)
    return ranks


def rank_correlation(
    xs: Sequence[float], ys: Sequence[float], method: str = "pearson"
) -> float:
    """Pearson or Spearman correlation coefficient.

    Spearman converts both lists to average ranks (ties averaged) and
    applies Pearson. Raises :class:`UndefinedMetricError` when either
    side has zero variance.
    """
    if method not in ("pearson", "spearman"):
        raise DataError(f"unknown method {method!r}; use 'pearson' or 'spearman'")
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise DataError(f"need at least 3 pairs, got {len(xs)}")
    x, y = list(map(float, xs)), list(map(float, ys))
    if not all(map(math.isfinite, x + y)):
        raise DataError("inputs must be finite")
    if method == "spearman":
        x, y = _average_ranks(x), _average_ranks(y)
    # Each side is scaled by an exact power of two that brings its largest
    # magnitude into [0.5, 1), so its squared deviations cannot overflow, nor
    # all underflow unless the side is constant; the coefficient is that of
    # the unscaled sides.
    shifts = [-math.frexp(max(map(abs, side)))[1] for side in (x, y)]
    x, y = ([math.ldexp(v, shift) for v in side] for side, shift in zip((x, y), shifts))
    # Every sum is math.fsum's, correctly rounded.
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = [v - mean_x for v in x], [v - mean_y for v in y]
    sx, sy = math.fsum(map(mul, dx, dx)), math.fsum(map(mul, dy, dy))
    # A constant side's mean need not round to its value, so its deviations
    # need not be 0.
    if sx == 0.0 or sy == 0.0 or len(set(x)) == 1 or len(set(y)) == 1:
        raise UndefinedMetricError("correlation undefined: an input has zero variance")
    return math.fsum(map(mul, dx, dy)) / math.sqrt(sx * sy)
