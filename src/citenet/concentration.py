"""Bradford-zone partitioning and concentration statistics over ranked
count distributions.

Works on any ranked (id, count) distribution: journals by citations
received, by articles published, or by references given. A small head
of the ranking carries most of the yield; these helpers quantify how
small.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError


@dataclass(frozen=True)
class RankedCounts:
    """(id, count) pairs sorted by count descending, ties by id ascending."""

    items: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        keys = [(-count, name) for name, count in self.items]
        if keys != sorted(keys):
            raise DataError("items are not in ranked order (count desc, id asc)")
        if self.items and self.items[-1][1] < 0:
            raise DataError("counts must be nonnegative")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "RankedCounts":
        return cls(tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))))

    @property
    def total(self) -> int:
        return sum(count for _, count in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def top_ids(self, n: int) -> set[str]:
        return {name for name, _ in self.items[:n]}


class BradfordZone(NamedTuple):
    journals: tuple[str, ...]
    item_count: int

    @property
    def journal_count(self) -> int:
        return len(self.journals)


class BradfordPartition(NamedTuple):
    """Rank-ordered zones of roughly equal yield, plus the estimated
    zone-size multiplier (zone sizes ideally grow as 1 : n : n^2)."""

    zones: tuple[BradfordZone, ...]
    multiplier: float

    def journal_counts(self) -> tuple[int, ...]:
        return tuple(z.journal_count for z in self.zones)


@dataclass(frozen=True)
class ShareCurve:
    """Cumulative share of all counts held by the top m ids, m = 1..N."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        shares = [p for _, p in self.points]
        if any(not 0.0 <= p <= 1.0 for p in shares):
            raise DataError("shares must lie in [0, 1]")
        if shares != sorted(shares):
            raise DataError("share curve must be nondecreasing")


def bradford_partition(
    ranked: RankedCounts,
    k: int = 3,
    targets: Sequence[float] | None = None,
) -> BradfordPartition:
    """Partition a ranked distribution into k zones of equal yield.

    Journals are assigned to zones in rank order; a zone closes when the
    running item total first reaches the zone's cumulative target, with
    the boundary journal going to whichever side leaves the total nearer
    the target (counts are discrete, equal yield is not exactly
    attainable). Targets default to i * total / k; pass explicit
    cumulative ``targets`` (k-1 increasing positive values) to reproduce
    partitions with known uneven splits. Every zone gets at least one
    journal.

    The multiplier is the geometric mean of successive zone-size ratios.
    """
    n = len(ranked)
    total = ranked.total
    if total <= 0:
        raise DataError("cannot partition a distribution with zero total")
    if k < 2:
        raise DataError("need at least 2 zones")
    if k > n:
        raise DataError(f"zone count {k} exceeds journal count {n}")
    if targets is None:
        cut_targets = [i * total / k for i in range(1, k)]
    else:
        cut_targets = [float(t) for t in targets]
        if len(cut_targets) != k - 1:
            raise DataError(f"expected {k - 1} cumulative targets, got {len(cut_targets)}")
        if not all(map(math.isfinite, cut_targets)):
            raise DataError("targets must be finite")
        if min(cut_targets) <= 0:
            raise DataError("targets must be positive")
        if cut_targets != sorted(cut_targets) or cut_targets[-1] > total:
            raise DataError("targets must be increasing and at most the total")

    # cuts[i] is the rank position where zone i starts. A zone closes before
    # the journal that must open the next one (one journal is left for each
    # zone still to open), or once its cumulative target is reached, after
    # or before the boundary journal, whichever lands nearer the target.
    cuts = [0]
    cum = 0
    for pos, (_, count) in enumerate(ranked.items):
        if cuts[-1] < pos and len(cuts) < k:
            target = cut_targets[len(cuts) - 1]
            if n - pos == k - len(cuts):
                cuts.append(pos)
            elif cum + count >= target:
                cuts.append(pos + 1 if (cum + count) - target <= target - cum else pos)
        cum += count
    cuts.append(n)
    zones = [
        BradfordZone(tuple(name for name, _ in zone), sum(count for _, count in zone))
        for zone in (ranked.items[a:b] for a, b in zip(cuts, cuts[1:]))
    ]

    sizes = [z.journal_count for z in zones]
    ratios = [sizes[i + 1] / sizes[i] for i in range(len(sizes) - 1)]
    multiplier = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return BradfordPartition(tuple(zones), multiplier)


def share_curve(ranked: RankedCounts) -> ShareCurve:
    """Cumulative count share of the top m ids for every m."""
    total = ranked.total
    if total <= 0:
        raise DataError("cannot compute shares with zero total")
    points = []
    cum = 0
    for m, (_, count) in enumerate(ranked.items, 1):
        cum += count
        points.append((m, cum / total))
    return ShareCurve(tuple(points))


def journals_for_share(curve: ShareCurve, p: float) -> int:
    """Smallest m whose cumulative share reaches ``p``."""
    if not 0.0 < p <= 1.0:
        raise DataError(f"share must be in (0, 1], got {p}")
    for m, share in curve.points:
        if share >= p:
            return m
    raise DataError("share curve does not reach the requested share")


def count_above_threshold(ranked: RankedCounts, threshold: int) -> int:
    """How many ids have a count of at least ``threshold``."""
    if threshold < 0:
        raise DataError(f"threshold must be >= 0, got {threshold}")
    return sum(1 for _, count in ranked.items if count >= threshold)


def stability_overlap(ranked_a: RankedCounts, ranked_b: RankedCounts, top: int) -> int:
    """Size of the intersection of the two top-``top`` id sets."""
    if top < 0 or top > len(ranked_a) or top > len(ranked_b):
        raise DataError(f"top={top} out of range for the given rankings")
    return len(ranked_a.top_ids(top) & ranked_b.top_ids(top))
