"""Bradford partitioning and concentration statistics."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citenet import (
    BradfordPartition,
    BradfordZone,
    DataError,
    RankedCounts,
    bradford_partition,
    count_above_threshold,
    journals_for_share,
    share_curve,
    stability_overlap,
)


def geophysics_style_counts():
    """326 journals whose cumulative yields hit exactly 249 after 9
    journals and 748 after 68, as in the classic applied-geophysics
    distribution (zone totals 249/499/404)."""
    zone1 = [50, 40, 35, 30, 25, 22, 18, 16, 13]
    zone2 = [12] * 20 + [9] + [8] * 18 + [6] * 6 + [5] * 14
    zone3 = [2] * 146 + [1] * 112
    counts = zone1 + zone2 + zone3
    assert sum(zone1) == 249 and sum(zone2) == 499 and sum(zone3) == 404
    return RankedCounts.from_counts(
        {f"j{i:03d}": c for i, c in enumerate(counts)}
    )


def bradford_form_counts(z, n, per_zone_total):
    """Exact 1:n:n^2 zone sizes (z, z*n, z*n^2) with equal item yield.

    Zone sizes grow while per-journal yields shrink, so the flattened
    list is already in rank order.
    """
    counts = []
    for size in (z, z * n, z * n * n):
        base, extra = divmod(per_zone_total, size)
        counts.extend([base + 1] * extra + [base] * (size - extra))
    assert counts == sorted(counts, reverse=True)
    return RankedCounts.from_counts({f"j{i:03d}": c for i, c in enumerate(counts)})


class TestRankedCounts:
    def test_from_counts_sorts_and_breaks_ties_by_id(self):
        ranked = RankedCounts.from_counts({"b": 5, "a": 5, "c": 9})
        assert [name for name, _ in ranked.items] == ["c", "a", "b"]
        assert ranked.total == 19

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(DataError, match="ranked order"):
            RankedCounts((("a", 1), ("b", 5)))


class TestBradfordPartition:
    def test_geophysics_fixture_with_published_splits(self):
        ranked = geophysics_style_counts()
        partition = bradford_partition(ranked, k=3, targets=[249, 748])
        assert partition.journal_counts() == (9, 59, 258)
        assert tuple(z.item_count for z in partition.zones) == (249, 499, 404)
        ratios = (59 / 9, 258 / 59)
        assert ratios[0] == pytest.approx(6.6, abs=0.1)
        assert ratios[1] == pytest.approx(4.4, abs=0.1)
        expected_multiplier = (ratios[0] * ratios[1]) ** 0.5
        assert partition.multiplier == pytest.approx(expected_multiplier, rel=1e-12)

    def test_uniform_counts_split_evenly(self):
        ranked = RankedCounts.from_counts({f"j{i}": 4 for i in range(10)})
        partition = bradford_partition(ranked, k=2)
        assert partition.journal_counts() == (5, 5)
        assert partition.multiplier == pytest.approx(1.0)

    def test_exact_bradford_form_recovers_multiplier(self):
        for n in (2, 3, 4):
            ranked = bradford_form_counts(5, n, per_zone_total=600)
            partition = bradford_partition(ranked, k=3)
            assert abs(partition.multiplier - n) / n < 0.01

    def test_zones_concatenate_to_ranked_order_and_totals(self):
        counts = {f"j{i:03d}": max(1, int(200 / (i + 1))) for i in range(80)}
        ranked = RankedCounts.from_counts(counts)
        for k in (2, 3, 4, 5):
            partition = bradford_partition(ranked, k=k)
            flattened = [j for zone in partition.zones for j in zone.journals]
            assert flattened == [name for name, _ in ranked.items]
            assert sum(z.item_count for z in partition.zones) == ranked.total
            assert all(z.journal_count >= 1 for z in partition.zones)

    def test_zipf_samples_stay_within_one_journal_of_target(self):
        # Exhaustive boundary check: each non-final zone's cumulative
        # total lands within the boundary journal's count of the target.
        rng = random.Random(99)
        for trial in range(10):
            counts = {
                f"j{i:03d}": max(1, int(1000 / (i + 1) ** 1.1) + rng.randrange(3))
                for i in range(60)
            }
            ranked = RankedCounts.from_counts(counts)
            k = 3
            partition = bradford_partition(ranked, k=k)
            target = ranked.total / k
            cumulative = 0
            by_id = dict(ranked.items)
            for zone in partition.zones[:-1]:
                cumulative += zone.item_count
                slack = max(by_id[zone.journals[-1]], 1)
                assert abs(cumulative - target) <= slack
                target += ranked.total / k

    def test_zone_count_equal_to_journal_count(self):
        # Degenerate but legal: one journal per zone, whatever the counts.
        ranked = RankedCounts.from_counts({"a": 90, "b": 5, "c": 3, "d": 2})
        partition = bradford_partition(ranked, k=4)
        assert partition.journal_counts() == (1, 1, 1, 1)
        assert tuple(z.item_count for z in partition.zones) == (90, 5, 3, 2)
        assert partition.multiplier == pytest.approx(1.0)

    def test_explicit_targets_validation(self):
        ranked = RankedCounts.from_counts({"a": 5, "b": 3, "c": 2})
        with pytest.raises(DataError, match="2 cumulative targets"):
            bradford_partition(ranked, k=3, targets=[4])
        with pytest.raises(DataError, match="increasing"):
            bradford_partition(ranked, k=3, targets=[8, 4])
        # NaN compares false with everything, so no order check can catch it.
        for k, targets in ((2, [math.nan]), (3, [5, math.nan]), (3, [-math.inf, 5])):
            with pytest.raises(DataError, match="targets must be finite"):
                bradford_partition(ranked, k=k, targets=targets)
        # A target at or below zero closes no zone where it says.
        for k, targets in ((2, [0]), (2, [-5]), (3, [-1, 5]), (3, [0, 5])):
            with pytest.raises(DataError, match="targets must be positive"):
                bradford_partition(ranked, k=k, targets=targets)

    def test_errors(self):
        ranked = RankedCounts.from_counts({"a": 0, "b": 0})
        with pytest.raises(DataError, match="zero total"):
            bradford_partition(ranked, k=2)
        ranked = RankedCounts.from_counts({"a": 5, "b": 3})
        with pytest.raises(DataError, match="exceeds journal count"):
            bradford_partition(ranked, k=3)


def three_close_bradford_partition(ranked, k=3, targets=None):
    """``bradford_partition`` as it was written before its zone-closing
    step was folded into one list of cut positions; kept as the
    reference."""
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
        if min(cut_targets) <= 0:
            raise DataError("targets must be positive")
        if cut_targets != sorted(cut_targets) or cut_targets[-1] > total:
            raise DataError("targets must be increasing and at most the total")

    zones = []
    zone_members = []
    zone_items = 0
    cum = 0
    pos = 0
    for name, count in ranked.items:
        remaining_zones = k - len(zones)
        remaining_journals = n - pos
        if remaining_zones > 1 and zone_members and remaining_journals == remaining_zones - 1:
            zones.append(BradfordZone(tuple(zone_members), zone_items))
            zone_members, zone_items = [], 0
        target = cut_targets[len(zones)] if len(zones) < k - 1 else None
        if target is not None and zone_members and cum + count >= target:
            include = (cum + count) - target <= target - cum
            if include:
                zone_members.append(name)
                zone_items += count
                cum += count
                pos += 1
                zones.append(BradfordZone(tuple(zone_members), zone_items))
                zone_members, zone_items = [], 0
                continue
            zones.append(BradfordZone(tuple(zone_members), zone_items))
            zone_members, zone_items = [], 0
        zone_members.append(name)
        zone_items += count
        cum += count
        pos += 1
    zones.append(BradfordZone(tuple(zone_members), zone_items))

    sizes = [z.journal_count for z in zones]
    ratios = [sizes[i + 1] / sizes[i] for i in range(len(sizes) - 1)]
    multiplier = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return BradfordPartition(tuple(zones), multiplier)


def outcome(partition, *args, **kwargs):
    """The partition, or the type and message of the error it raised."""
    try:
        return partition(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@st.composite
def bradford_inputs(draw):
    """Ranked counts with many ties and zeros, a zone count from 2 to one
    past the journal count, and no targets, sorted targets of the right
    length, or targets of any order and a length off by up to one."""
    counts = draw(st.lists(st.integers(0, 12) | st.sampled_from([0, 1, 50]), min_size=2,
                           max_size=30))
    ranked = RankedCounts.from_counts({f"j{i:02d}": c for i, c in enumerate(counts)})
    k = draw(st.integers(2, len(counts) + 1))
    target = st.integers(0, ranked.total + 1) | st.floats(0, ranked.total + 1)
    targets = draw(
        st.none()
        | st.lists(target, min_size=k - 1, max_size=k - 1).map(sorted)
        | st.lists(target, min_size=k - 2, max_size=k)
    )
    return ranked, k, targets


class TestBradfordOracle:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(bradford_inputs())
    @example((RankedCounts.from_counts({"a": 4, "b": 0, "c": 0, "d": 0}), 3, [4, 4]))
    @example((RankedCounts.from_counts({"a": 3, "b": 2, "c": 1}), 3, [6, 6]))
    def test_matches_the_three_close_loop(self, case):
        ranked, k, targets = case
        got = outcome(bradford_partition, ranked, k=k, targets=targets)
        want = outcome(three_close_bradford_partition, ranked, k=k, targets=targets)
        assert got == want


class TestShareCurve:
    def test_hand_arithmetic(self):
        ranked = RankedCounts.from_counts({"a": 50, "b": 30, "c": 20})
        curve = share_curve(ranked)
        assert curve.points == ((1, 0.5), (2, 0.8), (3, 1.0))

    def test_equal_counts_are_linear(self):
        ranked = RankedCounts.from_counts({f"j{i}": 10 for i in range(5)})
        curve = share_curve(ranked)
        for m, share in curve.points:
            assert share == pytest.approx(m / 5)

    def test_matches_prefix_sum_oracle(self):
        rng = random.Random(4)
        for _ in range(10):
            counts = {f"j{i:03d}": rng.randrange(0, 500) for i in range(50)}
            if sum(counts.values()) == 0:
                continue
            ranked = RankedCounts.from_counts(counts)
            curve = share_curve(ranked)
            ordered = [c for _, c in ranked.items]
            total = sum(ordered)
            prefix = 0
            for (m, share), count in zip(curve.points, ordered):
                prefix += count
                assert share == pytest.approx(prefix / total, abs=1e-12)
            assert curve.points[-1][1] == pytest.approx(1.0)

    def test_zero_total_rejected(self):
        with pytest.raises(DataError, match="zero total"):
            share_curve(RankedCounts.from_counts({"a": 0}))


class TestJournalsForShare:
    def test_worked_example(self):
        curve = share_curve(RankedCounts.from_counts({"a": 50, "b": 30, "c": 20}))
        assert journals_for_share(curve, 0.75) == 2
        assert journals_for_share(curve, 1.0) == 3

    def test_monotone_in_share(self):
        rng = random.Random(8)
        counts = {f"j{i:02d}": rng.randrange(1, 100) for i in range(30)}
        curve = share_curve(RankedCounts.from_counts(counts))
        previous = 0
        for p in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            m = journals_for_share(curve, p)
            oracle = next(mm for mm, share in curve.points if share >= p)
            assert m == oracle
            assert m >= previous
            previous = m

    def test_share_out_of_range(self):
        curve = share_curve(RankedCounts.from_counts({"a": 1}))
        with pytest.raises(DataError, match="share"):
            journals_for_share(curve, 0.0)
        with pytest.raises(DataError, match="share"):
            journals_for_share(curve, 1.5)


class TestCountAboveThreshold:
    def test_worked_example(self):
        ranked = RankedCounts.from_counts(
            {"a": 1200, "b": 900, "c": 400, "d": 10}
        )
        assert count_above_threshold(ranked, 1000) == 1
        assert count_above_threshold(ranked, 0) == 4

    def test_negative_threshold_is_rejected(self):
        ranked = RankedCounts.from_counts({"a": 3, "b": 1})
        with pytest.raises(DataError, match=r"^threshold must be >= 0, got -1$"):
            count_above_threshold(ranked, -1)

    def test_matches_filter_oracle(self):
        rng = random.Random(13)
        counts = {f"j{i:02d}": rng.randrange(0, 2000) for i in range(40)}
        ranked = RankedCounts.from_counts(counts)
        for t in (0, 100, 400, 1000, 5000):
            assert count_above_threshold(ranked, t) == sum(
                1 for c in counts.values() if c >= t
            )


class TestStabilityOverlap:
    def test_identical_lists(self):
        ranked = RankedCounts.from_counts({f"j{i:02d}": 100 - i for i in range(60)})
        assert stability_overlap(ranked, ranked, 50) == 50

    def test_disjoint_lists(self):
        a = RankedCounts.from_counts({f"a{i}": 10 - i for i in range(5)})
        b = RankedCounts.from_counts({f"b{i}": 10 - i for i in range(5)})
        assert stability_overlap(a, b, 5) == 0

    def test_matches_set_intersection_oracle_and_symmetry(self):
        rng = random.Random(55)
        pool = [f"j{i:03d}" for i in range(80)]
        a = RankedCounts.from_counts({j: rng.randrange(1, 500) for j in rng.sample(pool, 60)})
        b = RankedCounts.from_counts({j: rng.randrange(1, 500) for j in rng.sample(pool, 60)})
        for top in (1, 10, 25, 50):
            expected = len(a.top_ids(top) & b.top_ids(top))
            assert stability_overlap(a, b, top) == expected
            assert stability_overlap(b, a, top) == expected

    def test_top_out_of_range(self):
        a = RankedCounts.from_counts({"x": 1})
        with pytest.raises(DataError, match="out of range"):
            stability_overlap(a, a, 2)
