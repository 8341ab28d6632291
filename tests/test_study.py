"""Study harness: sampling, buckets, tables, correlations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laureate_fixture as fx
from citenet import (
    AuthorshipClass,
    DataError,
    DocumentRecord,
    RankBucket,
    RankRecord,
    UndefinedMetricError,
    authorship_position,
    authorship_table,
    bucket,
    rank_bucket_table,
    rank_correlation,
    resolve_rank_records,
    stratified_every_kth,
    tc_vs_if_comparison,
)
from citenet.study import _average_ranks, percent
from test_concentration import outcome


def make_docs(n, cites=None):
    return [
        DocumentRecord(f"d{i:03d}", f"V{i:03d}", 2000, authors=("A. Author",),
                       cites=cites[i] if cites else (n - i) * 10)
        for i in range(n)
    ]


class TestStratifiedSampling:
    def test_nine_items_every_third(self):
        docs = make_docs(9)
        sample = stratified_every_kth(docs, 3)
        assert [d.id for d in sample] == ["d000", "d003", "d006"]

    def test_k_one_is_identity(self):
        docs = make_docs(5)
        assert stratified_every_kth(docs, 1) == docs

    def test_sample_size_is_ceiling(self):
        docs = make_docs(97)
        sample = stratified_every_kth(docs, 3)
        assert len(sample) == 33 == math.ceil(97 / 3)
        assert sample[0] is docs[0]

    def test_first_element_is_always_top(self):
        for n in (1, 2, 3, 10, 50):
            docs = make_docs(n)
            for k in (1, 2, 3, 7):
                sample = stratified_every_kth(docs, k)
                assert sample[0] is docs[0]
                assert len(sample) == math.ceil(n / k)

    def test_unsorted_input_rejected(self):
        docs = make_docs(5)[::-1]
        with pytest.raises(DataError, match="not sorted"):
            stratified_every_kth(docs, 3)

    def test_seeded_offset_variant(self):
        docs = make_docs(30)
        sample = stratified_every_kth(docs, 3, seed=7)
        offsets = {docs.index(sample[0])}
        assert offsets <= {0, 1, 2}
        assert stratified_every_kth(docs, 3, seed=7) == sample  # reproducible


class TestBucket:
    def test_boundaries_exact(self):
        assert bucket(500) is RankBucket.TOP_500
        assert bucket(501) is RankBucket.FROM_501_TO_1000
        assert bucket(1000) is RankBucket.FROM_501_TO_1000
        assert bucket(1001) is RankBucket.BELOW_1000

    def test_absent_rank(self):
        assert bucket(None) is RankBucket.NOT_INDEXED

    def test_small_ranks_are_top_500(self):
        for rank in (13, 22, 159):
            assert bucket(rank) is RankBucket.TOP_500

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(DataError, match="rank"):
            bucket(0)
        with pytest.raises(DataError, match="rank"):
            bucket(-3)


def ranks_samples():
    """Sampled (doc, record) pairs per subject from the ranks corpus."""
    docs, records = fx.build_ranks_corpus()
    grouped = fx.docs_by_subject(docs)
    return {
        name: resolve_rank_records(stratified_every_kth(grouped[name], 3), records)
        for name in fx.SUBJECT_NAMES
    }


class TestRankBucketTable:
    def test_single_item_is_fully_in_its_bucket(self):
        doc = DocumentRecord("d", "V", 2000, cites=5)
        record = RankRecord("V", 2000, tc_rank=700)
        table = rank_bucket_table({"solo": [(doc, record)]}, "tc")
        assert table.row_for("solo") == ("solo", 1, 0, 0.0, 1, 100.0, 0, 0.0, 700.0)

    def test_all_top500_row(self):
        samples = ranks_samples()
        table = rank_bucket_table(samples, "tc")
        row = table.row_for("Elena Alvarez")
        assert row == ("Elena Alvarez", 30, 30, 100.0, 0, 0.0, 0, 0.0, 22.5)

    def test_full_tc_table(self):
        table = rank_bucket_table(ranks_samples(), "tc")
        expected = {
            "Elena Alvarez": (30, 30, 100.0, 0, 0.0, 0, 0.0, 22.5),
            "Henrik Borg": (41, 38, 92.7, 0, 0.0, 3, 7.3, 22.0),
            "Sachiko Chiba": (17, 13, 76.5, 2, 11.8, 2, 11.8, 159.0),
            "Adele Danton": (12, 9, 81.8, 2, 18.2, 0, 0.0, 22.0),
            "Ethan Nagai": (16, 16, 100.0, 0, 0.0, 0, 0.0, 13.5),
        }
        for subject, cells in expected.items():
            assert table.row_for(subject)[1:] == cells

    def test_full_if_table(self):
        table = rank_bucket_table(ranks_samples(), "if")
        expected = {
            "Elena Alvarez": (30, 29, 96.7, 1, 3.3, 0, 0.0, 131.5),
            "Henrik Borg": (41, 33, 80.5, 2, 4.9, 6, 14.6, 202.0),
            "Sachiko Chiba": (17, 11, 64.7, 1, 5.9, 5, 29.4, 200.0),
            "Adele Danton": (12, 9, 81.8, 1, 9.1, 1, 9.1, 67.0),
            "Ethan Nagai": (16, 13, 81.3, 3, 18.8, 0, 0.0, 136.0),
        }
        for subject, cells in expected.items():
            assert table.row_for(subject)[1:] == cells

    def test_bucket_percentages_sum_to_100(self):
        for measure in ("tc", "if"):
            table = rank_bucket_table(ranks_samples(), measure)
            for row in table.rows:
                assert abs(row[3] + row[5] + row[7] - 100.0) <= 0.1

    def test_random_fixtures_match_brute_force_tally(self):
        rng = random.Random(31)
        for _ in range(10):
            pairs = []
            for i in range(rng.randrange(3, 25)):
                doc = DocumentRecord(f"d{i:02d}", f"V{i:02d}", 2001, cites=100 - i)
                if rng.random() < 0.15:
                    pairs.append((doc, None))
                else:
                    rank = rng.randrange(1, 2500)
                    pairs.append((doc, RankRecord(f"V{i:02d}", 2001, tc_rank=rank)))
            table = rank_bucket_table({"s": pairs}, "tc")
            ranks = [r.tc_rank for _, r in pairs if r is not None]
            top = sum(1 for r in ranks if r <= 500)
            mid = sum(1 for r in ranks if 501 <= r <= 1000)
            low = sum(1 for r in ranks if r > 1000)
            row = table.row_for("s")
            assert row[1] == len(pairs)
            assert (row[2], row[4], row[6]) == (top, mid, low)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError, match="empty sample"):
            rank_bucket_table({"s": []}, "tc")


class TestTcVsIf:
    def test_definition_and_tie_rule(self):
        docs = make_docs(3)
        pairs = [
            (docs[0], RankRecord("V000", 2000, tc_rank=10, if_rank=40)),   # higher
            (docs[1], RankRecord("V001", 2000, tc_rank=40, if_rank=10)),   # lower
            (docs[2], RankRecord("V002", 2000, tc_rank=25, if_rank=25)),   # tie: not higher
        ]
        table = tc_vs_if_comparison({"s": pairs})
        row = table.row_for("s")
        assert row[5] == 1
        assert row[6] == pytest.approx(33.3)

    def test_full_comparison_table(self):
        table = tc_vs_if_comparison(ranks_samples())
        expected = {
            "Elena Alvarez": (30, 30, 0, 100.0, 28, 93.3),
            "Henrik Borg": (41, 41, 0, 100.0, 34, 82.9),
            "Sachiko Chiba": (17, 17, 0, 100.0, 15, 88.2),
            "Adele Danton": (12, 11, 1, 91.7, 7, 63.6),
            "Ethan Nagai": (16, 16, 0, 100.0, 15, 93.8),
        }
        for subject, cells in expected.items():
            assert table.row_for(subject)[1:] == cells

    def test_higher_plus_lower_plus_ties_partition(self):
        rng = random.Random(17)
        pairs = []
        for i in range(40):
            doc = DocumentRecord(f"d{i:02d}", f"V{i:02d}", 2001, cites=200 - i)
            pairs.append(
                (doc, RankRecord(f"V{i:02d}", 2001,
                                 tc_rank=rng.randrange(1, 50),
                                 if_rank=rng.randrange(1, 50)))
            )
        table = tc_vs_if_comparison({"s": pairs})
        higher = table.row_for("s")[5]
        lower = sum(1 for _, r in pairs if r.if_rank < r.tc_rank)
        ties = sum(1 for _, r in pairs if r.if_rank == r.tc_rank)
        assert higher + lower + ties == len(pairs)


class TestAuthorshipPosition:
    def test_class_boundaries(self):
        doc = DocumentRecord(
            "d", "V", 2000,
            authors=tuple(f"Writer {i}" for i in range(1, 13)),
        )
        assert authorship_position(doc, "Writer 1") == (1, AuthorshipClass.PRIMARY)
        assert authorship_position(doc, "Writer 5") == (5, AuthorshipClass.SECOND_TO_FIFTH)
        assert authorship_position(doc, "Writer 6") == (6, AuthorshipClass.SIXTH_TO_TENTH)
        assert authorship_position(doc, "Writer 11") == (11, AuthorshipClass.ELEVENTH_OR_LOWER)

    def test_name_normalization(self):
        doc = DocumentRecord("d", "V", 2000, authors=("Jane  Q.  Smith",))
        assert authorship_position(doc, "jane q. smith")[0] == 1

    def test_absent_author_rejected(self):
        doc = DocumentRecord("d", "V", 2000, authors=("Somebody Else",))
        with pytest.raises(DataError, match="not in the byline"):
            authorship_position(doc, "Jane Q. Smith")


def author_samples(k=3):
    grouped = fx.docs_by_subject(fx.build_authors_corpus())
    return {
        name: stratified_every_kth(grouped[name], k) for name in fx.SUBJECT_NAMES
    }


class TestAuthorshipTable:
    def test_sampled_works_rows_and_footer(self):
        table = authorship_table(
            author_samples(), {name: name for name in fx.SUBJECT_NAMES}
        )
        expected = {
            "Elena Alvarez": (33, "1 to 8", 2.0, 25, 75.8, 7, 21.2, 1, 3.0, 0, 0.0),
            "Henrik Borg": (41, "1 to 6", 4.0, 2, 4.9, 36, 87.8, 3, 7.3, 0, 0.0),
            "Sachiko Chiba": (17, "1 to 10", 5.0, 7, 41.2, 7, 41.2, 3, 17.6, 0, 0.0),
            "Adele Danton": (12, "1 to 20", 7.0, 4, 33.3, 2, 16.7, 3, 25.0, 3, 25.0),
            "Ethan Nagai": (16, "1 to 7", 2.5, 10, 62.5, 5, 31.3, 1, 6.3, 0, 0.0),
        }
        for subject, cells in expected.items():
            assert table.row_for(subject)[1:] == cells
        assert table.summary == (("Overall % primary author of works", 40.3),)

    def test_review_rows_and_footer(self):
        grouped = fx.docs_by_subject(fx.build_authors_corpus())
        table = authorship_table(
            grouped, {name: name for name in fx.SUBJECT_NAMES}, reviews_only=True
        )
        expected = {
            "Elena Alvarez": (1, 25.0, 1.0, 1, 100.0, 0, 0.0, 0, 0.0, 0, 0.0),
            "Henrik Borg": (5, 28.0, 3.0, 1, 20.0, 4, 80.0, 0, 0.0, 0, 0.0),
            "Sachiko Chiba": (1, 29.0, 1.0, 1, 100.0, 0, 0.0, 0, 0.0, 0, 0.0),
            "Adele Danton": (3, 27.0, 1.0, 2, 66.7, 1, 33.3, 0, 0.0, 0, 0.0),
            "Ethan Nagai": (6, 7.0, 2.0, 6, 100.0, 0, 0.0, 0, 0.0, 0, 0.0),
        }
        for subject, cells in expected.items():
            assert table.row_for(subject)[1:] == cells
        assert table.summary == (
            ("Overall % primary author of review articles", 68.8),
        )

    def test_single_author_corpus(self):
        docs = [
            DocumentRecord(f"d{i}", "V", 2000, authors=("Solo Writer",), cites=9 - i)
            for i in range(4)
        ]
        table = authorship_table({"solo": docs}, {"solo": "Solo Writer"})
        row = table.row_for("solo")
        assert row[1] == 4
        assert row[2] == "1 to 1"
        assert row[3] == 1.0
        assert row[4] == 4 and row[5] == 100.0
        assert table.summary[0][1] == 100.0

    def test_class_percentages_sum_to_100(self):
        table = authorship_table(
            author_samples(), {name: name for name in fx.SUBJECT_NAMES}
        )
        for row in table.rows:
            assert abs(row[5] + row[7] + row[9] + row[11] - 100.0) <= 0.1
            assert row[4] + row[6] + row[8] + row[10] == row[1]


_CHECKED_DOC = DocumentRecord("d", "V", 2000, authors=("Ann Author",), cites=5)
_CHECKED_PAIR = (_CHECKED_DOC, RankRecord("V", 2000, tc_rank=3, if_rank=7))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: rank_bucket_table({}, "tc"), "no samples given"),
        (lambda: tc_vs_if_comparison({}), "no samples given"),
        (lambda: tc_vs_if_comparison({"s": []}), "empty sample for subject 's'"),
        (lambda: rank_bucket_table({"s": [_CHECKED_PAIR]}, "xx"), "unknown measure 'xx'"),
        (lambda: rank_bucket_table({}, "xx"), "unknown measure 'xx'"),
        (lambda: _CHECKED_PAIR[1].rank_for("xx"), "unknown measure 'xx'"),
        (lambda: authorship_table({}, {}), "no documents given"),
        (
            lambda: authorship_table({"s": [_CHECKED_DOC]}, {"t": "Ann Author"}),
            "no author name configured for subject 's'",
        ),
        (
            lambda: authorship_table({"s": [_CHECKED_DOC]}, {"s": "Ann Author"}, reviews_only=True),
            "no documents to classify for subject 's'",
        ),
        (
            lambda: authorship_table({"s": []}, {"s": "Ann Author"}),
            "no documents to classify for subject 's'",
        ),
    ],
)
def test_study_table_input_checks(build, message):
    with pytest.raises(DataError, match=message):
        build()


def pearson_textbook(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den


def ranks_with_ties(values):
    ranks = [0.0] * len(values)
    ordered = sorted(range(len(values)), key=lambda i: values[i])
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[ordered[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def while_loop_average_ranks(values):
    """The tie-averaging while loop over a numpy sort, kept as the
    reference for ``study._average_ranks``."""
    order = np.lexsort((values,))
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
        -1e6, 1e6, allow_nan=False), max_size=40))
    @example([0.0, -0.0, 0.0, -0.0, 1.0])
    @example([])
    def test_matches_the_while_loop_bit_for_bit(self, values):
        got = _average_ranks(values)
        want = while_loop_average_ranks(np.array(values, dtype=np.float64))
        assert type(got) is list and all(type(rank) is float for rank in got)
        assert np.array(got, dtype=np.float64).tobytes() == want.tobytes()


class TestPercent:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @example(15, 16)  # 93.75 -> 93.8
    @example(5, 16)  # 31.25 -> 31.3
    @example(1, 0)
    def test_rounds_half_up_to_one_decimal(self, count, denominator):
        if denominator == 0:
            assert percent(count, denominator) is None
            return
        tenths = Fraction(1000 * count, denominator)
        assert percent(count, denominator) == math.floor(tenths + Fraction(1, 2)) / 10


def exact_pearson(xs, ys):
    """Pearson's coefficient of the floats ``xs``, ``ys`` in exact
    arithmetic, rounded once to the nearest float."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx, syy = sum((x - mx) ** 2 for x in xs), sum((y - my) ** 2 for y in ys)
    # r = sxy / sqrt(sxx * syy): an integer square root of r^2 scaled by 4^k.
    k = 120
    squared = sxy * sxy / (sxx * syy)
    root = math.isqrt(squared.numerator * 4**k // squared.denominator)
    return math.copysign(float(Fraction(root, 2**k)), sxy)


class TestRankCorrelation:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(*[st.integers(-10**6, 10**6).map(lambda k: k / 1000)] * 2),
                    min_size=3, max_size=60))
    @example([(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)])
    @example([(0.1, 0.3), (0.2, -0.1), (0.3, 0.2), (0.4, 0.1)])
    @example([(0.0, 0.003), (0.0, 0.003), (0.001, 0.003)])  # the mean of y is not 0.003
    def test_pearson_within_4_ulps_of_the_exact_coefficient(self, pairs):
        # Each sum is an fsum, so the error comes from rounding the
        # deviations from the mean and their products: by Cauchy-Schwarz
        # a few ulps of 1, whatever r is. Ulps are counted at |r|, but no
        # finer than at 0.5.
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            with pytest.raises(UndefinedMetricError):
                rank_correlation(xs, ys, "pearson")
            return
        want = exact_pearson(xs, ys)
        got = rank_correlation(xs, ys, "pearson")
        assert abs(got - want) <= 4 * math.ulp(max(abs(want), 0.5))

    def test_identical_lists(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0]
        assert rank_correlation(xs, xs, "pearson") == pytest.approx(1.0)
        assert rank_correlation(xs, xs, "spearman") == pytest.approx(1.0)

    def test_reversed_lists(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert rank_correlation(xs, xs[::-1], "spearman") == pytest.approx(-1.0)

    def test_matches_textbook_formula(self):
        rng = random.Random(101)
        for _ in range(20):
            xs = [rng.uniform(-10, 10) for _ in range(20)]
            ys = [rng.uniform(-10, 10) for _ in range(20)]
            assert rank_correlation(xs, ys, "pearson") == pytest.approx(
                pearson_textbook(xs, ys), abs=1e-12
            )
            assert rank_correlation(xs, ys, "spearman") == pytest.approx(
                pearson_textbook(ranks_with_ties(xs), ranks_with_ties(ys)), abs=1e-12
            )

    def test_spearman_averages_tied_ranks(self):
        xs = [1.0, 2.0, 2.0, 3.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        expected = pearson_textbook(ranks_with_ties(xs), ranks_with_ties(ys))
        assert rank_correlation(xs, ys, "spearman") == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_when_available(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(77)
        xs = [rng.uniform(-5, 5) for _ in range(30)]
        ys = [round(rng.uniform(-5, 5)) for _ in range(30)]
        assert rank_correlation(xs, ys, "pearson") == pytest.approx(
            stats.pearsonr(xs, ys).statistic, abs=1e-12
        )
        assert rank_correlation(xs, ys, "spearman") == pytest.approx(
            stats.spearmanr(xs, ys).statistic, abs=1e-12
        )

    def test_pearson_affine_invariance(self):
        rng = random.Random(5)
        xs = [rng.uniform(0, 1) for _ in range(15)]
        ys = [rng.uniform(0, 1) for _ in range(15)]
        base = rank_correlation(xs, ys, "pearson")
        scaled = rank_correlation([3 * x + 7 for x in xs], ys, "pearson")
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = random.Random(6)
        xs = [rng.uniform(0, 5) for _ in range(15)]
        ys = [rng.uniform(0, 5) for _ in range(15)]
        base = rank_correlation(xs, ys, "spearman")
        transformed = rank_correlation([math.exp(x) for x in xs], ys, "spearman")
        assert transformed == pytest.approx(base, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 2), min_size=3, max_size=30),
           st.integers(-1000, 1000), st.sampled_from(["pearson", "spearman"]))
    def test_scaling_one_side_by_a_power_of_two_keeps_the_coefficient(self, pairs, k, method):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        scaled = [math.ldexp(x, k) for x in xs]
        assert outcome(rank_correlation, scaled, ys, method) == outcome(
            rank_correlation, xs, ys, method
        )

    def test_huge_and_tiny_finite_inputs(self):
        # Squared deviations of these overflow or underflow unless scaled.
        want = rank_correlation([1, 2, 4], [1, 2, 3])
        assert want == pytest.approx(0.98198050606)
        assert rank_correlation([1e200, 2e200, 4e200], [1, 2, 3]) == want
        assert rank_correlation([2.0**-700, 2.0**-699, 2.0**-698], [1, 2, 3]) == want
        # 1e-200 is no power-of-two multiple of 1, so only nearly the same.
        assert rank_correlation([1e-200, 2e-200, 4e-200], [1, 2, 3]) == pytest.approx(want)
        assert rank_correlation([1e-200, 2e-200, 3e-200], [1, 2, 3]) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(DataError, match="length mismatch"):
            rank_correlation([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(DataError, match="at least 3"):
            rank_correlation([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(UndefinedMetricError, match="zero variance"):
            rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="method"):
            rank_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "kendall")
