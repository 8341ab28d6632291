"""Seeded synthetic corpora for the benchmark, plus their ground truth.

Only the standard library and numpy are used. Every corpus is a pure
function of its spec and seed: the same seed writes byte-identical
files. The ground truth (``truth.json``) is computed straight from the
generated arrays, never through citenet, so the output checker compares
citenet against an independent count.

Citation models:

* ``uniform``: each citation goes from a citing document to a
  uniformly drawn earlier one published at most ``RECENT_YEARS`` years
  before it, as most citations go to recent work. Reference lists
  lengthen by ``GROWTH`` a year. No cited document is favoured, so
  citation counts stay light-tailed.
* ``preferential``: Price's cumulative advantage. Documents arrive in
  publication order in chunks; a citation picks, with probability
  ``PA_SHARE``, an earlier citation's target (so in proportion to the
  citations already received) and otherwise a uniform earlier document.
  In-degrees come out heavy-tailed, as real citation counts are.

Fault injection adds malformed edge rows (one field, or an empty
endpoint) and self-loops, ``fault_rate`` times the clean rows, shuffled
among them; citenet skips both in non-strict mode, and the ground truth
counts only the clean rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST_YEAR = 2000
DOC_TYPES = ("article", "review", "proceedings", "book", "other")
DOC_TYPE_SHARES = (0.80, 0.08, 0.06, 0.03, 0.03)
GROWTH = 1.15
PA_SHARE = 0.8
RECENT_YEARS = 3
PA_CHUNK = 1000
STUDY_EVERY = 3


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes and shape of one generated corpus."""

    docs: int
    edges: int  # clean citation rows; 0 writes no edges file
    journals: int
    years: int
    authors: int
    model: str = "uniform"  # or "preferential"
    fault_rate: float = 0.0  # bad rows (malformed or self-loops) per clean edge row
    study_authors: int = 0  # > 0 also writes rank records, a profile and an XY file
    profile_rows: int = 0
    xy_rows: int = 0

    @property
    def cite_year(self) -> int:
        return FIRST_YEAR + self.years - 1


def _doc_ids(n: int) -> list[str]:
    # Zero-padded, so lexicographic order (citenet's node order) is index order.
    return [f"D{i:07d}" for i in range(n)]


def _journal_names(n: int) -> list[str]:
    return [f"J{k:04d}" for k in range(n)]


def _author_names(n: int) -> list[str]:
    return [f"Author{k:05d} {chr(65 + k % 26)}." for k in range(n)]


def _bylines(rng: np.random.Generator, n_docs: int, n_authors: int) -> list[tuple[int, ...]]:
    """1-5 distinct author indices per document, Zipf-like productivity."""
    weights = 1.0 / np.arange(1, n_authors + 1) ** 0.8
    weights /= weights.sum()
    sizes = rng.integers(1, 6, n_docs)
    draws = rng.choice(n_authors, size=(n_docs, 5), p=weights)
    bylines = []
    for row, size in zip(draws.tolist(), sizes.tolist()):
        seen: list[int] = []
        for a in row:
            if a not in seen:
                seen.append(a)
            if len(seen) == size:
                break
        bylines.append(tuple(seen))
    return bylines


def _uniform_edges(rng: np.random.Generator, year: np.ndarray, n_edges: int):
    # Documents are sorted by year; a document cites from ``first`` up to
    # itself. Expected reference counts grow by GROWTH a year and are
    # rounded at random, not drawn, so that no journal's references in a
    # year hinge on one or two short lists.
    first = np.searchsorted(year, year - RECENT_YEARS)
    citing = np.flatnonzero(first < np.arange(len(year)))
    expected = GROWTH ** (year[citing] - FIRST_YEAR)
    expected *= n_edges / expected.sum()
    refs = np.floor(expected).astype(np.int64)
    fraction = expected - refs
    extra = rng.choice(len(citing), size=n_edges - int(refs.sum()), replace=False,
                       p=fraction / fraction.sum())
    refs[extra] += 1
    src = np.repeat(citing, refs)
    lo = first[src]
    dst = lo + (rng.random(n_edges) * (src - lo)).astype(np.int64)
    return src, dst


def _preferential_edges(rng: np.random.Generator, year: np.ndarray, n_edges: int):
    n_docs = len(year)
    refs = rng.poisson(n_edges / n_docs, n_docs)
    refs[0] = 0
    # Trim or pad so the total is exactly n_edges.
    excess = int(refs.sum()) - n_edges
    while excess:
        i = int(rng.integers(1, n_docs))
        if excess > 0 and refs[i] > 0:
            refs[i] -= 1
            excess -= 1
        elif excess < 0:
            refs[i] += 1
            excess += 1
    src = np.repeat(np.arange(n_docs, dtype=np.int64), refs)
    dst = np.empty(n_edges, dtype=np.int64)
    filled = 0
    for start in range(0, n_docs, PA_CHUNK):
        stop = min(start + PA_CHUNK, n_docs)
        lo, hi = np.searchsorted(src, [start, stop])
        k = int(hi - lo)
        if k == 0:
            continue
        citing = src[lo:hi]
        if start == 0:
            chosen = (rng.random(k) * citing).astype(np.int64)
        else:
            chosen = rng.integers(0, start, k)
            if filled:
                pa = rng.random(k) < PA_SHARE
                chosen[pa] = dst[rng.integers(0, filled, int(pa.sum()))]
        dst[lo:hi] = chosen
        filled = int(hi)
    return src, dst


def _journal_matrix(venue, year, src, dst, n_journals, cite_year):
    """Journal citation counts for the two-year window, and publications."""
    first, last = cite_year - 2, cite_year - 1
    in_source = (year >= first) & (year <= last)
    sel = (year[src] == cite_year) & in_source[dst]
    flat = venue[src[sel]] * n_journals + venue[dst[sel]]
    counts = np.bincount(flat, minlength=n_journals * n_journals)
    pubs = np.bincount(venue[in_source], minlength=n_journals)
    return counts.reshape(n_journals, n_journals), pubs


def generate(spec: CorpusSpec, seed: int, out: Path) -> dict:
    """Write the corpus files under ``out`` and return the ground truth."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    n, n_j = spec.docs, spec.journals
    ids = _doc_ids(n)
    journals = _journal_names(n_j)
    authors = _author_names(spec.authors)

    # The literature grows: each year publishes GROWTH times the last.
    year_p = GROWTH ** np.arange(spec.years)
    year = np.sort(FIRST_YEAR + rng.choice(spec.years, size=n, p=year_p / year_p.sum()))
    # Journals are equally sized panels: each year spreads its documents
    # evenly over the journals, in random order.
    _, per_year = np.unique(year, return_counts=True)
    venue = np.concatenate([rng.permutation(np.resize(rng.permutation(n_j), k))
                            for k in per_year.tolist()])
    doc_type = rng.choice(len(DOC_TYPES), size=n, p=DOC_TYPE_SHARES)
    cites = np.minimum(rng.zipf(2.0, n) - 1, 100_000)
    bylines = _bylines(rng, n, spec.authors)

    with open(out / "docs.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("id,venue,year,doc_type,cites,authors\n")
        fh.writelines(
            f"{ids[i]},{journals[v]},{y},{DOC_TYPES[t]},{c},{';'.join(authors[a] for a in b)}\n"
            for i, (v, y, t, c, b) in enumerate(
                zip(venue.tolist(), year.tolist(), doc_type.tolist(), cites.tolist(), bylines)
            )
        )
    # citenet knows only the journals that have documents.
    present = np.unique(venue)
    names = [journals[j] for j in present.tolist()]

    def per_journal(doc_venues: np.ndarray) -> dict[str, int]:
        return dict(zip(names, np.bincount(doc_venues, minlength=n_j)[present].tolist()))

    truth: dict = {
        "docs": n,
        "journals": names,
        "cite_year": spec.cite_year,
        "article_counts": per_journal(venue[year == spec.cite_year]),
        "author_docs": _author_docs(bylines, authors),
        "rows": {"docs.csv": n},
    }

    if spec.edges:
        make = _preferential_edges if spec.model == "preferential" else _uniform_edges
        src, dst = make(rng, year, spec.edges)
        truth.update(_edge_truth(spec, per_journal, present, venue, year, src, dst))
        truth["rows"]["edges.csv"] = _write_edges(rng, spec, ids, src, dst, out / "edges.csv")

    if spec.study_authors:
        study = _write_study_files(rng, spec, ids, journals, authors, venue, year,
                                   doc_type, cites, bylines, out)
        truth["rows"].update(study.pop("rows_extra"))
        truth.update(study)

    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


def _edge_truth(spec: CorpusSpec, per_journal, present, venue, year, src, dst) -> dict:
    n_j, y = spec.journals, spec.cite_year
    citing_now = year[src] == y
    in_window = (year >= y - 2) & (year <= y - 1)
    counts, pubs = _journal_matrix(venue, year, src, dst, n_j, y)
    return {
        "edges": int(len(src)),
        "distinct_edges": int(len(np.unique(src * spec.docs + dst))),
        "total_cites": per_journal(venue[dst[citing_now]]),
        "total_cites_prev": per_journal(venue[dst[year[src] == y - 1]]),
        "if_numerator": per_journal(venue[dst[citing_now & in_window[dst]]]),
        "if_denominator": per_journal(venue[in_window]),
        "window_matrix": counts[np.ix_(present, present)].tolist(),
        "window_pubs": pubs[present].tolist(),
    }


def _write_edges(rng, spec: CorpusSpec, ids, src, dst, path: Path) -> int:
    rows = [f"{ids[a]},{ids[b]}\n" for a, b in zip(src.tolist(), dst.tolist())]
    n_faults = int(round(spec.fault_rate * len(rows)))
    faults = []
    for k, doc in enumerate(rng.integers(0, spec.docs, n_faults).tolist()):
        kind = k % 4
        if kind == 0:
            faults.append(f"{ids[doc]},{ids[doc]}\n")  # self-loop
        elif kind == 1:
            faults.append(f"{ids[doc]}\n")  # one field
        elif kind == 2:
            faults.append(f"{ids[doc]},\n")  # empty cited id
        else:
            faults.append(f",{ids[doc]}\n")  # empty citing id
    rows.extend(faults)
    order = rng.permutation(len(rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("citing_id,cited_id\n")
        fh.writelines(rows[i] for i in order.tolist())
    return len(rows)


def _write_study_files(rng, spec: CorpusSpec, ids, journals, authors, venue, year,
                       doc_type, cites, bylines, out: Path) -> dict:
    n_j, years = spec.journals, spec.years
    review = DOC_TYPES.index("review")

    # Rank records: one row per (journal, year); ~15% not indexed, ~5% of
    # ranks blank; ranks spread over 1..1500 so every bucket is used.
    indexed = rng.random((n_j, years)) < 0.85
    tc = rng.integers(1, 1501, (n_j, years))
    iff = rng.integers(1, 1501, (n_j, years))
    tc_blank = rng.random((n_j, years)) < 0.05
    if_blank = rng.random((n_j, years)) < 0.05
    with open(out / "rank_records.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("journal,year,indexed,tc_rank,if_rank\n")
        for j in range(n_j):
            for k in range(years):
                fh.write(
                    f"{journals[j]},{FIRST_YEAR + k},{'true' if indexed[j, k] else 'false'},"
                    f"{'' if tc_blank[j, k] else tc[j, k]},{'' if if_blank[j, k] else iff[j, k]}\n"
                )

    docs_of: dict[int, list[int]] = {}
    for i, byline in enumerate(bylines):
        for a in byline:
            docs_of.setdefault(a, []).append(i)
    # Study subjects: productive authors with at least one review, evenly
    # spread over the top of the productivity ranking.
    productive = sorted(docs_of, key=lambda a: (-len(docs_of[a]), a))
    eligible = [a for a in productive[: 5 * spec.study_authors]
                if any(doc_type[i] == review for i in docs_of[a])]
    step = max(1, len(eligible) // spec.study_authors)
    subjects = eligible[::step][: spec.study_authors]

    def rank(table, blank, i):
        j, k = venue[i], year[i] - FIRST_YEAR
        if not indexed[j, k] or blank[j, k]:
            return None
        return int(table[j, k])

    study = {}
    for a in subjects:
        ordered = sorted(docs_of[a], key=lambda i: (-cites[i], ids[i]))
        sample = ordered[::STUDY_EVERY]
        reviews = [i for i in ordered if doc_type[i] == review]
        tc_ranks = [rank(tc, tc_blank, i) for i in sample]
        if_ranks = [rank(iff, if_blank, i) for i in sample]
        study[authors[a]] = {
            "docs": len(ordered),
            "sample_ids": [ids[i] for i in sample],
            "sample_primary": sum(bylines[i][0] == a for i in sample),
            "reviews": len(reviews),
            "reviews_primary": sum(bylines[i][0] == a for i in reviews),
            "indexed": sum(bool(indexed[venue[i], year[i] - FIRST_YEAR]) for i in sample),
            "tc_buckets": _buckets(tc_ranks),
            "if_buckets": _buckets(if_ranks),
            "higher_by_tc": sum(t is not None and f is not None and t < f
                                for t, f in zip(tc_ranks, if_ranks)),
        }

    profile = np.minimum(rng.zipf(1.6, spec.profile_rows), 50_000)
    ranked = np.sort(profile)[::-1]
    h = int(np.sum(ranked >= np.arange(1, len(ranked) + 1)))
    with open(out / "profile.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("cites\n")
        fh.writelines(f"{c}\n" for c in profile.tolist())

    x = rng.normal(50.0, 15.0, spec.xy_rows)
    y = 0.6 * x + rng.normal(0.0, 10.0, spec.xy_rows)
    with open(out / "xy.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("tc,if\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    dx, dy = x - x.mean(), y - y.mean()
    pearson = float(dx @ dy / np.sqrt(float(dx @ dx) * float(dy @ dy)))

    return {
        "study": study,
        "profile_h": h,
        "profile_max": int(ranked[0]),
        "pearson": pearson,
        "rows_extra": {
            "rank_records.csv": n_j * years,
            "profile.csv": spec.profile_rows,
            "xy.csv": spec.xy_rows,
        },
    }


def _author_docs(bylines: list[tuple[int, ...]], authors: list[str]) -> dict[str, int]:
    """Documents per author name, for every author with at least one."""
    counts = np.bincount([a for byline in bylines for a in byline], minlength=len(authors))
    return {authors[a]: int(c) for a, c in enumerate(counts.tolist()) if c}


def _buckets(ranks: list[int | None]) -> list[int]:
    """Counts in the <=500, 501-1000 and >1000 bands (unranked excluded)."""
    present = [r for r in ranks if r is not None]
    return [
        sum(r <= 500 for r in present),
        sum(500 < r <= 1000 for r in present),
        sum(r > 1000 for r in present),
    ]
