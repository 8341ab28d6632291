"""Synthetic five-subject study corpora.

Two corpora of per-subject publication lists, engineered so the study
tables come out with known cells:

* the *ranks* corpus pairs every sampled document with a journal rank
  record chosen to produce fixed bucket counts, medians, and
  TC-vs-IF comparison rows;
* the *authors* corpus assigns byline sizes and positions to sampled
  documents (and to all review articles) to produce fixed
  authorship-pattern rows, including the overall primary-author shares
  of 40.3% for sampled works and 68.8% for review articles.

Documents are listed in cites-descending order, so a document's 1-based
position is its rank. Sampling is every third document starting from
the top. Run this module to regenerate tests/data/laureates_*/.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from citenet import DocType, DocumentRecord, RankRecord

DATA_DIR = Path(__file__).resolve().parent / "data"

UNINDEXED = "unindexed"


@dataclass(frozen=True)
class SubjectSpec:
    name: str
    code: str
    rank_docs: int      # corpus size for the journal-rank study
    author_docs: int    # corpus size for the authorship study
    year: int
    # One entry per sampled document, in rank order: (tc_rank, if_rank)
    # or UNINDEXED for a document whose journal the index does not cover.
    rank_pairs: tuple
    # Byline specs (author_count, subject_position) handed out to the
    # sampled documents of the authorship corpus, as a multiset.
    author_specs: tuple[tuple[int, int], ...]
    # rank -> (author_count, subject_position) for review articles.
    reviews: dict[int, tuple[int, int]] = field(default_factory=dict)
    books: tuple[int, ...] = ()


def _pairs(*groups):
    out = []
    for group in groups:
        out.extend(group)
    return tuple(out)


SUBJECTS = (
    SubjectSpec(
        name="Elena Alvarez",
        code="A",
        rank_docs=90,
        author_docs=97,
        year=1985,
        # TC 8..37 (median 22.5, all top-500); IF engineered for median
        # 131.5 with one 501-1000 entry; 28 of 30 higher by TC.
        rank_pairs=_pairs(
            [(8 + i, 108 + i) for i in range(12)],           # tc 8..19
            [(20, 131), (21, 132)],
            [(22 + i, 140 + i) for i in range(13)],          # tc 22..34
            [(35, 600), (36, 20), (37, 25)],
        ),
        author_specs=_pairs(
            [(1, 1)] * 10,
            [(2, 1)] * 7,
            [(3, 1)] * 5 + [(3, 2)],
            [(4, 1)] * 3 + [(4, 3)],
            [(5, 2), (5, 4), (5, 5)],
            [(6, 2), (6, 5)],
            [(8, 7)],
        ),
        reviews={25: (1, 1)},
    ),
    SubjectSpec(
        name="Henrik Borg",
        code="B",
        rank_docs=123,
        author_docs=123,
        year=1995,
        # TC 2..39 plus three >1000 (median 22); IF: 33 top-500 / 2 mid /
        # 6 below, median 202; 34 of 41 higher by TC.
        rank_pairs=_pairs(
            [(2 + i, 60 + i) for i in range(14)],            # tc 2..15
            [(16, 202)],
            [(17 + i, 250 + i) for i in range(10)],          # tc 17..26
            [(27, 1100), (28, 1200), (29, 1300)],
            [(30 + i, 10 + i) for i in range(6)],            # if lower than tc
            [(36, 700), (37, 800), (38, 260), (39, 261)],
            [(1500, 1400), (1600, 1800), (1700, 2000)],
        ),
        author_specs=_pairs(
            [(1, 1)] * 2,
            [(2, 2)] * 6,
            [(3, 2)] * 3 + [(3, 3)] * 3,
            [(4, 2)] * 4 + [(4, 3)] * 4 + [(4, 4)] * 4,
            [(5, 2)] * 2 + [(5, 3)] + [(5, 4)] * 2 + [(5, 5)],
            [(6, 2)] * 2 + [(6, 4)] * 2 + [(6, 5)] * 2,
            [(6, 6)] * 3,
        ),
        reviews={10: (2, 2), 20: (3, 1), 28: (3, 2), 40: (3, 3), 55: (5, 4)},
    ),
    SubjectSpec(
        name="Sachiko Chiba",
        code="C",
        rank_docs=50,
        author_docs=50,
        year=2004,
        # TC 13/2/2 with median 159; IF 11/1/5 with median 200; 15 of 17
        # higher by TC.
        rank_pairs=(
            (20, 25), (40, 45), (60, 65), (80, 85), (100, 105), (120, 125),
            (140, 145), (150, 200), (159, 250), (200, 1100), (300, 2000),
            (400, 480), (450, 700), (600, 1500), (800, 150), (1200, 3000),
            (1400, 1350),
        ),
        author_specs=_pairs(
            [(1, 1)] * 4,
            [(2, 1), (3, 1), (4, 1)],
            [(4, 2), (5, 3), (5, 4), (6, 2), (6, 5), (7, 2), (7, 5)],
            [(8, 7), (9, 8), (10, 9)],
        ),
        reviews={29: (1, 1)},
        books=(50,),
    ),
    SubjectSpec(
        name="Adele Danton",
        code="D",
        rank_docs=36,
        author_docs=36,
        year=2005,
        # 11 indexed of 12; TC 9/2/0 median 22; IF 9/1/1 median 67;
        # 7 of 11 higher by TC.
        rank_pairs=(
            (2, 30), (5, 40), (10, 67), (15, 75), (20, 12), (22, 9),
            (100, 460), (200, 800), (300, 1200), (600, 50), (700, 90),
            UNINDEXED,
        ),
        author_specs=(
            (1, 1), (1, 1), (6, 1), (6, 1),
            (2, 2), (5, 4),
            (8, 6), (9, 8), (10, 10),
            (12, 11), (15, 12), (20, 14),
        ),
        reviews={20: (1, 1), 27: (1, 1), 35: (2, 2)},
    ),
    SubjectSpec(
        name="Ethan Nagai",
        code="E",
        rank_docs=48,
        author_docs=48,
        year=2006,
        # All 16 top-500, TC median 13.5; IF 13/3/0 median 136; 15 of 16
        # higher by TC.
        rank_pairs=(
            (6, 40), (7, 60), (8, 80), (9, 100), (10, 120), (11, 125),
            (12, 130), (13, 142), (14, 180), (15, 200), (16, 300),
            (17, 400), (18, 800), (19, 600), (20, 700), (21, 11),
        ),
        author_specs=_pairs(
            [(1, 1)] * 4,
            [(2, 1)] * 4,
            [(3, 1)] * 2,
            [(3, 2), (4, 3), (5, 4), (6, 5), (7, 2)],
            [(7, 6)],
        ),
        reviews={1: (1, 1), 4: (1, 1), 5: (2, 1), 9: (2, 1), 11: (3, 1), 13: (3, 1)},
        books=(48,),
    ),
)

SUBJECT_NAMES = tuple(spec.name for spec in SUBJECTS)


def sampled_ranks(n_docs: int, k: int = 3) -> list[int]:
    return list(range(1, n_docs + 1, k))


def _cites_for(rank: int, n_docs: int) -> int:
    return (n_docs - rank) * 10 + 5


def build_ranks_corpus() -> tuple[list[DocumentRecord], list[RankRecord]]:
    """Documents plus the engineered rank records for every sampled one."""
    docs: list[DocumentRecord] = []
    records: list[RankRecord] = []
    for spec in SUBJECTS:
        ranks = sampled_ranks(spec.rank_docs)
        assert len(ranks) == len(spec.rank_pairs)
        rank_of = dict(zip(ranks, spec.rank_pairs))
        for rank in range(1, spec.rank_docs + 1):
            venue = f"J{spec.code}-{rank:03d}"
            docs.append(
                DocumentRecord(
                    id=f"{spec.code}R-{rank:03d}",
                    venue=venue,
                    year=spec.year,
                    authors=(spec.name,),
                    cites=_cites_for(rank, spec.rank_docs),
                )
            )
            pair = rank_of.get(rank)
            if pair is None:
                continue
            if pair == UNINDEXED:
                records.append(RankRecord(venue, spec.year, indexed=False))
            else:
                tc, if_ = pair
                records.append(
                    RankRecord(venue, spec.year, indexed=True, tc_rank=tc, if_rank=if_)
                )
    return docs, records


def _byline(spec: SubjectSpec, rank: int, count: int, position: int) -> tuple[str, ...]:
    authors = [f"{spec.code}. Partner {rank:03d}-{i}" for i in range(1, count + 1)]
    authors[position - 1] = spec.name
    return tuple(authors)


def build_authors_corpus() -> list[DocumentRecord]:
    """Documents whose bylines realize the authorship-pattern rows."""
    docs: list[DocumentRecord] = []
    for spec in SUBJECTS:
        queue = list(spec.author_specs)
        sampled = set(sampled_ranks(spec.author_docs))
        for rank in sorted(spec.reviews):
            if rank in sampled:
                queue.remove(spec.reviews[rank])
        queue_iter = iter(queue)
        for rank in range(1, spec.author_docs + 1):
            if rank in spec.reviews:
                count, position = spec.reviews[rank]
                doc_type = DocType.REVIEW
            elif rank in spec.books:
                count, position = 1, 1
                doc_type = DocType.BOOK
            elif rank in sampled:
                count, position = next(queue_iter)
                doc_type = DocType.ARTICLE
            else:
                count, position = 1, 1
                doc_type = DocType.ARTICLE
            docs.append(
                DocumentRecord(
                    id=f"{spec.code}W-{rank:03d}",
                    venue=f"Q{spec.code}-{rank:03d}",
                    year=spec.year,
                    authors=_byline(spec, rank, count, position),
                    doc_type=doc_type,
                    cites=_cites_for(rank, spec.author_docs),
                )
            )
    return docs


def docs_by_subject(docs: list[DocumentRecord]) -> dict[str, list[DocumentRecord]]:
    from citenet.graph import normalize_author

    grouped: dict[str, list[DocumentRecord]] = {name: [] for name in SUBJECT_NAMES}
    for doc in docs:
        for name in SUBJECT_NAMES:
            if any(normalize_author(a) == normalize_author(name) for a in doc.authors):
                grouped[name].append(doc)
    for name, group in grouped.items():
        grouped[name] = sorted(group, key=lambda d: (-d.cites, d.id))
    return grouped


def write_fixture_files() -> None:
    import csv

    def write_docs(path: Path, docs: list[DocumentRecord]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "venue", "year", "doc_type", "cites", "authors"])
            for d in docs:
                writer.writerow(
                    [d.id, d.venue, d.year, d.doc_type.value, d.cites, ";".join(d.authors)]
                )

    rank_docs, records = build_ranks_corpus()
    write_docs(DATA_DIR / "laureates_ranks" / "docs.csv", rank_docs)
    with open(DATA_DIR / "laureates_ranks" / "rank_records.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["journal", "year", "indexed", "tc_rank", "if_rank"])
        for r in records:
            writer.writerow(
                [
                    r.journal,
                    r.year,
                    "true" if r.indexed else "false",
                    r.tc_rank if r.tc_rank is not None else "",
                    r.if_rank if r.if_rank is not None else "",
                ]
            )
    write_docs(DATA_DIR / "laureates_authors" / "docs.csv", build_authors_corpus())


if __name__ == "__main__":
    write_fixture_files()
    print(f"fixture files written under {DATA_DIR}")
