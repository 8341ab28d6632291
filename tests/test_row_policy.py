"""One bad-row policy for every CSV reader: each reader is a row parser
run by ``formats._RowReader.parse``, and ``_RowReader.complain`` alone
decides between a ``file:line`` warning and a strict-mode abort.

The oracles below are the reader loops that each wrote out that decision
before, copied verbatim, except that the rank loop gains the repeated-key
rule, the profile loop the one-field rule, the xy loop the rule that a
non-finite number is a bad row and the matrix loop the rule that a
negative count or a pubs below 1 is a bad row.
Examples are derandomized and kept in no example database, so every run
draws the same cases.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from citenet import DataError, load_corpus
from citenet.formats import (
    _FLAGS,
    _TRUE,
    _RowReader,
    read_docs,
    read_journal_matrix,
    read_profile,
    read_rank_records,
    read_xy,
)
from citenet.graph import JournalCitationMatrix
from citenet.metrics import CitationProfile
from citenet.study import RankRecord
from test_csv_fuzz import INPUTS, csv_bytes
from test_interning import record_loop_read_docs

DOCS = Path(__file__).resolve().parent / "data" / "mini" / "docs.csv"
POLICY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def loop_read_rank_records(path, strict=False):
    reader = _RowReader(path, strict, ["journal", "year", "indexed", "tc_rank", "if_rank"])
    records = []
    keys = set()

    def parse_rank(text):
        return int(text) if text else None

    for lineno, row in reader:
        if len(row) != 5 or not row[0]:
            reader.complain(lineno, f"malformed rank row {row!r}")
            continue
        flag = row[2].strip().casefold()
        if flag not in _FLAGS:
            reader.complain(lineno, f"indexed flag must be true/false, got {row[2]!r}")
            continue
        try:
            records.append(
                RankRecord(
                    journal=row[0],
                    year=int(row[1]),
                    indexed=flag in _TRUE,
                    tc_rank=parse_rank(row[3]),
                    if_rank=parse_rank(row[4]),
                )
            )
        except (ValueError, DataError) as exc:
            reader.complain(lineno, str(exc))
            continue
        # The one addition: a repeated (journal, year) is a bad row.
        record = records[-1]
        if (record.journal, record.year) in keys:
            records.pop()
            reader.complain(
                lineno, f"duplicate rank record for journal {record.journal!r} in {record.year}")
        keys.add((record.journal, record.year))
    return records, reader.warnings


def loop_read_profile(path, strict=False):
    reader = _RowReader(path, strict, ["cites"])
    counts = []
    for lineno, row in reader:
        if len(row) != 1:
            reader.complain(lineno, f"expected 1 field, got {len(row)}")
            continue
        try:
            count = int(row[0])
            if count < 0:
                raise ValueError("negative count")
        except ValueError:
            reader.complain(lineno, f"bad citation count {row[0]!r}")
            continue
        counts.append(count)
    return CitationProfile(tuple(counts)), reader.warnings


def loop_read_journal_matrix(path, strict=True):
    reader = _RowReader(path, strict=True)
    header = reader.header
    if len(header) < 3 or header[0] != "journal" or header[-1] != "pubs":
        raise DataError(f"{path}: header must be journal,<journal...>,pubs")
    journals = tuple(header[1:-1])
    if len(set(journals)) != len(journals):
        raise DataError(f"{path}: duplicate journal names in header")
    n = len(journals)
    counts = np.zeros((n, n), dtype=np.int64)
    pubs = np.zeros(n, dtype=np.int64)
    seen = set()
    index = {j: i for i, j in enumerate(journals)}
    for lineno, row in reader:
        if len(row) != n + 2:
            raise DataError(f"{path}:{lineno}: expected {n + 2} fields, got {len(row)}")
        name = row[0]
        if name not in index:
            raise DataError(f"{path}:{lineno}: journal {name!r} not in header")
        if name in seen:
            raise DataError(f"{path}:{lineno}: duplicate row for journal {name!r}")
        seen.add(name)
        try:
            counts[index[name]] = [int(cell) for cell in row[1:-1]]
            pubs[index[name]] = int(row[-1])
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        # The one addition: a negative count or a pubs below 1 names its line.
        if counts[index[name]].min() < 0:
            raise DataError(f"{path}:{lineno}: citation counts must be nonnegative")
        if pubs[index[name]] < 1:
            raise DataError(
                f"{path}:{lineno}: every retained journal needs at least one publication")
    missing = set(journals) - seen
    if missing:
        raise DataError(f"{path}: missing rows for journals {sorted(missing)}")
    return JournalCitationMatrix(journals=journals, counts=counts, pubs=pubs)


def loop_read_xy(path, strict=False, x_col=None, y_col=None):
    reader = _RowReader(path, strict)
    header = reader.header
    if len(header) < 2:
        raise DataError(f"{path}: need a header row with at least two columns")
    x_col = x_col or header[0]
    y_col = y_col or header[1]
    try:
        xi, yi = header.index(x_col), header.index(y_col)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    pairs = []
    for lineno, row in reader:
        try:
            pairs.append((float(row[xi]), float(row[yi])))
        except (ValueError, IndexError):
            reader.complain(lineno, f"bad numeric row {row!r}")
            continue
        if not all(map(math.isfinite, pairs[-1])):
            pairs.pop()
            reader.complain(lineno, f"bad numeric row {row!r}")
    return (x_col, y_col, pairs), reader.warnings


def matrix(path, strict):
    return read_journal_matrix(path)


def xy(path, strict):
    return read_xy(path, strict=strict)


def docs(path, strict):
    got, warnings = read_docs(path, strict)
    return list(got), warnings


def corpus(path, strict):
    bundle = load_corpus(path, DOCS, strict)
    return bundle.graph, bundle.warnings


# input kind (a key of INPUTS) -> (reader, its oracle)
ORACLES = {
    "docs": (docs, record_loop_read_docs),
    "ranks": (read_rank_records, loop_read_rank_records),
    "profile": (read_profile, loop_read_profile),
    "matrix": (matrix, loop_read_journal_matrix),
    "xy": (xy, loop_read_xy),
}
# input kind -> a reader that obeys a strict flag
READERS = {"edges": corpus, "docs": docs, "ranks": read_rank_records, "profile": read_profile,
           "xy": xy}


# Rows that random bytes seldom make: a repeated key on a good row and on
# a bad one, and a row that fails two checks at once.
EXAMPLES = {
    "docs": [b"id,venue,year,doc_type,cites,authors\na,J,2000,,0,\na,J,2000,bogus,0,\n"
             b"a,J,-1,article,0,\na,K,2001,review,1,\n"],
    "ranks": [b"journal,year,indexed,tc_rank,if_rank\nJ,2001,true,10,20\nJ,2001,maybe,1,2\n"
              b"J, 2001,true,900,1200\nJ,2001,true,0,1\nK,2001,no,,\n"],
    "profile": [b"cites\n3\n-1\n 4 ,x\nnan\n"],
    "matrix": [b"journal,A,B,pubs\nC,1\n", b"journal,A,B,pubs\nA,0,1,2\nA,1\n",
               b"journal,A,B,pubs\nA,1,-2,3\nB,1,1,0\n"],
    "xy": [b"x,y\n1,2\nnan,inf\n1\n,\n", b"x,y\n1e999,2\n3,-Infinity\n4,5\n"],
    "edges": [b"citing_id,cited_id\na1,ghost\nb1,b1\nx\nghost,ghost\n"],
}


def outcome(fn, path: Path, strict: bool):
    """``fn``'s result on ``path``, or the text of the :class:`DataError`
    it raised, tagged with which it was."""
    try:
        return "ok", fn(path, strict)
    except DataError as exc:
        return "DataError", str(exc)


def same(a, b) -> bool:
    # repr also equates two NaNs read from the same cell.
    return a == b or repr(a) == repr(b)


def check_csv_files(kind: str, check) -> None:
    """Run ``check(path)`` on ``csv_bytes`` inputs for ``kind`` saved as
    a CSV file, and on its ``EXAMPLES``."""

    def test(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(data)
            check(path)

    test = given(data=csv_bytes(INPUTS[kind][1]))(test)
    for data in EXAMPLES[kind]:
        test = example(data=data)(test)
    POLICY(test)()


@pytest.mark.parametrize("kind", list(ORACLES))
def test_reader_matches_its_old_loop(kind):
    reader, oracle = ORACLES[kind]

    def check(path):
        for strict in (False, True):
            assert same(outcome(reader, path, strict), outcome(oracle, path, strict)), strict

    check_csv_files(kind, check)


@pytest.mark.parametrize("kind", list(READERS))
def test_strict_mode_aborts_at_the_first_warning(kind):
    """The strict run raises the non-strict run's error, or its first
    warning, or returns the same value when it warned nothing."""
    reader = READERS[kind]

    def check(path):
        loose, tight = outcome(reader, path, False), outcome(reader, path, True)
        if loose[0] == "DataError":
            assert tight == loose
        elif loose[1][1]:
            assert tight == ("DataError", loose[1][1][0])
        else:
            assert same(tight, loose)

    check_csv_files(kind, check)
