"""Arbitrary bytes as each CSV input of the CLI: every run ends in exit
code 0, 2 or 3, never in a Python traceback.

Examples are derandomized and kept in no example database, so every run
draws the same cases.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citenet.cli import main
from laureate_fixture import SUBJECT_NAMES

DATA = Path(__file__).resolve().parent / "data"
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# input -> (command line with the file as {}, the header that file expects)
INPUTS = {
    "edges": (["pagerank", "--edges", "{}"], "citing_id,cited_id"),
    "docs": (["impact-factor", "--docs", "{}", "--cite-year", "2001"],
             "id,venue,year,doc_type,cites,authors"),
    "matrix": (["influence", "--matrix", "{}", "--prune-nonreferencing"], "journal,A,B,pubs"),
    "ranks": (["study", "rank-buckets", "--docs", str(DATA / "laureates_ranks" / "docs.csv"),
               "--ranks", "{}", "--author", SUBJECT_NAMES[0]],
              "journal,year,indexed,tc_rank,if_rank"),
    "profile": (["h-index", "--profile", "{}"], "cites"),
    "xy": (["correlate", "--data", "{}"], "x,y"),
}

# Cells that reach each reader's parsing and validation branches.
CELLS = [
    b"", b"a", b"b", b"A", b"B", b"J", b" ", b"2000", b"2001", b"1999", b"0", b"-1", b"3",
    b"1.5", b"nan", b"inf", b"1e400", b"99999999999999999999", b"article", b"review",
    b"true", b"false", b"maybe", b"x;y", b'"', b'"a,b"', b'"a\nb"', b"\xff", b"\xef\xbb\xbf",
    b"\x00",
]


@st.composite
def csv_bytes(draw, header: str):
    """Arbitrary bytes, or rows of reader-relevant cells under the
    expected header (sometimes with a byte-order mark or a wrong header)."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    width = st.sampled_from([header.count(",") + 1, *range(8)])
    row = width.flatmap(lambda n: st.lists(st.sampled_from(CELLS), min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=8))
    head = draw(st.sampled_from([header.encode(), b"\xef\xbb\xbf" + header.encode(), b"a,b"]))
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join([head, *(b",".join(row) for row in rows)])


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("kind", list(INPUTS))
def test_any_bytes_end_in_an_exit_code(kind):
    argv, header = INPUTS[kind]

    @FUZZ
    @given(data=csv_bytes(header), strict=st.booleans())
    def check(data, strict):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.csv"
            path.write_bytes(data)
            args = [str(path) if arg == "{}" else arg for arg in argv]
            assert run(args + ["--strict"] * strict) in (0, 2, 3)

    check()
