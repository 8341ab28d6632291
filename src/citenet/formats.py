"""CSV file formats and corpus loading.

All files are UTF-8 CSV with a header row and LF line endings:

  edges.csv         citing_id,cited_id  (one row per citation instance)
  docs.csv          id,venue,year,doc_type,cites,authors
                    (authors ';'-separated, byline order)
  journal_matrix.csv  journal,<j1>,...,<jn>,pubs  (square count block)
  rank_records.csv  journal,year,indexed,tc_rank,if_rank  (empty = unranked)
  profile.csv       cites  (one count per row)

``read_xy`` reads two numeric columns of any CSV file with a header row.
A leading UTF-8 byte-order mark is dropped.

In strict mode any bad row aborts the load, naming its file and line;
otherwise each bad row is skipped with a warning that names them. An
edge row citing or cited by an id that the docs file lacks (a dangling
edge) warns in the same way but stays in the graph.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ._numpy import np
from .errors import DataError
from .graph import CitationGraph, DocType, DocumentRecord, JournalCitationMatrix, build_graph
from .graph import _check_document, _DocColumns, _InternedEdges

if TYPE_CHECKING:
    from .metrics import CitationProfile
    from .study import RankRecord

_TRUE = {"true", "1", "yes", "y"}
_FALSE = {"false", "0", "no", "n"}
_FLAGS = _TRUE | _FALSE
_DOC_TYPES = {"": DocType.OTHER} | {t.value: t for t in DocType}  # an empty type is OTHER


class CorpusBundle(NamedTuple):
    """Citation graph plus the warnings collected while loading it."""

    graph: CitationGraph
    warnings: list[str]


def _csv_records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(start line, row) for every record of a UTF-8 CSV file, without a
    leading byte-order mark.

    A record's line is the physical line it starts on, also after a
    quoted field that spans lines. A byte that is not UTF-8, or a CSV
    syntax error such as an over-long field, is a :class:`DataError`
    naming the file and line.
    """
    with open(path, "rb") as fh:
        # Strip the mark from the bytes rather than decode as utf-8-sig,
        # whose error offsets leave out the mark's three bytes.
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


class _RowReader:
    """One pass over the non-blank rows after the header, with the line
    each starts on; checks the header when ``expected_header`` is given.

    ``complain`` is the one bad-input policy: in strict mode it aborts
    with a :class:`DataError` naming ``file:line``, otherwise it keeps
    that note in ``warnings`` and the caller skips the row. ``parse``
    hands it every ``ValueError`` a row parser raises. ``records`` is
    the same pass with blank rows left in: a reader that checks every
    row's shape can walk it and call ``any(row)`` only on the rows that
    fail the check, saving a generator step per row.
    """

    def __init__(self, path: Path, strict: bool, expected_header: list[str] | None = None):
        self.path = path
        self.strict = strict
        self.warnings: list[str] = []
        self.records = _csv_records(path)
        first = next(self.records, None)
        self.header = first[1] if first else []
        if expected_header is not None and self.header != expected_header:
            raise DataError(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {','.join(self.header) if first else '<empty file>'!r}"
            )

    def complain(self, lineno: int, message: str) -> None:
        note = f"{self.path}:{lineno}: {message}"
        if self.strict:
            raise DataError(note) from None
        self.warnings.append(note)

    def __iter__(self):
        return ((lineno, row) for lineno, row in self.records if any(row))

    def parse(self, parse_row: Callable[[list[str]], None]) -> None:
        """Call ``parse_row`` on each row; a row it rejects with a
        ``ValueError`` (every :class:`DataError` is one) is a bad row."""
        for lineno, row in self:
            try:
                parse_row(row)
            except ValueError as exc:
                self.complain(lineno, str(exc))


def _read_edges_with_lines(
    path: Path, strict: bool
) -> tuple[dict[str, int], list[int], list[int], list[int], _RowReader]:
    """The well-formed edge rows of ``path`` with their ids interned, as
    ``(codes, lines, pairs, loops, reader)``: ``codes`` maps each id to
    its code in first-seen order, and row ``k`` starts on line
    ``lines[k]`` with (citing, cited) codes ``pairs[2k]``,
    ``pairs[2k + 1]``; ``loops`` lists the rows ``k`` that are self-loops."""
    reader = _RowReader(path, strict, ["citing_id", "cited_id"])
    codes, lines, pairs, loops = {}, [], [], []
    for lineno, row in reader.records:
        if len(row) != 2 or not row[0] or not row[1]:
            if any(row):
                reader.complain(lineno, f"malformed edge row {row!r}")
            continue
        if row[0] == row[1]:
            loops.append(len(lines))
        lines.append(lineno)
        pairs += (codes.setdefault(row[0], len(codes)), codes.setdefault(row[1], len(codes)))
    return codes, lines, pairs, loops, reader


def read_edges(path: Path, strict: bool = False) -> tuple[list[tuple[str, str]], list[str]]:
    """The (citing, cited) pairs of the well-formed rows of an edges file."""
    codes, _, pairs, _, reader = _read_edges_with_lines(path, strict)
    ids = list(codes)
    return [(ids[u], ids[v]) for u, v in zip(pairs[::2], pairs[1::2])], reader.warnings


def read_docs(path: Path, strict: bool = False) -> tuple[Sequence[DocumentRecord], list[str]]:
    """The well-formed rows of a docs file, checked as :class:`DocumentRecord`
    checks them but held as columns; each record is built when read."""
    reader = _RowReader(path, strict, ["id", "venue", "year", "doc_type", "cites", "authors"])
    rows: dict[str, tuple] = {}

    def parse_doc(row: list[str]) -> None:
        if len(row) != 6:
            raise DataError(f"expected 6 fields, got {len(row)}")
        doc_id, venue, year_s, type_s, cites_s, authors_s = row
        year = int(year_s)
        doc_type = _DOC_TYPES.get(type_s) or DocType(type_s)
        cites = int(cites_s) if cites_s else 0
        authors = tuple(filter(None, map(str.strip, authors_s.split(";"))))
        _check_document(doc_id, year, authors, cites)
        if doc_id in rows:
            raise DataError(f"duplicate document id {doc_id!r}")
        rows[doc_id] = (doc_id, venue, year, authors, doc_type, cites)

    reader.parse(parse_doc)
    return _DocColumns(rows.values()), reader.warnings


def read_rank_records(path: Path, strict: bool = False) -> tuple[list[RankRecord], list[str]]:
    """The well-formed rows of a rank records file; a repeated
    (journal, year) is a bad row, and the first one is kept."""
    from .study import RankRecord

    reader = _RowReader(path, strict, ["journal", "year", "indexed", "tc_rank", "if_rank"])
    records: dict[tuple[str, int], RankRecord] = {}

    def parse_rank(row: list[str]) -> None:
        if len(row) != 5 or not row[0]:
            raise DataError(f"malformed rank row {row!r}")
        journal, year_s, flag_s, tc_s, if_s = row
        flag = flag_s.strip().casefold()
        if flag not in _FLAGS:
            raise DataError(f"indexed flag must be true/false, got {flag_s!r}")
        record = RankRecord(journal, int(year_s), flag in _TRUE,
                            int(tc_s) if tc_s else None, int(if_s) if if_s else None)
        if (journal, record.year) in records:
            raise DataError(f"duplicate rank record for journal {journal!r} in {record.year}")
        records[journal, record.year] = record

    reader.parse(parse_rank)
    return list(records.values()), reader.warnings


def read_profile(path: Path, strict: bool = False) -> tuple[CitationProfile, list[str]]:
    from .metrics import CitationProfile

    reader = _RowReader(path, strict, ["cites"])
    counts: list[int] = []

    def parse_count(row: list[str]) -> None:
        if len(row) != 1:
            raise DataError(f"expected 1 field, got {len(row)}")
        try:
            count = int(row[0])
        except ValueError:
            count = -1
        if count < 0:
            raise DataError(f"bad citation count {row[0]!r}")
        counts.append(count)

    reader.parse(parse_count)
    return CitationProfile(tuple(counts)), reader.warnings


def read_journal_matrix(path: Path) -> JournalCitationMatrix:
    """Read a square journal-to-journal count matrix (always strict)."""
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
    index = {j: i for i, j in enumerate(journals)}
    seen: set[str] = set()

    def parse_journal(row: list[str]) -> None:
        if len(row) != n + 2:
            raise DataError(f"expected {n + 2} fields, got {len(row)}")
        name = row[0]
        if name not in index:
            raise DataError(f"journal {name!r} not in header")
        if name in seen:
            raise DataError(f"duplicate row for journal {name!r}")
        seen.add(name)
        try:
            counts[index[name]] = [int(cell) for cell in row[1:-1]]
            pubs[index[name]] = int(row[-1])
        except OverflowError as exc:
            raise DataError(str(exc)) from None
        if counts[index[name]].min() < 0:
            raise DataError("citation counts must be nonnegative")
        if pubs[index[name]] < 1:
            raise DataError("every retained journal needs at least one publication")

    reader.parse(parse_journal)
    missing = set(journals) - seen
    if missing:
        raise DataError(f"{path}: missing rows for journals {sorted(missing)}")
    return JournalCitationMatrix(journals=journals, counts=counts, pubs=pubs)


def read_xy(
    path: Path, x_col: str | None = None, y_col: str | None = None, strict: bool = False
) -> tuple[tuple[str, str, list[tuple[float, float]]], list[str]]:
    """(x, y) pairs from two numeric columns of a CSV file, named by its
    header (default: the first two), as ``((x_col, y_col, pairs), warnings)``.

    A row whose two cells are not both finite numbers is a bad row.
    """
    reader = _RowReader(path, strict)
    header = reader.header
    if len(header) < 2:
        raise DataError(f"{path}: need a header row with at least two columns")
    x_col = x_col or header[0]
    y_col = y_col or header[1]
    for col in (x_col, y_col):
        if col not in header:
            raise DataError(f"{path}: no column {col!r} in the header")
    xi, yi = header.index(x_col), header.index(y_col)
    pairs: list[tuple[float, float]] = []

    def parse_pair(row: list[str]) -> None:
        try:
            pair = float(row[xi]), float(row[yi])
            if not all(map(math.isfinite, pair)):
                raise ValueError
        except (ValueError, IndexError):
            raise DataError(f"bad numeric row {row!r}") from None
        pairs.append(pair)

    reader.parse(parse_pair)
    return (x_col, y_col, pairs), reader.warnings


def load_corpus(
    edges: Path | None = None, docs: Path | None = None, strict: bool = False
) -> CorpusBundle:
    """Load and cross-validate a citation graph from an edges and/or docs file.

    With both present, an edge row with an endpoint lacking a document
    record is a bad row that is kept: strict mode aborts at it, and
    otherwise it warns and stays in the graph. Self-loops are bad rows
    that are skipped.
    """
    if edges is None:
        if docs is None:
            raise DataError("no input files given")
        doc_rows, warnings = read_docs(docs, strict)
        return CorpusBundle(build_graph((), doc_rows), warnings)
    codes, lines, pairs, loops, reader = _read_edges_with_lines(edges, strict)
    doc_rows, notes = read_docs(docs, strict) if docs is not None else (_DocColumns(()), [])
    reader.warnings += notes
    ids = list(codes)
    # Dangling rows come before self-loops, so in strict mode the first
    # dangling row wins over an earlier self-loop. Most corpora have a
    # record for every id, and then no row needs a look.
    lacking = codes.keys() - doc_rows.ids if docs is not None else ()
    if lacking:
        for k, (u, v) in enumerate(zip(pairs[::2], pairs[1::2])):
            if ids[u] in lacking or ids[v] in lacking:
                unknown = ", ".join(ids[x] for x in (u, v) if ids[x] in lacking)
                reader.complain(lines[k], f"edge ({ids[u]},{ids[v]}) references unknown "
                                f"document id(s) {unknown}")
    for k in loops:
        reader.complain(lines[k], f"self-loop on {ids[pairs[2 * k]]!r} skipped")
    # The rows between the self-loops, copied a slice at a time.
    bounds = [0, *(b for k in loops for b in (2 * k, 2 * k + 2)), len(pairs)]
    kept = list(chain.from_iterable(pairs[a:b] for a, b in zip(bounds[::2], bounds[1::2])))
    dropped = {pairs[2 * k] for k in loops}
    return CorpusBundle(build_graph(_InternedEdges(codes, kept, dropped), doc_rows),
                        reader.warnings)


def write_edges(graph: CitationGraph, path: Path) -> None:
    """Write the edge list, one row per citation instance, sorted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["citing_id", "cited_id"])
        rows = sorted(zip(*graph.edge_rows))
        writer.writerows((graph.nodes[u], graph.nodes[v]) for u, v in rows)
