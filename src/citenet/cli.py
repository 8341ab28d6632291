"""Batch command-line surface tying the analysis modules together.

Every subcommand reads the CSV formats documented in ``formats``, runs
one analysis, and emits a deterministic report (CSV + aligned text,
JSON with ``--json``) either to ``--out-dir`` or stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.

Importing this module loads only ``errors`` and ``graph`` of citenet;
each handler imports the modules it runs when it is called.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CitenetError, DataError
from .graph import CitationGraph, DocType, TimeWindow, aggregate_to_journal_matrix

if TYPE_CHECKING:
    from . import concentration, ranking
    from .reports import StudyTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: {message}")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return number


def _corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--edges", type=Path, help="edge-list CSV")
    parser.add_argument("--docs", type=Path, help="document metadata CSV")


def _stopping_options(parser: argparse.ArgumentParser, tol: float, max_iter: int) -> None:
    parser.add_argument("--tol", type=float, default=tol)
    parser.add_argument("--max-iter", type=int, default=max_iter)


def _journal_count_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cite-year", type=_positive_int, required=True)
    parser.add_argument("--by", choices=("cites", "articles", "references"), default="cites")


def _study_options(parser: argparse.ArgumentParser, ranks: bool, one_author: bool = False) -> None:
    """--docs, --ranks when ``ranks``, --author (repeatable unless ``one_author``) and --every."""
    parser.add_argument("--docs", type=Path, required=True)
    if ranks:
        parser.add_argument("--ranks", type=Path, required=True)
    parser.add_argument("--author", action="store" if one_author else "append", required=True)
    parser.add_argument("--every", type=_positive_int, default=3)


@contextmanager
def _command(subparsers, name: str, help: str, func) -> Iterator[argparse.ArgumentParser]:
    """A leaf subcommand that runs ``func``. The output options --out-dir,
    --json and --strict are added after the ones added inside the ``with``
    block, so they come last in its help."""
    parser = subparsers.add_parser(name, help=help)
    parser.set_defaults(func=func)
    yield parser
    parser.add_argument("--out-dir", type=Path, help="directory for report files")
    parser.add_argument("--json", action="store_true", help="also emit JSON")
    parser.add_argument("--strict", action="store_true", help="abort on any malformed row")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="citenet", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    with _command(commands, "pagerank", "random-surfer document ranking", _cmd_pagerank) as p:
        _corpus_options(p)
        p.add_argument("--damping", type=float, default=0.85)
        _stopping_options(p, tol=1e-10, max_iter=200)
        p.add_argument("--top", type=_positive_int, help="limit report to the top N nodes")

    with _command(commands, "hits", "hub and authority scores", _cmd_hits) as p:
        _corpus_options(p)
        _stopping_options(p, tol=1e-10, max_iter=1000)
        p.add_argument("--top", type=_positive_int)

    with _command(commands, "influence", "journal influence measures", _cmd_influence) as p:
        p.add_argument("--matrix", type=Path, help="journal matrix CSV")
        _corpus_options(p)
        p.add_argument("--cite-year", type=_positive_int,
                       help="aggregate graph inputs over this citing year instead")
        p.add_argument("--source-years", metavar="A:B",
                       help="inclusive cited-year range (default: the two preceding years)")
        _stopping_options(p, tol=1e-12, max_iter=1000)
        p.add_argument("--zero-diagonal", action="store_true", help="drop journal self-citations")
        p.add_argument(
            "--prune-nonreferencing",
            action="store_true",
            help="drop journals that give no references instead of erroring",
        )
        p.add_argument(
            "--normalization",
            choices=("reference_mean", "unit_mean"),
            default="reference_mean",
        )

    with _command(commands, "total-cites", "raw citations received per journal",
                  _cmd_total_cites) as p:
        _corpus_options(p)
        p.add_argument("--matrix", type=Path, help="journal matrix CSV (alternative source)")
        p.add_argument("--cite-year", type=_positive_int, help="citing year (graph source)")
        p.add_argument("--journal", help="restrict to one journal")

    with _command(commands, "impact-factor", "two-year impact factors", _cmd_impact_factor) as p:
        _corpus_options(p)
        p.add_argument("--cite-year", type=_positive_int, required=True)
        p.add_argument("--journal", help="restrict to one journal")
        p.add_argument(
            "--doc-types",
            help="comma-separated doc types to count (default: all types)",
        )

    with _command(commands, "h-index", "h-index of a citation profile", _cmd_h_index) as p:
        p.add_argument("--profile", type=Path, required=True, help="citation profile CSV")

    with _command(commands, "bradford", "equal-yield zone partition of journals",
                  _cmd_bradford) as p:
        _corpus_options(p)
        _journal_count_options(p)
        p.add_argument("--zones", type=_positive_int, default=3)
        p.add_argument("--targets", help="comma-separated cumulative item targets")

    with _command(commands, "share-curve", "cumulative concentration curve", _cmd_share_curve) as p:
        _corpus_options(p)
        _journal_count_options(p)
        p.add_argument(
            "--share",
            type=float,
            action="append",
            default=[],
            help="report how many journals reach this share (repeatable)",
        )
        p.add_argument("--threshold", type=int, action="append", default=[],
                       help="report how many journals have counts >= this (repeatable)")

    with _command(commands, "stability", "top-N overlap between two years", _cmd_stability) as p:
        _corpus_options(p)
        _journal_count_options(p)
        p.add_argument("--cite-year-b", type=_positive_int, required=True)
        p.add_argument("--top", type=_positive_int, required=True)

    p = commands.add_parser("study", help="validation-study tables")
    study_commands = p.add_subparsers(dest="study_command", required=True)

    with _command(study_commands, "sample", "stratified every-kth sample", _cmd_study_sample) as sp:
        _study_options(sp, ranks=False, one_author=True)
        sp.add_argument("--seed", type=int, help="randomize the starting offset")

    with _command(study_commands, "rank-buckets", "journal rank-bucket table",
                  _cmd_study_rank_buckets) as sp:
        _study_options(sp, ranks=True)
        sp.add_argument("--measure", choices=("tc", "if"), default="tc")

    with _command(study_commands, "tc-vs-if", "TC-rank vs IF-rank comparison",
                  _cmd_study_tc_vs_if) as sp:
        _study_options(sp, ranks=True)

    with _command(study_commands, "authorship", "authorship-position table",
                  _cmd_study_authorship) as sp:
        _study_options(sp, ranks=False)
        sp.add_argument(
            "--reviews-only",
            action="store_true",
            help="classify all review articles instead of a sample",
        )

    with _command(commands, "correlate", "pearson/spearman rank correlation", _cmd_correlate) as p:
        p.add_argument("--data", type=Path, required=True, help="CSV with two numeric columns")
        p.add_argument("--x-col", help="x column name (default: first column)")
        p.add_argument("--y-col", help="y column name (default: second column)")
        p.add_argument("--method", choices=("pearson", "spearman"), default="pearson")

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _warn(notes: Iterable[str]) -> None:
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)


def _load_graph(args: argparse.Namespace) -> CitationGraph:
    from . import formats

    # The study commands take --docs only.
    edges = getattr(args, "edges", None)
    if edges is None and args.docs is None:
        raise _UsageError("citenet: --edges and/or --docs is required")
    bundle = formats.load_corpus(edges=edges, docs=args.docs, strict=args.strict)
    _warn(bundle.warnings)
    return bundle.graph


def _option_value(args: argparse.Namespace, option: str, parse):
    """``parse`` of ``option``'s text, or None when the option is not given.

    A text that ``parse`` rejects with ValueError, or parses to an empty
    list, is a usage error, so a bad value is reported before any input
    file is read.
    """
    text = getattr(args, option[2:].replace("-", "_"))
    if text is None:
        return None
    try:
        value = parse(text)
    except ValueError:
        value = None
    if not value:  # rejected, or an empty list
        raise _UsageError(f"citenet {args.command}: bad {option} {text!r}")
    return value


def _year_range(text: str) -> tuple[int, int]:
    first, last = (int(y) for y in text.split(":"))
    return first, last


def _check_matrix_alone(args: argparse.Namespace) -> None:
    """With --matrix, the graph-source options are a usage error."""
    options = ("--edges", "--docs", "--cite-year", "--source-years")
    given = [o for o in options if getattr(args, o[2:].replace("-", "_"), None) is not None]
    if args.matrix is not None and given:
        raise _UsageError(
            f"citenet {args.command}: --matrix cannot be combined with {', '.join(given)}"
        )


def _ranked_table(
    title: str, columns: tuple[str, ...], cell_formats: tuple[str, ...], rows: Iterable, **notes
) -> StudyTable:
    """A table of ``rows``, best first, numbered from 1 in a leading Rank column."""
    from .reports import StudyTable

    return StudyTable(
        title=title,
        columns=("Rank", *columns),
        formats=("d", *cell_formats),
        rows=tuple((i, *row) for i, row in enumerate(rows, 1)),
        **notes,
    )


def _score_table(
    title: str, scores: ranking.ScoreVector, value_name: str, top: int | None
) -> StudyTable:
    return _ranked_table(
        title, ("Id", value_name), ("s", "g"), scores.ranked()[:top],
        summary=_solver_summary(scores),
    )


def _solver_summary(result: ranking.ScoreVector | ranking.InfluenceResult) -> tuple:
    return (
        ("Iterations", result.iterations),
        ("Residual", result.residual),
        ("Converged", str(result.converged)),
    )


def _exit_code(solver: str, result: ranking.ScoreVector | ranking.InfluenceResult) -> int:
    """Exit 0 for a converged solve; otherwise warn and exit 3."""
    if result.converged:
        return EXIT_OK
    _warn([
        f"{solver} did not converge in {result.iterations} iterations "
        f"(residual {result.residual:g})"
    ])
    return EXIT_NO_CONVERGENCE


def _ranked_counts(graph: CitationGraph, by: str, year: int) -> concentration.RankedCounts:
    from . import concentration, metrics

    # Looked up per call, so that a wrapped metrics function is the one called.
    count = {
        "cites": metrics.journal_cite_counts,
        "articles": metrics.journal_article_counts,
        "references": metrics.journal_reference_counts,
    }[by]
    return concentration.RankedCounts.from_counts(count(graph, year))


def _author_docs(graph: CitationGraph, author: str) -> list:
    docs = graph.docs_by_author(author)
    if not docs:
        raise DataError(f"no documents authored by {author!r}")
    return sorted(docs, key=lambda d: (-d.cites, d.id))


def _emit(
    tables: list[tuple[str, StudyTable]], args: argparse.Namespace
) -> None:
    from . import reports

    for name, table in tables:
        if args.out_dir is not None:
            reports.write_report(table, args.out_dir, name, include_json=args.json)
        elif args.json:
            sys.stdout.write(reports.render_json(table))
        else:
            sys.stdout.write(reports.render_text(table))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (tables, exit code)
# ---------------------------------------------------------------------------


def _cmd_pagerank(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import ranking

    params = ranking.PageRankParams(damping=args.damping, tol=args.tol, max_iter=args.max_iter)
    graph = _load_graph(args)
    scores = ranking.pagerank(graph, params)
    table = _score_table(
        f"PageRank (damping {args.damping:g})", scores, "Score", args.top
    )
    return [("pagerank", table)], _exit_code("pagerank", scores)


def _cmd_hits(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import ranking

    ranking.check_stopping(args.tol, args.max_iter)
    graph = _load_graph(args)
    authority, hub = ranking.hits(graph, tol=args.tol, max_iter=args.max_iter)
    tables = [
        ("hits-authority", _score_table("HITS authority scores", authority, "Authority", args.top)),
        ("hits-hub", _score_table("HITS hub scores", hub, "Hub", args.top)),
    ]
    return tables, _exit_code("hits", authority)


def _cmd_influence(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import formats, ranking

    _check_matrix_alone(args)
    ranking.check_stopping(args.tol, args.max_iter)
    if args.matrix is not None:
        matrix = formats.read_journal_matrix(args.matrix)
    else:
        if args.cite_year is None:
            raise _UsageError(
                "citenet influence: give --matrix, or graph inputs with --cite-year"
            )
        years = _option_value(args, "--source-years", _year_range)
        window = TimeWindow(args.cite_year, years) if years else TimeWindow.two_year(args.cite_year)
        matrix = aggregate_to_journal_matrix(_load_graph(args), window)
        if matrix.dropped:
            _warn(["dropped journals without window publications: " + ", ".join(matrix.dropped)])
    if args.zero_diagonal:
        matrix = matrix.without_self_citations()
    if args.prune_nonreferencing:
        matrix, pruned = matrix.without_nonreferencing()
        if pruned:
            _warn([f"pruned journals giving no references: {', '.join(pruned)}"])
        if matrix.n_journals == 0:
            raise DataError("no journals left after pruning non-referencing ones")
    result = ranking.influence_metrics(
        matrix, tol=args.tol, max_iter=args.max_iter, normalization=args.normalization
    )
    pubs = dict(zip(matrix.journals, matrix.pubs.tolist()))
    table = _ranked_table(
        "Journal influence measures",
        ("Journal", "Weight", "Per Publication", "Pubs", "Total Influence"),
        ("s", "g", "g", "d", "g"),
        (
            (journal, weight, result.per_publication[journal], pubs[journal], result.total[journal])
            for journal, weight in result.weights.ranked()
        ),
        summary=_solver_summary(result),
    )
    return [("influence", table)], _exit_code("influence weights", result)


def _cmd_total_cites(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import concentration, formats, metrics

    _check_matrix_alone(args)
    if args.matrix is not None:
        matrix = formats.read_journal_matrix(args.matrix)
        counts = dict(zip(matrix.journals, matrix.citation_totals().tolist()))
        subtitle = "journal matrix window"
    else:
        if args.cite_year is None:
            raise _UsageError("citenet total-cites: --cite-year is required with a graph source")
        counts = metrics.journal_cite_counts(_load_graph(args), args.cite_year)
        subtitle = f"references made in {args.cite_year}"
    if args.journal:
        if args.journal not in counts:
            raise DataError(f"unknown journal {args.journal!r}")
        counts = {args.journal: counts[args.journal]}
    table = _ranked_table(
        f"Total cites ({subtitle})", ("Journal", "Total Cites"), ("s", "d"),
        concentration.RankedCounts.from_counts(counts).items,
    )
    return [("total-cites", table)], EXIT_OK


def _cmd_impact_factor(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import concentration, metrics

    doc_types = _option_value(
        args, "--doc-types", lambda text: [DocType(t.strip()) for t in text.split(",") if t.strip()]
    )
    graph = _load_graph(args)
    if args.journal:
        value = metrics.impact_factor_from_graph(graph, args.journal, args.cite_year, doc_types)
        values, excluded = {args.journal: value}, ()
    else:
        values, excluded = metrics.impact_factors(graph, args.cite_year, doc_types)
    footnotes = ()
    if excluded:
        footnotes = (
            "excluded (no items in the two-year window): " + ", ".join(excluded),
        )
    table = _ranked_table(
        f"Two-year impact factor for {args.cite_year}", ("Journal", "Impact Factor"), ("s", "f"),
        concentration.RankedCounts.from_counts(values).items,
        footnotes=footnotes,
    )
    return [("impact-factor", table)], EXIT_OK


def _cmd_h_index(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import formats, metrics
    from .reports import StudyTable

    profile, warnings = formats.read_profile(args.profile, args.strict)
    _warn(warnings)
    summary = metrics.profile_summary(profile)
    table = StudyTable(
        title="Citation profile summary",
        columns=("Publications", "H-Index", "Max Cites", "Cites Range", "Total Cites (h-core)"),
        formats=("d", "d", "d", "d", "d"),
        rows=((len(profile), summary.h_index, summary.max_cites, summary.cites_range,
               summary.total_cites),),
        footnotes=("Cites range is max minus min over the h most-cited publications.",),
    )
    return [("h-index", table)], EXIT_OK


def _cmd_bradford(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import concentration
    from .reports import StudyTable

    targets = _option_value(args, "--targets", lambda text: [float(t) for t in text.split(",")])
    graph = _load_graph(args)
    ranked = _ranked_counts(graph, args.by, args.cite_year)
    partition = concentration.bradford_partition(ranked, k=args.zones, targets=targets)
    rows = tuple(
        (i, zone.journal_count, zone.item_count)
        for i, zone in enumerate(partition.zones, 1)
    )
    table = StudyTable(
        title=f"Bradford zones by {args.by} ({args.cite_year})",
        columns=("Zone", "Journals", "Items"),
        formats=("d", "d", "d"),
        rows=rows,
        summary=(("Zone-size multiplier", partition.multiplier),),
    )
    return [("bradford", table)], EXIT_OK


def _cmd_share_curve(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import concentration
    from .reports import StudyTable

    graph = _load_graph(args)
    ranked = _ranked_counts(graph, args.by, args.cite_year)
    curve = concentration.share_curve(ranked)
    summary = []
    for share in args.share:
        summary.append(
            (f"Journals covering {share:g} of counts",
             concentration.journals_for_share(curve, share))
        )
    for threshold in args.threshold:
        summary.append(
            (f"Journals with count >= {threshold}",
             concentration.count_above_threshold(ranked, threshold))
        )
    table = StudyTable(
        title=f"Cumulative share of {args.by} ({args.cite_year})",
        columns=("Top Journals", "Cumulative Share"),
        formats=("d", "g"),
        rows=tuple(curve.points),
        summary=tuple(summary),
    )
    return [("share-curve", table)], EXIT_OK


def _cmd_stability(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import concentration
    from .reports import StudyTable

    graph = _load_graph(args)
    ranked_a = _ranked_counts(graph, args.by, args.cite_year)
    ranked_b = _ranked_counts(graph, args.by, args.cite_year_b)
    overlap = concentration.stability_overlap(ranked_a, ranked_b, args.top)
    table = StudyTable(
        title=(
            f"Top-{args.top} overlap by {args.by}: "
            f"{args.cite_year} vs {args.cite_year_b}"
        ),
        columns=("Top", "Overlap"),
        formats=("d", "d"),
        rows=((args.top, overlap),),
    )
    return [("stability", table)], EXIT_OK


def _cmd_study_sample(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import study
    from .reports import StudyTable

    docs = _author_docs(_load_graph(args), args.author)
    sample = study.stratified_every_kth(docs, args.every, seed=args.seed)
    positions = {d.id: i for i, d in enumerate(docs, 1)}
    table = StudyTable(
        title=f"Every-{args.every} sample for {args.author}",
        columns=("Position", "Id", "Venue", "Year", "Cites"),
        formats=("d", "s", "s", "d", "d"),
        rows=tuple((positions[d.id], d.id, d.venue, d.year, d.cites) for d in sample),
    )
    return [("study-sample", table)], EXIT_OK


def _study_samples(args) -> dict[str, list]:
    from . import study

    graph = _load_graph(args)
    return {
        author: study.stratified_every_kth(_author_docs(graph, author), args.every)
        for author in args.author
    }


def _resolved_samples(args) -> dict[str, list]:
    from . import formats, study

    samples = _study_samples(args)
    records, warnings = formats.read_rank_records(args.ranks, args.strict)
    _warn(warnings)
    # One call indexes the records once for every subject's documents.
    pairs = iter(study.resolve_rank_records(
        [doc for sample in samples.values() for doc in sample], records
    ))
    return {author: list(islice(pairs, len(sample))) for author, sample in samples.items()}


def _cmd_study_rank_buckets(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import study

    table = study.rank_bucket_table(_resolved_samples(args), args.measure)
    return [(f"study-rank-buckets-{args.measure}", table)], EXIT_OK


def _cmd_study_tc_vs_if(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import study

    table = study.tc_vs_if_comparison(_resolved_samples(args))
    return [("study-tc-vs-if", table)], EXIT_OK


def _cmd_study_authorship(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import study

    if args.reviews_only:
        graph = _load_graph(args)
        docs_by_subject = {author: _author_docs(graph, author) for author in args.author}
        name = "study-authorship-reviews"
    else:
        docs_by_subject = _study_samples(args)
        name = "study-authorship"
    table = study.authorship_table(
        docs_by_subject,
        {author: author for author in args.author},
        reviews_only=args.reviews_only,
    )
    return [(name, table)], EXIT_OK


def _cmd_correlate(args) -> tuple[list[tuple[str, StudyTable]], int]:
    from . import formats, study
    from .reports import StudyTable

    (x_col, y_col, xy), warnings = formats.read_xy(args.data, args.x_col, args.y_col, args.strict)
    _warn(warnings)
    xs, ys = [x for x, _ in xy], [y for _, y in xy]
    value = study.rank_correlation(xs, ys, method=args.method)
    table = StudyTable(
        title=f"{args.method.capitalize()} correlation of {x_col} vs {y_col}",
        columns=("Method", "Pairs", "Coefficient"),
        formats=("s", "d", "g"),
        rows=((args.method, len(xs), value),),
    )
    return [("correlate", table)], EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    # No command calls a BLAS routine (ranking._dot reduces with np.add.reduce), and
    # OpenBLAS's thread pool costs ~50 ms to start and ~13 ms at exit. A caller's value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tables, code = args.func(args)
        _emit(tables, args)
        return code
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (CitenetError, OSError, ValueError) as exc:
        print(f"citenet: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
