"""Batch command-line surface tying the analysis modules together.

Every subcommand reads the CSV formats documented in ``formats``, runs
one analysis, and emits a deterministic report (CSV + aligned text,
JSON with ``--json``) either to ``--out-dir`` or stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Sequence
from pathlib import Path

from . import concentration, formats, metrics, ranking, reports, study
from .errors import CitenetError, DataError
from .graph import CitationGraph, DocType, TimeWindow, aggregate_to_journal_matrix
from .metrics import normalize_author
from .study import StudyTable

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
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return number


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, help="directory for report files")
    parser.add_argument("--json", action="store_true", help="also emit JSON")
    parser.add_argument("--strict", action="store_true", help="abort on any malformed row")


def _corpus_options(parser: argparse.ArgumentParser, edges: bool = True, docs: bool = True) -> None:
    if edges:
        parser.add_argument("--edges", type=Path, help="edge-list CSV")
    if docs:
        parser.add_argument("--docs", type=Path, help="document metadata CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="citenet", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("pagerank", help="random-surfer document ranking")
    _corpus_options(p)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--top", type=_positive_int, help="limit report to the top N nodes")
    _add_output_options(p)
    p.set_defaults(func=_cmd_pagerank)

    p = commands.add_parser("hits", help="hub and authority scores")
    _corpus_options(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--top", type=_positive_int)
    _add_output_options(p)
    p.set_defaults(func=_cmd_hits)

    p = commands.add_parser("influence", help="journal influence measures")
    p.add_argument("--matrix", type=Path, help="journal matrix CSV")
    _corpus_options(p)
    p.add_argument("--cite-year", type=int,
                   help="aggregate graph inputs over this citing year instead")
    p.add_argument("--source-years", metavar="A:B",
                   help="inclusive cited-year range (default: the two preceding years)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=1000)
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
    _add_output_options(p)
    p.set_defaults(func=_cmd_influence)

    p = commands.add_parser("total-cites", help="raw citations received per journal")
    _corpus_options(p)
    p.add_argument("--matrix", type=Path, help="journal matrix CSV (alternative source)")
    p.add_argument("--cite-year", type=int, help="citing year (graph source)")
    p.add_argument("--journal", help="restrict to one journal")
    _add_output_options(p)
    p.set_defaults(func=_cmd_total_cites)

    p = commands.add_parser("impact-factor", help="two-year impact factors")
    _corpus_options(p)
    p.add_argument("--cite-year", type=int, required=True)
    p.add_argument("--journal", help="restrict to one journal")
    p.add_argument(
        "--doc-types",
        help="comma-separated doc types to count (default: all types)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_impact_factor)

    p = commands.add_parser("h-index", help="h-index of a citation profile")
    p.add_argument("--profile", type=Path, required=True, help="citation profile CSV")
    _add_output_options(p)
    p.set_defaults(func=_cmd_h_index)

    p = commands.add_parser("bradford", help="equal-yield zone partition of journals")
    _corpus_options(p)
    p.add_argument("--cite-year", type=int, required=True)
    p.add_argument("--by", choices=("cites", "articles", "references"), default="cites")
    p.add_argument("--zones", type=_positive_int, default=3)
    p.add_argument("--targets", help="comma-separated cumulative item targets")
    _add_output_options(p)
    p.set_defaults(func=_cmd_bradford)

    p = commands.add_parser("share-curve", help="cumulative concentration curve")
    _corpus_options(p)
    p.add_argument("--cite-year", type=int, required=True)
    p.add_argument("--by", choices=("cites", "articles", "references"), default="cites")
    p.add_argument(
        "--share",
        type=float,
        action="append",
        default=[],
        help="report how many journals reach this share (repeatable)",
    )
    p.add_argument("--threshold", type=int, action="append", default=[],
                   help="report how many journals have counts >= this (repeatable)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_share_curve)

    p = commands.add_parser("stability", help="top-N overlap between two years")
    _corpus_options(p)
    p.add_argument("--cite-year", type=int, required=True)
    p.add_argument("--cite-year-b", type=int, required=True)
    p.add_argument("--by", choices=("cites", "articles", "references"), default="cites")
    p.add_argument("--top", type=_positive_int, required=True)
    _add_output_options(p)
    p.set_defaults(func=_cmd_stability)

    p = commands.add_parser("study", help="validation-study tables")
    study_commands = p.add_subparsers(dest="study_command", required=True)

    sp = study_commands.add_parser("sample", help="stratified every-kth sample")
    sp.add_argument("--docs", type=Path, required=True)
    sp.add_argument("--author", required=True)
    sp.add_argument("--every", type=_positive_int, default=3)
    sp.add_argument("--seed", type=int, help="randomize the starting offset")
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_study_sample)

    sp = study_commands.add_parser("rank-buckets", help="journal rank-bucket table")
    sp.add_argument("--docs", type=Path, required=True)
    sp.add_argument("--ranks", type=Path, required=True)
    sp.add_argument("--author", action="append", required=True)
    sp.add_argument("--measure", choices=("tc", "if"), default="tc")
    sp.add_argument("--every", type=_positive_int, default=3)
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_study_rank_buckets)

    sp = study_commands.add_parser("tc-vs-if", help="TC-rank vs IF-rank comparison")
    sp.add_argument("--docs", type=Path, required=True)
    sp.add_argument("--ranks", type=Path, required=True)
    sp.add_argument("--author", action="append", required=True)
    sp.add_argument("--every", type=_positive_int, default=3)
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_study_tc_vs_if)

    sp = study_commands.add_parser("authorship", help="authorship-position table")
    sp.add_argument("--docs", type=Path, required=True)
    sp.add_argument("--author", action="append", required=True)
    sp.add_argument("--every", type=_positive_int, default=3)
    sp.add_argument(
        "--reviews-only",
        action="store_true",
        help="classify all review articles instead of a sample",
    )
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_study_authorship)

    p = commands.add_parser("correlate", help="pearson/spearman rank correlation")
    p.add_argument("--data", type=Path, required=True, help="CSV with two numeric columns")
    p.add_argument("--x-col", help="x column name (default: first column)")
    p.add_argument("--y-col", help="y column name (default: second column)")
    p.add_argument("--method", choices=("pearson", "spearman"), default="pearson")
    _add_output_options(p)
    p.set_defaults(func=_cmd_correlate)

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _load_graph(args: argparse.Namespace) -> CitationGraph:
    if args.edges is None and args.docs is None:
        raise _UsageError("citenet: --edges and/or --docs is required")
    bundle = formats.load_corpus(edges=args.edges, docs=args.docs, strict=args.strict)
    for note in bundle.warnings:
        print(f"warning: {note}", file=sys.stderr)
    assert bundle.graph is not None
    return bundle.graph


def _score_table(
    title: str, scores: ranking.ScoreVector, value_name: str, top: int | None
) -> StudyTable:
    ranked = scores.ranked()
    if top is not None:
        ranked = ranked[:top]
    return StudyTable(
        title=title,
        columns=("Rank", "Id", value_name),
        formats=("d", "s", "g"),
        rows=tuple((i, node, score) for i, (node, score) in enumerate(ranked, 1)),
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
    print(
        f"warning: {solver} did not converge in {result.iterations} iterations "
        f"(residual {result.residual:g})",
        file=sys.stderr,
    )
    return EXIT_NO_CONVERGENCE


def _ranked_counts(graph: CitationGraph, by: str, year: int) -> concentration.RankedCounts:
    if by == "cites":
        counts = metrics.journal_cite_counts(graph, year)
    elif by == "articles":
        counts = metrics.journal_article_counts(graph, year)
    else:
        counts = metrics.journal_reference_counts(graph, year)
    return concentration.RankedCounts.from_counts(counts)


def _author_docs(graph: CitationGraph, author: str) -> list:
    wanted = normalize_author(author)
    docs = [
        d
        for d in graph.metadata.values()
        if any(normalize_author(a) == wanted for a in d.authors)
    ]
    if not docs:
        raise DataError(f"no documents authored by {author!r}")
    return sorted(docs, key=lambda d: (-d.cites, d.id))


def _emit(
    tables: list[tuple[str, StudyTable]], args: argparse.Namespace
) -> None:
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
    graph = _load_graph(args)
    params = ranking.PageRankParams(damping=args.damping, tol=args.tol, max_iter=args.max_iter)
    scores = ranking.pagerank(graph, params)
    table = _score_table(
        f"PageRank (damping {args.damping:g})", scores, "Score", args.top
    )
    return [("pagerank", table)], _exit_code("pagerank", scores)


def _cmd_hits(args) -> tuple[list[tuple[str, StudyTable]], int]:
    graph = _load_graph(args)
    authority, hub = ranking.hits(graph, tol=args.tol, max_iter=args.max_iter)
    tables = [
        ("hits-authority", _score_table("HITS authority scores", authority, "Authority", args.top)),
        ("hits-hub", _score_table("HITS hub scores", hub, "Hub", args.top)),
    ]
    return tables, _exit_code("hits", authority)


def _cmd_influence(args) -> tuple[list[tuple[str, StudyTable]], int]:
    if args.matrix is not None:
        matrix = formats.read_journal_matrix(args.matrix)
    else:
        if args.cite_year is None:
            raise _UsageError(
                "citenet influence: give --matrix, or graph inputs with --cite-year"
            )
        graph = _load_graph(args)
        if args.source_years:
            try:
                first, last = (int(y) for y in args.source_years.split(":"))
            except ValueError:
                raise _UsageError(
                    f"citenet influence: bad --source-years {args.source_years!r}"
                ) from None
            window = TimeWindow(args.cite_year, (first, last))
        else:
            window = TimeWindow.two_year(args.cite_year)
        matrix = aggregate_to_journal_matrix(graph, window)
        if matrix.dropped:
            print(
                "warning: dropped journals without window publications: "
                + ", ".join(matrix.dropped),
                file=sys.stderr,
            )
    if args.zero_diagonal:
        matrix = matrix.without_self_citations()
    if args.prune_nonreferencing:
        # Removing a journal also removes references to it, which can
        # zero another journal's row, so prune to a fixed point.
        pruned: list[str] = []
        while True:
            refs = matrix.reference_totals()
            silent = [j for j, r in zip(matrix.journals, refs) if r == 0]
            if not silent:
                break
            pruned.extend(silent)
            matrix = matrix.restrict_to(
                [j for j in matrix.journals if j not in set(silent)]
            )
        if pruned:
            print(
                f"warning: pruned journals giving no references: {', '.join(pruned)}",
                file=sys.stderr,
            )
        if matrix.n_journals == 0:
            raise DataError("no journals left after pruning non-referencing ones")
    result = ranking.influence_metrics(
        matrix, tol=args.tol, max_iter=args.max_iter, normalization=args.normalization
    )
    pubs = dict(zip(matrix.journals, matrix.pubs.tolist()))
    rows = tuple(
        (i, journal, weight, result.per_publication[journal], pubs[journal], result.total[journal])
        for i, (journal, weight) in enumerate(result.weights.ranked(), 1)
    )
    table = StudyTable(
        title="Journal influence measures",
        columns=("Rank", "Journal", "Weight", "Per Publication", "Pubs", "Total Influence"),
        formats=("d", "s", "g", "g", "d", "g"),
        rows=rows,
        summary=_solver_summary(result),
    )
    return [("influence", table)], _exit_code("influence weights", result)


def _cmd_total_cites(args) -> tuple[list[tuple[str, StudyTable]], int]:
    if args.matrix is not None:
        matrix = formats.read_journal_matrix(args.matrix)
        journals = [args.journal] if args.journal else list(matrix.journals)
        counts = {j: metrics.total_cites(matrix, j) for j in journals}
        subtitle = "journal matrix window"
    else:
        if args.cite_year is None:
            raise _UsageError("citenet total-cites: --cite-year is required with a graph source")
        graph = _load_graph(args)
        window = TimeWindow(args.cite_year, (args.cite_year, args.cite_year))
        journals = [args.journal] if args.journal else list(graph.journals())
        counts = {j: metrics.total_cites(graph, j, window) for j in journals}
        subtitle = f"references made in {args.cite_year}"
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    table = StudyTable(
        title=f"Total cites ({subtitle})",
        columns=("Rank", "Journal", "Total Cites"),
        formats=("d", "s", "d"),
        rows=tuple((i, j, c) for i, (j, c) in enumerate(ranked, 1)),
    )
    return [("total-cites", table)], EXIT_OK


def _cmd_impact_factor(args) -> tuple[list[tuple[str, StudyTable]], int]:
    graph = _load_graph(args)
    doc_types = None
    if args.doc_types:
        doc_types = [DocType(t.strip()) for t in args.doc_types.split(",") if t.strip()]
    journals = [args.journal] if args.journal else list(graph.journals())
    values: dict[str, float] = {}
    excluded: list[str] = []
    for journal in journals:
        try:
            values[journal] = metrics.impact_factor_from_graph(
                graph, journal, args.cite_year, doc_types=doc_types
            )
        except metrics.UndefinedMetricError:
            if args.journal:
                raise
            excluded.append(journal)
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    footnotes = ()
    if excluded:
        footnotes = (
            "excluded (no items in the two-year window): " + ", ".join(sorted(excluded)),
        )
    table = StudyTable(
        title=f"Two-year impact factor for {args.cite_year}",
        columns=("Rank", "Journal", "Impact Factor"),
        formats=("d", "s", "f"),
        rows=tuple((i, j, v) for i, (j, v) in enumerate(ranked, 1)),
        footnotes=footnotes,
    )
    return [("impact-factor", table)], EXIT_OK


def _cmd_h_index(args) -> tuple[list[tuple[str, StudyTable]], int]:
    profile, warnings = formats.read_profile(args.profile, args.strict)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
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
    graph = _load_graph(args)
    ranked = _ranked_counts(graph, args.by, args.cite_year)
    targets = None
    if args.targets:
        targets = [float(t) for t in args.targets.split(",")]
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
    bundle = formats.load_corpus(docs=args.docs, strict=args.strict)
    for note in bundle.warnings:
        print(f"warning: {note}", file=sys.stderr)
    docs = _author_docs(bundle.graph, args.author)
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
    bundle = formats.load_corpus(docs=args.docs, strict=args.strict)
    for note in bundle.warnings:
        print(f"warning: {note}", file=sys.stderr)
    graph = bundle.graph
    return {
        author: study.stratified_every_kth(_author_docs(graph, author), args.every)
        for author in args.author
    }


def _resolved_samples(args) -> dict[str, list]:
    samples = _study_samples(args)
    records, warnings = formats.read_rank_records(args.ranks, args.strict)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    return {
        author: study.resolve_rank_records(sample, records)
        for author, sample in samples.items()
    }


def _cmd_study_rank_buckets(args) -> tuple[list[tuple[str, StudyTable]], int]:
    table = study.rank_bucket_table(_resolved_samples(args), args.measure)
    return [(f"study-rank-buckets-{args.measure}", table)], EXIT_OK


def _cmd_study_tc_vs_if(args) -> tuple[list[tuple[str, StudyTable]], int]:
    table = study.tc_vs_if_comparison(_resolved_samples(args))
    return [("study-tc-vs-if", table)], EXIT_OK


def _cmd_study_authorship(args) -> tuple[list[tuple[str, StudyTable]], int]:
    bundle = formats.load_corpus(docs=args.docs, strict=args.strict)
    for note in bundle.warnings:
        print(f"warning: {note}", file=sys.stderr)
    graph = bundle.graph
    if args.reviews_only:
        docs_by_subject = {author: _author_docs(graph, author) for author in args.author}
        name = "study-authorship-reviews"
    else:
        docs_by_subject = {
            author: study.stratified_every_kth(_author_docs(graph, author), args.every)
            for author in args.author
        }
        name = "study-authorship"
    table = study.authorship_table(
        docs_by_subject,
        {author: author for author in args.author},
        reviews_only=args.reviews_only,
    )
    return [(name, table)], EXIT_OK


def _cmd_correlate(args) -> tuple[list[tuple[str, StudyTable]], int]:
    with open(args.data, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2:
        raise DataError(f"{args.data}: need a header row with at least two columns")
    header = rows[0]
    x_col = args.x_col or header[0]
    y_col = args.y_col or header[1]
    try:
        xi, yi = header.index(x_col), header.index(y_col)
    except ValueError as exc:
        raise DataError(f"{args.data}: {exc}") from None
    xs: list[float] = []
    ys: list[float] = []
    for lineno, row in enumerate(rows[1:], 2):
        if not row or all(not cell for cell in row):
            continue
        try:
            xs.append(float(row[xi]))
            ys.append(float(row[yi]))
        except (ValueError, IndexError):
            raise DataError(f"{args.data}:{lineno}: bad numeric row {row!r}") from None
    value = study.rank_correlation(xs, ys, method=args.method)
    table = StudyTable(
        title=f"{args.method.capitalize()} correlation of {x_col} vs {y_col}",
        columns=("Method", "Pairs", "Coefficient"),
        formats=("s", "d", "g"),
        rows=((args.method, len(xs), value),),
    )
    return [("correlate", table)], EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
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
