"""Traced in-process run: per-layer metrics from spans.

The workload's commands run through ``citenet.cli.main`` in this
process. Untraced and traced passes alternate; a traced pass records a
span (name, start, end, parent, run id) around each call into a citenet
module's public functions, by wrapping them from here. Nothing under
``src/`` is instrumented. The spans stay in memory and are written as
JSON to ``.bench_work/trace-<workload>.json`` when the run ends.

Layers are citenet's modules. A layer's self time is the time of its
spans minus the part covered by their child spans. ``cli.self_s`` is
``cli.main`` time minus the layer spans it calls: the per-journal loops,
the author matching and the argument handling that live in the CLI.
``metrics.normalize_author`` and ``CitationGraph.journals`` are called
per name and per journal from inside other layers and are left
unwrapped, so their time counts toward their caller.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from check import Checker, count_failures
from corpus import generate

LAYERS = ("formats", "graph", "ranking", "metrics", "concentration", "study", "reports", "cli")
SPAN_METRICS = {
    "formats.read_edges_s": ("formats.read_edges",),
    "formats.read_docs_s": ("formats.read_docs",),
    "formats.load_corpus_s": ("formats.load_corpus",),
    "graph.build_graph_s": ("graph.build_graph",),
    "graph.edge_arrays_s": ("graph.edge_arrays",),
    "graph.aggregate_s": ("graph.aggregate",),
    "ranking.pagerank_s": ("ranking.pagerank",),
    "ranking.hits_s": ("ranking.hits",),
    "ranking.influence_s": ("ranking.influence_metrics",),
    "metrics.total_cites_s": ("metrics.total_cites",),
    "metrics.impact_factor_s": ("metrics.impact_factor_from_graph",),
    "metrics.journal_counts_s": ("metrics.journal_cite_counts", "metrics.journal_article_counts",
                                 "metrics.journal_reference_counts"),
    "reports.render_s": ("reports.write_report",),
}
SCORE_TOLERANCE = 1e-9


def _targets(citenet) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point.

    Each is patched where its callers look it up at call time: the
    module attribute for ``module.function`` calls, the importing
    module's global for names imported with ``from``.
    """
    cli, formats, graph, ranking = citenet.cli, citenet.formats, citenet.graph, citenet.ranking
    metrics, concentration, study = citenet.metrics, citenet.concentration, citenet.study
    targets = [
        (formats, "load_corpus", "formats.load_corpus"),
        (formats, "_read_edges_with_lines", "formats.read_edges"),
        (formats, "read_docs", "formats.read_docs"),
        (formats, "read_rank_records", "formats.read_rank_records"),
        (formats, "read_profile", "formats.read_profile"),
        (formats, "read_journal_matrix", "formats.read_journal_matrix"),
        (formats, "build_graph", "graph.build_graph"),
        (graph.CitationGraph, "edge_arrays", "graph.edge_arrays"),
        (cli, "aggregate_to_journal_matrix", "graph.aggregate"),
        (concentration.RankedCounts, "from_counts", "concentration.ranked_counts"),
        (citenet.reports, "write_report", "reports.write_report"),
    ]
    for module, names in (
        (ranking, ("pagerank", "hits", "influence_metrics")),
        (metrics, ("total_cites", "impact_factor_from_graph", "journal_cite_counts",
                   "journal_article_counts", "journal_reference_counts", "profile_summary")),
        (concentration, ("bradford_partition", "share_curve", "journals_for_share",
                         "count_above_threshold", "stability_overlap")),
        (study, ("stratified_every_kth", "resolve_rank_records", "rank_bucket_table",
                 "tc_vs_if_comparison", "authorship_table", "rank_correlation")),
    ):
        layer = module.__name__.rsplit(".", 1)[-1]
        targets += [(module, name, f"{layer}.{name}") for name in names]
    return targets


class Tracer:
    """In-memory span recorder that wraps functions while installed.

    When a wrapped call returns, its result is folded into ``counts``
    and checked at once, inside the caller's span, so that the result is
    freed where it would be without tracing; that work is part of the
    tracing overhead.
    """

    def __init__(self, truth: dict) -> None:
        self.truth = truth
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
        self._observe(name, args, kwargs, result)
        return result

    def install(self, targets: list[tuple[object, str, str]]) -> None:
        for owner, attr, name in targets:
            raw = vars(owner)[attr]
            original = getattr(owner, attr)

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _rows(self, path) -> int:
        return self.truth["rows"][Path(path).name] if path is not None else 0

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        counts = self.counts
        if name == "formats.load_corpus":
            graph = result.graph
            read = sum(self._rows(kwargs.get(k)) for k in ("edges", "docs"))
            counts["formats.rows_read"] += read
            counts["formats.rows_skipped"] += read - graph.n_edges - len(graph.metadata)
            counts["graph.nodes"] = max(counts["graph.nodes"], graph.n_nodes)
            counts["graph.distinct_edges"] = max(counts["graph.distinct_edges"], len(graph.edges))
        elif name in ("formats.read_rank_records", "formats.read_profile"):
            read = self._rows(args[0])
            counts["formats.rows_read"] += read
            counts["formats.rows_skipped"] += read - len(result[0])
        elif name == "ranking.pagerank":
            counts["ranking.pagerank_iters"] += result.iterations
        elif name == "ranking.hits":
            # The reports hold only the top HITS scores; check the full vectors.
            counts["ranking.hits_iters"] += result[0].iterations
            for label, vector in zip(("authority", "hub"), result):
                norm = math.sqrt(math.fsum(v * v for v in vector.values.values()))
                if abs(norm - 1.0) > SCORE_TOLERANCE:
                    self.problems.append(f"hits {label} vector has norm {norm!r}")
        elif name == "ranking.influence_metrics":
            counts["ranking.influence_iters"] += result.iterations
        elif name == "reports.write_report":
            counts["reports.bytes_out"] += sum(p.stat().st_size for p in result)


def _run_command(cli, argv) -> tuple[int, int]:
    """cli.main in-process: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback is a failure to report, not to stop on
            traceback.print_exc()
            code = -1
    text = err.getvalue()
    if code != 0:
        sys.stderr.write(text[-2000:])
    return code, text.count("\n")


def _span_summary(spans: list[list], first: int) -> tuple[dict, dict]:
    """Inclusive time per span name and self time per layer, over the
    spans from index ``first`` on."""
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            covered[parent] += end - start
    by_name: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans[first:], first):
        by_name[name] += end - start
        self_time[name.split(".", 1)[0]] += end - start - covered[index]
    return by_name, self_time


def _pass(cli, commands, tracer: Tracer | None, run: str):
    """One in-process pass: (command seconds, counts, problems by command)."""
    wall = 0.0
    problems: dict[str, list[str]] = {}
    if tracer is not None:
        tracer.counts.clear()
    for cmd in commands:
        if tracer is None:
            begin = time.perf_counter()
            code, _ = _run_command(cli, cmd.argv)
            wall += time.perf_counter() - begin
        else:
            tracer.run_id = f"{run}-{cmd.label}"
            root = len(tracer.spans)
            code, lines = tracer.span("cli.main", _run_command, cli, cmd.argv)
            wall += tracer.spans[root][2] - tracer.spans[root][1]
            tracer.counts["cli.stderr_lines"] += lines
        problems[cmd.label] = [f"exit code {code}"] if code != 0 else []
        if tracer is not None:
            problems[cmd.label] += tracer.problems
            tracer.problems.clear()
    return wall, dict(tracer.counts) if tracer is not None else {}, problems


def journal_scaling(citenet, corpus: Path, cite_year: int) -> tuple[float, int]:
    """Time of the CLI's all-journal total-cites and impact-factor loops at
    2J journals over the time at J, with documents and edges fixed.

    The 2J corpus splits every journal in two by alternating its
    documents, so edges and years are untouched. A ratio near 2 means
    the loops cost O(journals x edges).
    """
    from citenet.errors import UndefinedMetricError
    from citenet.graph import CitationGraph, TimeWindow

    metrics = citenet.metrics
    graph = citenet.formats.load_corpus(edges=corpus / "edges.csv", docs=corpus / "docs.csv").graph
    split = {
        doc_id: replace(doc, venue=f"{doc.venue}-{i % 2}")
        for i, (doc_id, doc) in enumerate(sorted(graph.metadata.items()))
    }
    doubled = CitationGraph(nodes=graph.nodes, edges=graph.edges, metadata=split)
    window = TimeWindow(cite_year, (cite_year, cite_year))

    def loops(g) -> float:
        start = time.perf_counter()
        for journal in g.journals():
            metrics.total_cites(g, journal, window)
        for journal in g.journals():
            try:
                metrics.impact_factor_from_graph(g, journal, cite_year)
            except UndefinedMetricError:
                pass
        return time.perf_counter() - start

    return loops(doubled) / loops(graph), len(graph.journals())


def run_traced(workload, seed: int, seconds: float, run_dir: Path, work: Path, src: Path) -> dict:
    sys.path.insert(0, str(src))
    import citenet.cli

    corpus = run_dir / "corpus"
    truth = generate(workload.spec, seed, corpus)
    out = run_dir / "out"
    commands = workload.commands(corpus, out, truth)
    checker = Checker(truth)
    targets = _targets(citenet)
    tracer = Tracer(truth)
    attempted = failed = 0
    start = time.perf_counter()

    scaling, journals = 0.0, 0
    if workload.name == "journal-panel":
        scaling, journals = journal_scaling(citenet, corpus, truth["cite_year"])

    plain_times: list[float] = []
    traced: list[dict] = []
    # Pass 0 warms imports and caches and is not counted; after it,
    # untraced and traced passes alternate.
    for number in itertools.count():
        tracing = number % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        first_span = len(tracer.spans)
        if tracing:
            tracer.install(targets)
        try:
            wall, counts, problems = _pass(citenet.cli, commands, tracer if tracing else None,
                                           f"{workload.name}-{seed}-pass{number}")
        finally:
            tracer.uninstall()
        attempted += len(commands)
        failed += count_failures(checker, commands, problems, out)
        if tracing:
            by_name, self_time = _span_summary(tracer.spans, first_span)
            traced.append({"wall": wall, "by_name": by_name, "self": self_time, "counts": counts})
        elif number:
            plain_times.append(wall)
        if traced and plain_times and time.perf_counter() - start + wall > seconds:
            break

    spans_path = work / f"trace-{workload.name}.json"
    spans_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "spans": [
            {"name": n, "start": s - start, "end": e - start, "parent": p, "run": r}
            for n, s, e, p, r in tracer.spans
        ],
    }), encoding="utf-8")

    def med(get) -> float:
        return statistics.median(get(t) for t in traced)

    values: dict[str, tuple[float, str]] = {}
    for metric, names in SPAN_METRICS.items():
        values[metric] = (med(lambda t: sum(t["by_name"].get(n, 0.0) for n in names)), "s")
    layer_self = {layer: med(lambda t: t["self"].get(layer, 0.0)) for layer in LAYERS}
    for layer in ("formats", "graph", "ranking", "metrics", "cli"):
        values[f"{layer}.self_s"] = (layer_self[layer], "s")
    # These two layers make no calls into other layers: self time is all of it.
    values["concentration.s"] = (layer_self["concentration"], "s")
    values["study.s"] = (layer_self["study"], "s")
    for name, unit in (("formats.rows_read", "count"), ("formats.rows_skipped", "count"),
                       ("graph.nodes", "count"), ("graph.distinct_edges", "count"),
                       ("ranking.pagerank_iters", "count"), ("ranking.hits_iters", "count"),
                       ("ranking.influence_iters", "count"), ("reports.bytes_out", "bytes"),
                       ("cli.stderr_lines", "count")):
        values[name] = (med(lambda t: t["counts"].get(name, 0.0)), unit)
    values["metrics.journal_scaling"] = (scaling, "ratio")
    traced_s = med(lambda t: t["wall"])
    plain_s = statistics.median(plain_times)
    values["trace.pass_s"] = (traced_s, "s")
    values["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")

    _print_design(workload.name, values, layer_self, len(traced), len(plain_times), journals)
    return {"attempted": attempted, "failed": failed, "metrics": values}


def _print_design(name: str, v: dict, layer_self: dict, n_traced: int, n_plain: int,
                  journals: int) -> None:
    """Report the share of the traced pass each layer takes."""
    pass_s = v["trace.pass_s"][0]
    print(f"{name}: {n_traced} traced and {n_plain} untraced in-process passes; "
          f"traced pass {pass_s:.4f} s, overhead {v['trace.overhead_frac'][0]:+.4f}")
    shares = {layer: value / pass_s for layer, value in layer_self.items()}
    print("self-time share of the traced pass: " + ", ".join(
        f"{layer} {share:.3f}" for layer, share in shares.items()))
    journal_metrics = sum(v[m][0] for m in ("metrics.total_cites_s", "metrics.impact_factor_s",
                                            "metrics.journal_counts_s"))
    if name == "doc-rank":
        core = sum(shares[k] for k in ("formats", "graph", "ranking", "reports"))
        print(f"design: formats+graph+ranking+reports {core:.3f} of the pass; "
              f"journal-metric span time {journal_metrics:.6f} s")
    elif name == "journal-panel":
        print(f"design: metrics+cli {shares['metrics'] + shares['cli']:.3f} of the pass; "
              f"journal_scaling {v['metrics.journal_scaling'][0]:.3f} at J={journals} vs 2J")
    else:
        print(f"design: edge read time {v['formats.read_edges_s'][0]:.6f} s, ranking "
              f"{v['ranking.self_s'][0]:.6f} s, journal-metric span time {journal_metrics:.6f} s")
