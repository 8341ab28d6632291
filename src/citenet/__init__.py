"""Citation-network analytics: link-based ranking measures (PageRank,
hubs/authorities, journal influence weights), classical journal metrics
(total cites, impact factor, h-index), concentration analysis
(Bradford zones, share curves), and a validation-study harness.

``import citenet`` imports none of its submodules. A public name, or a
submodule read as an attribute, imports its module when it is first
read (PEP 562), so ``citenet.cli`` loads only what a command runs.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "cli": (),
    "concentration": (
        "BradfordPartition", "BradfordZone", "RankedCounts", "ShareCurve", "bradford_partition",
        "count_above_threshold", "journals_for_share", "share_curve", "stability_overlap",
    ),
    "errors": ("CitenetError", "DataError", "UndefinedMetricError"),
    "formats": ("CorpusBundle", "load_corpus", "write_edges"),
    "graph": (
        "CitationGraph", "DocType", "DocumentRecord", "JournalCitationMatrix", "TimeWindow",
        "aggregate_to_journal_matrix", "build_graph",
    ),
    "metrics": (
        "CitationProfile", "ImpactFactorInput", "ProfileSummary", "h_index", "impact_factor",
        "impact_factor_from_graph", "impact_factors", "journal_article_counts",
        "journal_cite_counts", "journal_reference_counts", "profile_summary", "total_cites",
    ),
    "ranking": (
        "InfluenceResult", "PageRankParams", "ScoreVector", "hits", "influence_metrics",
        "influence_weights", "pagerank", "total_influence",
    ),
    "reports": ("StudyTable",),
    "study": (
        "AuthorshipClass", "RankBucket", "RankRecord", "authorship_position",
        "authorship_table", "bucket", "rank_bucket_table", "rank_correlation",
        "resolve_rank_records", "stratified_every_kth", "tc_vs_if_comparison",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
