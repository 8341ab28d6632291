"""Output checker: compares citenet's reports with the ground truth.

Every pass is checked. A command fails its check when its reports are
missing, disagree with the ground-truth sidecar written by the corpus
generator, break a documented invariant (PageRank sums to 1 with every
score at least (1-d)/N; HITS vectors are unit vectors), or are not
byte-identical to the same command's reports from the first pass.
Stderr is never inspected: warning text is free to change.

Reports of one command that are byte-identical to reports already
checked get the same verdict without being parsed again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

DAMPING = 0.85


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ranked(counts: dict[str, int], top: int) -> set[str]:
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {name for name, _ in order[:top]}


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_pagerank(truth: dict, out: Path, params: dict) -> list[str]:
    problems: list[str] = []
    report = json.loads((out / "pagerank.json").read_text(encoding="utf-8"))
    scores = [row[2] for row in report["rows"]]
    n = truth["docs"]
    _expect(problems, len(scores) == n, f"pagerank: {len(scores)} rows, expected {n}")
    _expect(problems, len({row[1] for row in report["rows"]}) == len(scores),
            "pagerank: duplicate ids")
    _expect(problems, abs(math.fsum(scores) - 1.0) < 1e-9,
            f"pagerank: scores sum to {math.fsum(scores)!r}")
    floor = (1.0 - DAMPING) / n
    _expect(problems, min(scores) >= floor * (1 - 1e-12),
            f"pagerank: minimum score {min(scores)!r} below (1-d)/N = {floor!r}")
    _expect(problems, scores == sorted(scores, reverse=True), "pagerank: not ranked")
    _expect(problems, report["summary"].get("Converged") == "True", "pagerank: not converged")
    return problems


def check_hits(truth: dict, out: Path, params: dict) -> list[str]:
    problems: list[str] = []
    top = params["top"]
    for name, column in (("hits-authority", "Authority"), ("hits-hub", "Hub")):
        scores = [float(row[column]) for row in _rows(out / f"{name}.csv")]
        _expect(problems, len(scores) == top, f"{name}: {len(scores)} rows, expected {top}")
        _expect(problems, all(s >= 0.0 for s in scores), f"{name}: negative score")
        _expect(problems, scores == sorted(scores, reverse=True), f"{name}: not ranked")
        # The top rows of a unit vector hold at most all of its norm.
        _expect(problems, math.fsum(s * s for s in scores) <= 1.0 + 1e-9,
                f"{name}: top-{top} squares exceed the unit norm")
    return problems


def check_total_cites(truth: dict, out: Path, params: dict) -> list[str]:
    got = {row["Journal"]: int(row["Total Cites"]) for row in _rows(out / "total-cites.csv")}
    bad = sorted(j for j in set(got) | set(truth["total_cites"])
                 if got.get(j) != truth["total_cites"].get(j))
    return [f"total-cites: {len(bad)} journals differ, e.g. {bad[:3]}"] if bad else []


def check_impact_factor(truth: dict, out: Path, params: dict) -> list[str]:
    want = {
        j: f"{num / truth['if_denominator'][j]:.3f}"
        for j, num in truth["if_numerator"].items()
        if truth["if_denominator"][j] > 0
    }
    got = {row["Journal"]: row["Impact Factor"] for row in _rows(out / "impact-factor.csv")}
    bad = sorted(j for j in set(got) | set(want) if got.get(j) != want.get(j))
    return [f"impact-factor: {len(bad)} journals differ, e.g. {bad[:3]}"] if bad else []


def check_influence(truth: dict, out: Path, params: dict) -> list[str]:
    problems: list[str] = []
    names = truth["journals"]
    counts = np.array(truth["window_matrix"], dtype=np.float64)
    pubs = np.array(truth["window_pubs"], dtype=np.float64)
    keep = np.flatnonzero(pubs > 0)
    while True:  # prune journals giving no references, to a fixed point
        refs = counts[np.ix_(keep, keep)].sum(axis=1)
        if (refs > 0).all():
            break
        keep = keep[refs > 0]
    c = counts[np.ix_(keep, keep)]
    rows = {row["Journal"]: row for row in _rows(out / "influence.csv")}
    want_names = [names[k] for k in keep]
    _expect(problems, sorted(rows) == sorted(want_names),
            f"influence: {len(rows)} journals reported, expected {len(want_names)}")
    if problems:
        return problems
    w = np.array([float(rows[j]["Weight"]) for j in want_names])
    per_pub = np.array([float(rows[j]["Per Publication"]) for j in want_names])
    refs = c.sum(axis=1)
    received = c.T @ w
    # Pinski-Narin fixed point: weight = weighted citations received / references given.
    residual = float(np.abs(received / refs - w).max())
    _expect(problems, residual < 1e-9, f"influence: fixed-point residual {residual!r}")
    _expect(problems, abs(refs @ w / refs.sum() - 1.0) < 1e-9,
            "influence: weights not normalized to a reference-weighted mean of 1")
    _expect(problems, [int(rows[j]["Pubs"]) for j in want_names] == pubs[keep].astype(int).tolist(),
            "influence: publication counts differ")
    _expect(problems, np.allclose(per_pub, received / pubs[keep], rtol=1e-9, atol=0.0),
            "influence: per-publication influence differs")
    return problems


def _cite_ranking(truth: dict) -> list[int]:
    return sorted(truth["total_cites"].values(), reverse=True)


def check_bradford(truth: dict, out: Path, params: dict) -> list[str]:
    problems: list[str] = []
    zones = _rows(out / "bradford.csv")
    _expect(problems, len(zones) == params["zones"], f"bradford: {len(zones)} zones")
    _expect(problems, all(int(z["Journals"]) >= 1 for z in zones), "bradford: empty zone")
    _expect(problems, sum(int(z["Journals"]) for z in zones) == len(truth["journals"]),
            "bradford: zones do not partition the journals")
    _expect(problems, sum(int(z["Items"]) for z in zones) == sum(_cite_ranking(truth)),
            "bradford: zone items do not add up to the total cites")
    return problems


def check_share_curve(truth: dict, out: Path, params: dict) -> list[str]:
    problems: list[str] = []
    counts = _cite_ranking(truth)
    total = sum(counts)
    points = [(int(r["Top Journals"]), float(r["Cumulative Share"]))
              for r in _rows(out / "share-curve.csv")]
    _expect(problems, [m for m, _ in points] == list(range(1, len(counts) + 1)),
            "share-curve: one point per journal expected")
    _expect(problems, points and abs(points[0][1] - counts[0] / total) < 1e-12,
            "share-curve: first share differs")
    _expect(problems, points and points[-1][1] == 1.0, "share-curve: does not end at 1")
    cum = np.cumsum(counts) / total
    want = [int(np.argmax(cum >= share)) + 1 for share in params["shares"]]
    want += [sum(c >= t for c in counts) for t in params["thresholds"]]
    summary = json.loads((out / "share-curve.json").read_text(encoding="utf-8"))["summary"]
    _expect(problems, list(summary.values()) == want,
            f"share-curve: summary {list(summary.values())}, expected {want}")
    return problems


def check_stability(truth: dict, out: Path, params: dict) -> list[str]:
    top = params["top"]
    want = len(_ranked(truth["total_cites"], top) & _ranked(truth["total_cites_prev"], top))
    got = [int(r["Overlap"]) for r in _rows(out / "stability.csv")]
    return [] if got == [want] else [f"stability: overlap {got}, expected {want}"]


def check_study_sample(truth: dict, out: Path, params: dict) -> list[str]:
    want = truth["study"][params["author"]]["sample_ids"]
    got = [row["Id"] for row in _rows(out / "study-sample.csv")]
    return [] if got == want else ["study sample: sampled ids differ"]


def _per_subject(truth: dict, out: Path, stem: str, columns: dict[str, Callable]) -> list[str]:
    rows = {row["Subject"]: row for row in _rows(out / f"{stem}.csv")}
    subjects = list(truth["study"])
    if sorted(rows) != sorted(subjects):
        return [f"{stem}: subjects differ"]
    bad = [
        (s, column)
        for s in subjects
        for column, expected in columns.items()
        if int(rows[s][column]) != expected(truth["study"][s])
    ]
    return [f"{stem}: {len(bad)} cells differ, e.g. {bad[:3]}"] if bad else []


def check_rank_buckets(truth: dict, out: Path, params: dict) -> list[str]:
    key = f"{params['measure']}_buckets"
    return _per_subject(truth, out, f"study-rank-buckets-{params['measure']}", {
        "Sample Size": lambda t: len(t["sample_ids"]),
        "Top 500": lambda t: t[key][0],
        "Ranked 501-1000": lambda t: t[key][1],
        "Below 1000": lambda t: t[key][2],
    })


def check_tc_vs_if(truth: dict, out: Path, params: dict) -> list[str]:
    return _per_subject(truth, out, "study-tc-vs-if", {
        "Sample Size": lambda t: len(t["sample_ids"]),
        "Indexed": lambda t: t["indexed"],
        "Higher by TC": lambda t: t["higher_by_tc"],
    })


def check_authorship(truth: dict, out: Path, params: dict) -> list[str]:
    if params.get("reviews_only"):
        return _per_subject(truth, out, "study-authorship-reviews", {
            "Reviews": lambda t: t["reviews"],
            "Primary": lambda t: t["reviews_primary"],
        })
    return _per_subject(truth, out, "study-authorship", {
        "Sample Size": lambda t: len(t["sample_ids"]),
        "Primary": lambda t: t["sample_primary"],
    })


def check_h_index(truth: dict, out: Path, params: dict) -> list[str]:
    rows = _rows(out / "h-index.csv")
    want = [truth["rows"]["profile.csv"], truth["profile_h"], truth["profile_max"]]
    got = [[int(r["Publications"]), int(r["H-Index"]), int(r["Max Cites"])] for r in rows]
    return [] if got == [want] else [f"h-index: {got}, expected {want}"]


def check_correlate(truth: dict, out: Path, params: dict) -> list[str]:
    rows = _rows(out / "correlate.csv")
    if len(rows) != 1 or int(rows[0]["Pairs"]) != truth["rows"]["xy.csv"]:
        return ["correlate: wrong pair count"]
    value = float(rows[0]["Coefficient"])
    return [] if abs(value - truth["pearson"]) < 1e-9 else [f"correlate: {value!r}"]


CHECKS: dict[str, Callable[[dict, Path, dict], list[str]]] = {
    "pagerank": check_pagerank,
    "hits": check_hits,
    "total-cites": check_total_cites,
    "impact-factor": check_impact_factor,
    "influence": check_influence,
    "bradford": check_bradford,
    "share-curve": check_share_curve,
    "stability": check_stability,
    "study-sample": check_study_sample,
    "study-rank-buckets": check_rank_buckets,
    "study-tc-vs-if": check_tc_vs_if,
    "study-authorship": check_authorship,
    "h-index": check_h_index,
    "correlate": check_correlate,
}


class Checker:
    """Checks one command's reports after each pass."""

    def __init__(self, truth: dict):
        self.truth = truth
        self._first: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def check(self, cmd, out: Path) -> list[str]:
        """Problems with the reports ``cmd`` wrote under ``out``."""
        digest = hashlib.sha256()
        for stem in cmd.stems:
            paths = sorted(out.glob(f"{stem}.*"))
            if not paths:
                return [f"{cmd.label}: no {stem} report written"]
            for path in paths:
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        key = digest.hexdigest()
        problems = []
        if self._first.setdefault(cmd.label, key) != key:
            problems.append(f"{cmd.label}: reports differ from the first pass")
        if key not in self._verdicts:
            try:
                self._verdicts[key] = CHECKS[cmd.check](self.truth, out, cmd.params)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                self._verdicts[key] = [f"{cmd.label}: unreadable report ({exc!r})"]
        return problems + self._verdicts[key]


def count_failures(checker: Checker, commands, run_problems: dict[str, list[str]],
                   out: Path) -> int:
    """Check every command of a pass and report each failure on stderr.

    A command with problems from running it (``run_problems``, such as a
    non-zero exit) fails without its reports being checked.
    """
    failures = 0
    for cmd in commands:
        problems = run_problems[cmd.label] or checker.check(cmd, out)
        if problems:
            failures += 1
            for problem in problems:
                print(f"bench: FAILED {cmd.label}: {problem}", file=sys.stderr)
    return failures
