"""Recursive link-based authority measures: PageRank, hubs/authorities,
and journal influence weights.

All three solvers share the same shape: a node's score depends on the
scores of the nodes that link to it, so a citation from a heavily cited
source counts for more than one from an obscure source. Each is a step
function run by one power-iteration kernel (``_power_iterate``, which
also validates ``tol`` and ``max_iter``) over immutable inputs with a
fixed reduction order, so identical inputs produce bit-identical
outputs. Non-convergence is flagged on the result (with the final
residual) rather than raised, so partial results stay inspectable.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple, TypeVar

from ._numpy import np
from .errors import DataError
from .graph import CitationGraph, JournalCitationMatrix

_NORMALIZATIONS = ("reference_mean", "unit_mean")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product via a ufunc reduction: the summation order is fixed
    by the array layout, unlike BLAS dot under multithreading."""
    return float(np.add.reduce(a * b))


def _l2(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def check_stopping(tol: float, max_iter: int) -> None:
    """Reject stopping rules under which no solver can stop properly."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DataError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")


_State = TypeVar("_State")


def _power_iterate(
    step: Callable[[_State], tuple[_State, float]], x0: _State, tol: float, max_iter: int
) -> tuple[_State, int, float, bool]:
    """Apply ``step`` from ``x0`` until its residual drops below ``tol``.

    ``step(x)`` returns the next iterate and the residual of the move.
    Returns (last iterate, iterations run, last residual, converged).
    """
    check_stopping(tol, max_iter)
    x = x0
    for iterations in range(1, max_iter + 1):
        x, residual = step(x)
        if residual < tol:
            return x, iterations, residual, True
    return x, max_iter, residual, False


@dataclass(frozen=True)
class PageRankParams:
    """PageRank solver parameters.

    ``damping`` is the probability of following a link rather than
    jumping to a uniformly random node; 0.85 is the conventional choice.
    Convergence is declared when the L1 change per iteration drops
    below ``tol``.
    """

    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise DataError(f"damping must be in (0, 1), got {self.damping}")
        check_stopping(self.tol, self.max_iter)


@dataclass(frozen=True)
class ScoreVector:
    """Metric values keyed by node or journal id.

    ``ranked()`` gives the deterministic descending view with ties broken
    lexicographically by id. Solver results carry convergence metadata;
    plain arithmetic results keep the defaults.
    """

    values: Mapping[str, float]
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True

    def __post_init__(self) -> None:
        for key, value in self.values.items():
            if not math.isfinite(value):
                raise DataError(f"non-finite score for {key!r}: {value}")

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def ranked(self) -> list[tuple[str, float]]:
        """(id, score) pairs, best first; ties broken by id ascending."""
        return sorted(self.values.items(), key=lambda kv: (-kv[1], kv[0]))


def _scores(ids: Sequence[str], x: np.ndarray, *trace) -> ScoreVector:
    """A solver's iterate keyed by id, carrying its (iterations,
    residual, converged) trace from ``_power_iterate``."""
    return ScoreVector(dict(zip(ids, x.tolist())), *trace)


class InfluenceResult(NamedTuple):
    """The three journal influence measures for one matrix.

    ``total`` is ``per_publication`` times the publication count,
    exactly, by construction.
    """

    weights: ScoreVector
    per_publication: ScoreVector
    total: ScoreVector
    iterations: int
    residual: float
    converged: bool


def pagerank(graph: CitationGraph, params: PageRankParams | None = None) -> ScoreVector:
    """Stationary distribution of the damped random-surfer walk.

    Iterates r = (1-d)/N + d * (M r + dangling/N) where M follows
    outlinks proportionally to multiplicity and nodes without outlinks
    (dead ends) spread their mass uniformly over all nodes. The result
    sums to 1 and every score is at least (1-d)/N.
    """
    if params is None:
        params = PageRankParams()
    n = graph.n_nodes
    if n == 0:
        raise DataError("pagerank needs a nonempty graph")

    src, dst, mult = graph.edge_arrays()
    out = np.bincount(src, weights=mult, minlength=n)
    dangling = out == 0.0
    # Per-edge transition probability from its source node.
    weight = mult / out[src] if len(src) else np.zeros(0)
    d = params.damping

    def step(rank: np.ndarray) -> tuple[np.ndarray, float]:
        flow = np.bincount(dst, weights=rank[src] * weight, minlength=n)
        dangling_mass = float(rank[dangling].sum())
        new_rank = (1.0 - d) / n + d * (flow + dangling_mass / n)
        return new_rank, float(np.abs(new_rank - rank).sum())

    solved = _power_iterate(step, np.full(n, 1.0 / n), params.tol, params.max_iter)
    return _scores(graph.nodes, *solved)


def hits(
    graph: CitationGraph, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[ScoreVector, ScoreVector]:
    """Hub and authority scores by alternating iteration.

    Authorities accumulate from the hubs pointing at them (a <- A^T h)
    and hubs from the authorities they point to (h <- A a), with L2
    normalization after each half-step, until the change in both unit
    vectors falls below ``tol``. Returns (authority, hub). A node with
    no inlinks has authority exactly 0; one with no outlinks has hub
    exactly 0.
    """
    if graph.n_edges == 0:
        raise DataError("hits needs a graph with at least one edge")
    n = graph.n_nodes
    src, dst, mult = graph.edge_arrays()
    fmult = mult.astype(np.float64)

    def step(state: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        auth, hub = state
        new_auth = np.bincount(dst, weights=fmult * hub[src], minlength=n)
        new_auth /= _l2(new_auth)
        new_hub = np.bincount(src, weights=fmult * new_auth[dst], minlength=n)
        new_hub /= _l2(new_hub)
        return (new_auth, new_hub), max(_l2(new_auth - auth), _l2(new_hub - hub))

    (auth, hub), *trace = _power_iterate(
        step, (np.zeros(n), np.full(n, 1.0 / math.sqrt(n))), tol, max_iter
    )
    return _scores(graph.nodes, auth, *trace), _scores(graph.nodes, hub, *trace)


def _weighted_received(matrix: JournalCitationMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The map w -> C^T w (column sums of C weighted by the citing
    journal) with a fixed accumulation order; C is scanned once, not on
    every call."""
    rows, cols = matrix.counts.nonzero()
    counts = matrix.counts[rows, cols].astype(np.float64)
    return lambda w: np.bincount(cols, weights=counts * w[rows], minlength=matrix.n_journals)


def influence_weights(
    matrix: JournalCitationMatrix,
    tol: float = 1e-12,
    max_iter: int = 1000,
    normalization: str = "reference_mean",
) -> ScoreVector:
    """Size-independent journal influence weights.

    Solves the fixed point w_j = (sum_i w_i * C[i][j]) / r_j, where
    r_j is the number of references journal j gives: weighted citations
    received over references given, with the weighting defined
    recursively by the weights themselves. The iterate is averaged with
    its predecessor each step ((w + F(w)) / 2), which leaves the fixed
    point unchanged but also converges on cyclic citation structures
    where the plain map oscillates.

    Normalization: ``reference_mean`` (default) scales so the
    reference-weighted mean weight is 1 (sum_j r_j w_j = sum_j r_j), so
    a "neutral" journal has weight 1; ``unit_mean`` makes the plain mean
    1 instead. Scaling the whole count matrix leaves the result
    unchanged.

    Journals that give no references (r_j = 0) leave the ratio undefined
    and must be pruned first (see
    ``JournalCitationMatrix.without_nonreferencing``); they are reported
    in the error.
    """
    if normalization not in _NORMALIZATIONS:
        raise DataError(f"unknown normalization {normalization!r}; use one of {_NORMALIZATIONS}")
    n = matrix.n_journals
    if n == 0:
        raise DataError("influence_weights needs a nonempty matrix")
    refs = matrix.reference_totals().astype(np.float64)
    silent = [j for j, r in zip(matrix.journals, refs) if r == 0.0]
    if silent:
        raise DataError(
            "influence weights are undefined for journals giving no references: "
            + ", ".join(silent)
        )

    def normalize(w: np.ndarray) -> np.ndarray:
        if normalization == "reference_mean":
            return w * (float(np.add.reduce(refs)) / _dot(refs, w))
        return w * (n / float(np.add.reduce(w)))

    received = _weighted_received(matrix)

    def step(w: np.ndarray) -> tuple[np.ndarray, float]:
        fw = received(w) / refs
        residual = float(np.abs(fw - w).max())
        # A converged iterate is returned as is, not averaged once more.
        return (w if residual < tol else normalize(0.5 * (w + fw))), residual

    w, *trace = _power_iterate(step, normalize(np.ones(n)), tol, max_iter)
    return _scores(matrix.journals, normalize(w), *trace)


def total_influence(per_publication: ScoreVector, pubs: Mapping[str, int]) -> ScoreVector:
    """Influence per publication times the number of publications."""
    values = per_publication.values
    if set(values) != set(pubs):
        raise DataError("per-publication scores and publication counts have different keys")
    return ScoreVector(values={j: value * pubs[j] for j, value in values.items()})


def influence_metrics(
    matrix: JournalCitationMatrix,
    tol: float = 1e-12,
    max_iter: int = 1000,
    normalization: str = "reference_mean",
) -> InfluenceResult:
    """All three influence measures (weight, per publication, total).

    The influence per publication of journal j is
    I_j = (sum_i w_i * C[i][j]) / pubs_j, with the weights w of the
    citing journals; the total influence is I_j times pubs_j.
    """
    weights = influence_weights(matrix, tol=tol, max_iter=max_iter, normalization=normalization)
    w = np.array([weights[j] for j in matrix.journals])
    per_pub = _scores(matrix.journals, _weighted_received(matrix)(w) / matrix.pubs)
    pubs = dict(zip(matrix.journals, matrix.pubs.tolist()))
    return InfluenceResult(weights, per_pub, total_influence(per_pub, pubs),
                           weights.iterations, weights.residual, weights.converged)
