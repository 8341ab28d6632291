"""Solver tests: each power-iteration path is checked against an
independent dense linear-algebra oracle."""

import random

import numpy as np
import pytest

from citenet import (
    DataError,
    JournalCitationMatrix,
    PageRankParams,
    ScoreVector,
    build_graph,
    hits,
    influence_metrics,
    influence_weights,
    pagerank,
    total_influence,
)


def random_graph(seed, n_nodes, n_edges):
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    edges = []
    while len(edges) < n_edges:
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v:
            edges.append((u, v))
    return build_graph(edges)


def dense_pagerank(graph, d=0.85):
    """Oracle: direct linear solve of (I - d*M) r = (1-d)/N * 1, where M
    is the column-stochastic transition matrix with dangling columns
    spread uniformly."""
    n = graph.n_nodes
    index = {node: i for i, node in enumerate(graph.nodes)}
    M = np.zeros((n, n))
    out = np.zeros(n)
    for u, _, mult in graph.edges:
        out[index[u]] += mult
    for u, v, mult in graph.edges:
        M[index[v], index[u]] = mult / out[index[u]]
    for j in range(n):
        if out[j] == 0:
            M[:, j] = 1.0 / n
    r = np.linalg.solve(np.eye(n) - d * M, np.full(n, (1 - d) / n))
    return dict(zip(graph.nodes, r))


def adjacency(graph):
    n = graph.n_nodes
    index = {node: i for i, node in enumerate(graph.nodes)}
    A = np.zeros((n, n))
    for u, v, mult in graph.edges:
        A[index[u], index[v]] = mult
    return A


class TestPageRank:
    def test_empty_graph_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            pagerank(build_graph([]))

    def test_cycle_is_uniform(self):
        k = 5
        g = build_graph([(f"c{i}", f"c{(i + 1) % k}") for i in range(k)])
        scores = pagerank(g)
        assert scores.converged
        for node in g.nodes:
            assert scores[node] == pytest.approx(1 / k, abs=1e-10)

    def test_two_node_chain_matches_closed_form(self):
        g = build_graph([("a", "b")])
        scores = pagerank(g, PageRankParams(tol=1e-14))
        oracle = dense_pagerank(g)
        assert scores["a"] == pytest.approx(oracle["a"], abs=1e-10)
        assert scores["b"] == pytest.approx(oracle["b"], abs=1e-10)
        # and the hand-solved 2x2 fixed point: r_a = 0.075 + 0.425 r_b
        assert scores["a"] == pytest.approx(0.5 / 1.425, abs=1e-10)

    def test_random_graphs_match_dense_solve(self):
        for seed in range(10):
            g = random_graph(seed, 20, 60)
            scores = pagerank(g, PageRankParams(tol=1e-13, max_iter=2000))
            assert scores.converged
            oracle = dense_pagerank(g)
            worst = max(abs(scores[n] - oracle[n]) for n in g.nodes)
            assert worst < 1e-8
            assert sum(scores.values.values()) == pytest.approx(1.0, abs=1e-9)

    def test_scores_sum_to_one_and_floor(self):
        g = random_graph(99, 20, 50)
        params = PageRankParams()
        scores = pagerank(g, params)
        assert sum(scores.values.values()) == pytest.approx(1.0, abs=10 * params.tol)
        floor = (1 - params.damping) / g.n_nodes
        assert all(s >= floor - 1e-15 for s in scores.values.values())

    def test_relabeling_invariance(self):
        g = random_graph(5, 15, 40)
        mapping = {node: f"z{99 - i}" for i, node in enumerate(g.nodes)}
        relabeled = build_graph(
            [(mapping[u], mapping[v]) for u, v, m in g.edges for _ in range(m)]
        )
        s1 = pagerank(g, PageRankParams(tol=1e-13))
        s2 = pagerank(relabeled, PageRankParams(tol=1e-13))
        for node in g.nodes:
            assert s1[node] == pytest.approx(s2[mapping[node]], abs=1e-10)

    def test_single_isolated_node(self):
        from citenet import DocumentRecord

        g = build_graph([], docs=[DocumentRecord("only", "J", 2000)])
        scores = pagerank(g)
        assert scores.converged
        assert scores["only"] == pytest.approx(1.0)

    def test_dangling_mass_is_redistributed(self):
        # b has no outlinks; its mass must not leak (sum stays 1).
        g = build_graph([("a", "b"), ("c", "b")])
        scores = pagerank(g)
        assert sum(scores.values.values()) == pytest.approx(1.0, abs=1e-9)
        assert scores["b"] > scores["a"]

    def test_non_convergence_is_flagged_not_raised(self):
        g = random_graph(1, 20, 60)
        scores = pagerank(g, PageRankParams(tol=1e-30, max_iter=3))
        assert not scores.converged
        assert scores.iterations == 3
        assert scores.residual > 0

    def test_determinism(self):
        g = random_graph(11, 20, 70)
        a = pagerank(g)
        b = pagerank(g)
        assert a.values == b.values


class TestHits:
    def test_edgeless_graph_rejected(self):
        from citenet import DocumentRecord

        g = build_graph([], docs=[DocumentRecord("d", "J", 2000)])
        with pytest.raises(DataError, match="at least one edge"):
            hits(g)

    def test_single_edge(self):
        g = build_graph([("a", "b")])
        authority, hub = hits(g)
        assert authority["b"] == pytest.approx(1.0)
        assert authority["a"] == 0.0
        assert hub["a"] == pytest.approx(1.0)
        assert hub["b"] == 0.0

    def test_complete_bipartite_symmetry(self):
        edges = [(f"l{i}", f"r{j}") for i in range(3) for j in range(3)]
        authority, hub = hits(build_graph(edges))
        auth_values = {authority[f"r{j}"] for j in range(3)}
        hub_values = {hub[f"l{i}"] for i in range(3)}
        assert max(auth_values) - min(auth_values) < 1e-12
        assert max(hub_values) - min(hub_values) < 1e-12
        assert authority[f"r0"] == pytest.approx(1 / np.sqrt(3), abs=1e-10)

    def test_zero_rules_hold_exactly(self):
        g = random_graph(17, 15, 30)
        authority, hub = hits(g)
        for node in g.nodes:
            if g.in_degree(node) == 0:
                assert authority[node] == 0.0
            if g.out_degree(node) == 0:
                assert hub[node] == 0.0

    def test_random_graphs_match_dense_eigen_oracle(self):
        for seed in range(10):
            g = random_graph(100 + seed, 15, 40)
            authority, hub = hits(g, tol=1e-13, max_iter=5000)
            assert authority.converged
            A = adjacency(g)
            for vector, gram in ((authority, A.T @ A), (hub, A @ A.T)):
                eigenvalues, eigenvectors = np.linalg.eigh(gram)
                principal = eigenvectors[:, -1]
                if principal.sum() < 0:
                    principal = -principal
                got = np.array([vector[n] for n in g.nodes])
                assert np.max(np.abs(got - principal)) < 1e-8

    def test_unit_norm(self):
        g = random_graph(23, 12, 30)
        authority, hub = hits(g)
        assert np.linalg.norm(list(authority.values.values())) == pytest.approx(1.0)
        assert np.linalg.norm(list(hub.values.values())) == pytest.approx(1.0)


def matrix_from(counts, pubs, journals=None):
    counts = np.asarray(counts)
    journals = journals or tuple(f"J{i}" for i in range(len(counts)))
    return JournalCitationMatrix(tuple(journals), counts, np.asarray(pubs))


def dense_influence_oracle(matrix):
    """Oracle: Perron eigenvector of A = D^-1 C^T via a dense
    eigendecomposition, renormalized to the reference-weighted mean."""
    C = matrix.counts.astype(float)
    refs = C.sum(axis=1)
    A = C.T / refs[:, np.newaxis]  # A[j, i] = C[i, j] / r_j
    eigenvalues, eigenvectors = np.linalg.eig(A)
    k = int(np.argmax(eigenvalues.real))
    w = eigenvectors[:, k].real
    w = np.abs(w)
    w *= refs.sum() / (refs @ w)
    return dict(zip(matrix.journals, w))


class TestInfluenceWeights:
    def test_symmetric_two_journal_case(self):
        m = matrix_from([[0, 5], [5, 0]], [10, 10])
        w = influence_weights(m)
        assert w["J0"] == pytest.approx(1.0, abs=1e-12)
        assert w["J1"] == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_two_journal_closed_form(self):
        # w1 = 2*w2/10, w2 = 10*w1/2, normalized by 10*w1 + 2*w2 = 12:
        # w1 = 0.6, w2 = 3.0 (hand-solved 2x2 fixed point).
        m = matrix_from([[0, 10], [2, 0]], [4, 4])
        w = influence_weights(m)
        assert w["J0"] == pytest.approx(0.6, abs=1e-10)
        assert w["J1"] == pytest.approx(3.0, abs=1e-10)

    def test_zero_reference_row_is_an_error_listing_journals(self):
        m = matrix_from([[0, 3], [0, 0]], [1, 1], journals=("alive", "silent"))
        with pytest.raises(DataError, match="silent"):
            influence_weights(m)

    def test_random_positive_matrices_fixed_point_and_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            counts = rng.integers(1, 60, size=(8, 8))
            m = matrix_from(counts, rng.integers(1, 40, size=8))
            w = influence_weights(m, tol=1e-12)
            assert w.converged
            refs = m.reference_totals().astype(float)
            vec = np.array([w[j] for j in m.journals])
            fixed = (m.counts.T.astype(float) @ vec) / refs
            assert np.max(np.abs(vec - fixed)) < 1e-10
            oracle = dense_influence_oracle(m)
            for j in m.journals:
                assert w[j] == pytest.approx(oracle[j], abs=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 30, size=(6, 6))
        m1 = matrix_from(counts, rng.integers(1, 20, size=6))
        m2 = matrix_from(counts * 7, m1.pubs)
        w1 = influence_weights(m1)
        w2 = influence_weights(m2)
        for j in m1.journals:
            assert w1[j] == pytest.approx(w2[j], abs=1e-10)

    def test_reference_weighted_mean_is_one(self):
        rng = np.random.default_rng(21)
        counts = rng.integers(1, 50, size=(5, 5))
        m = matrix_from(counts, rng.integers(1, 9, size=5))
        w = influence_weights(m)
        refs = m.reference_totals().astype(float)
        vec = np.array([w[j] for j in m.journals])
        assert refs @ vec == pytest.approx(refs.sum(), rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        m = matrix_from(rng.integers(1, 40, size=(7, 7)), rng.integers(1, 12, size=7))
        assert influence_weights(m).values == influence_weights(m).values


class TestInfluenceProducts:
    def test_unweighted_mean(self):
        # Every row and column sums to 30, so the weights are all 1 and the
        # per-publication figure is the received column sum over pubs.
        m = matrix_from([[0, 30], [30, 0]], [3, 10])
        result = influence_metrics(m)
        assert result.weights.values == {"J0": 1.0, "J1": 1.0}
        assert result.per_publication["J1"] == pytest.approx(30 / 10)
        assert result.per_publication["J0"] == pytest.approx(30 / 3)

    def test_letters_journal_total(self):
        # High-volume letters journal: 38.1 per publication across 897
        # papers gives 34175.7, within 0.1% of the published 34,186
        # (the per-publication figure is rounded there).
        per_pub = ScoreVector(values={"letters": 38.1})
        total = total_influence(per_pub, {"letters": 897})
        assert total["letters"] == pytest.approx(34175.7, abs=1e-9)
        assert abs(total["letters"] - 34186) / 34186 < 1e-3

    def test_review_journal_total(self):
        # Small review journal: 245.8 per publication, 18 papers.
        per_pub = ScoreVector(values={"reviews": 245.8})
        total = total_influence(per_pub, {"reviews": 18})
        assert total["reviews"] == pytest.approx(4424.4, abs=1e-9)
        assert abs(total["reviews"] - 4424) / 4424 < 2e-4

    def test_total_is_elementwise_product(self):
        rng = np.random.default_rng(3)
        keys = [f"J{i}" for i in range(20)]
        per_pub = ScoreVector(values={k: float(v) for k, v in zip(keys, rng.uniform(0, 50, 20))})
        pubs = {k: int(v) for k, v in zip(keys, rng.integers(1, 500, 20))}
        total = total_influence(per_pub, pubs)
        for k in keys:
            assert total[k] == per_pub[k] * pubs[k]

    def test_key_mismatch_rejected(self):
        per_pub = ScoreVector(values={"a": 1.0})
        with pytest.raises(DataError, match="keys"):
            total_influence(per_pub, {"b": 2})

    def test_influence_metrics_product_identity_exact(self):
        rng = np.random.default_rng(8)
        m = matrix_from(rng.integers(1, 25, size=(6, 6)), rng.integers(1, 30, size=6))
        result = influence_metrics(m)
        weights = result.weights
        assert result.iterations > 1
        assert (result.iterations, result.residual, result.converged) == (
            weights.iterations, weights.residual, weights.converged)
        pubs = dict(zip(m.journals, m.pubs.tolist()))
        w = np.array([result.weights[j] for j in m.journals])
        received = m.counts.T.astype(float) @ w
        for j, got in zip(m.journals, received / m.pubs):
            assert result.per_publication[j] == pytest.approx(got, rel=1e-12)
            assert result.total[j] == result.per_publication[j] * pubs[j]


class TestGraphToInfluencePipeline:
    def test_aggregated_corpus_end_to_end(self):
        # Three journals; the 2005->2003/2004 window keeps Alpha (2 pubs)
        # and Beta (1 pub) and drops Gamma. Hand-solved fixed point:
        # w_Alpha = 4/3, w_Beta = 2/3.
        from citenet import DocumentRecord, TimeWindow, aggregate_to_journal_matrix

        docs = [
            DocumentRecord("a1", "Alpha", 2003),
            DocumentRecord("a2", "Alpha", 2004),
            DocumentRecord("a3", "Alpha", 2005),
            DocumentRecord("b1", "Beta", 2004),
            DocumentRecord("b2", "Beta", 2005),
            DocumentRecord("c1", "Gamma", 2005),
        ]
        edges = [
            ("a3", "a1"), ("a3", "b1"),
            ("b2", "a1"), ("b2", "a2"),
            ("c1", "a2"), ("c1", "b1"),  # excluded: Gamma has no window pubs
        ]
        graph = build_graph(edges, docs=docs)
        matrix = aggregate_to_journal_matrix(graph, TimeWindow.two_year(2005))
        assert matrix.journals == ("Alpha", "Beta")
        assert matrix.dropped == ("Gamma",)
        assert np.array_equal(matrix.counts, [[1, 1], [2, 0]])

        result = influence_metrics(matrix)
        assert result.converged
        assert result.weights["Alpha"] == pytest.approx(4 / 3, abs=1e-12)
        assert result.weights["Beta"] == pytest.approx(2 / 3, abs=1e-12)
        assert result.per_publication["Alpha"] == pytest.approx(4 / 3, abs=1e-12)
        assert result.per_publication["Beta"] == pytest.approx(4 / 3, abs=1e-12)
        assert result.total["Alpha"] == pytest.approx(8 / 3, abs=1e-12)
        assert result.total["Beta"] == pytest.approx(4 / 3, abs=1e-12)


class TestStoppingRule:
    """All three solvers share one check of ``tol`` and ``max_iter``."""

    GRAPH = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
    MATRIX = matrix_from([[0, 5], [3, 0]], [2, 2])
    SOLVERS = {
        "pagerank": lambda tol, max_iter: pagerank(
            TestStoppingRule.GRAPH, PageRankParams(tol=tol, max_iter=max_iter)
        ),
        "hits": lambda tol, max_iter: hits(TestStoppingRule.GRAPH, tol=tol, max_iter=max_iter),
        "influence": lambda tol, max_iter: influence_weights(
            TestStoppingRule.MATRIX, tol=tol, max_iter=max_iter
        ),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("tol, max_iter", [
        (-1.0, 100), (0.0, 100), (float("nan"), 100), (float("inf"), 100), (1e-10, 0),
    ])
    def test_bad_stopping_rule_rejected(self, solver, tol, max_iter):
        with pytest.raises(DataError, match="tol must be positive|max_iter must be >= 1"):
            self.SOLVERS[solver](tol, max_iter)


def _l2(a):
    return np.sqrt(float(np.add.reduce(a * a)))


def loop_pagerank(graph, tol, max_iter, d=0.85):
    n = graph.n_nodes
    src, dst, mult = graph.edge_arrays()
    out = np.zeros(n)
    np.add.at(out, src, mult.astype(np.float64))
    dangling = out == 0.0
    weight = mult / out[src]
    rank = np.full(n, 1.0 / n)
    for iterations in range(1, max_iter + 1):
        flow = np.zeros(n)
        np.add.at(flow, dst, rank[src] * weight)
        new_rank = (1.0 - d) / n + d * (flow + float(rank[dangling].sum()) / n)
        residual = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        if residual < tol:
            break
    return rank.tolist(), iterations, residual


def loop_hits(graph, tol, max_iter):
    n = graph.n_nodes
    src, dst, mult = graph.edge_arrays()
    fmult = mult.astype(np.float64)
    hub, auth = np.full(n, 1.0 / np.sqrt(n)), np.zeros(n)
    for iterations in range(1, max_iter + 1):
        new_auth = np.zeros(n)
        np.add.at(new_auth, dst, fmult * hub[src])
        new_auth /= _l2(new_auth)
        new_hub = np.zeros(n)
        np.add.at(new_hub, src, fmult * new_auth[dst])
        new_hub /= _l2(new_hub)
        residual = max(_l2(new_auth - auth), _l2(new_hub - hub))
        auth, hub = new_auth, new_hub
        if residual < tol:
            break
    return auth.tolist(), hub.tolist(), iterations, residual


def loop_influence(matrix, tol, max_iter):
    refs = matrix.reference_totals().astype(np.float64)
    rows, cols = matrix.counts.nonzero()
    vals = matrix.counts[rows, cols].astype(np.float64)

    def normalize(w):
        return w * (float(np.add.reduce(refs)) / float(np.add.reduce(refs * w)))

    w = normalize(np.ones(len(refs)))
    for iterations in range(1, max_iter + 1):
        fw = np.zeros(len(refs))
        np.add.at(fw, cols, vals * w[rows])
        fw /= refs
        residual = float(np.abs(fw - w).max())
        if residual < tol:
            break
        w = normalize(0.5 * (w + fw))
    return normalize(w).tolist(), iterations, residual


class TestLoopReference:
    """Each solver against a plain loop with ``np.add.at`` scatters:
    scores, iteration counts and residuals agree bit for bit, converged
    or not."""

    GRAPH = random_graph(31, 200, 2000)  # repeated pairs give parallel edges

    @pytest.mark.parametrize("tol, max_iter", [(1e-12, 500), (1e-30, 7)])
    def test_pagerank(self, tol, max_iter):
        scores = pagerank(self.GRAPH, PageRankParams(tol=tol, max_iter=max_iter))
        values, iterations, residual = loop_pagerank(self.GRAPH, tol, max_iter)
        assert list(scores.values.values()) == values
        assert (scores.iterations, scores.residual) == (iterations, residual)

    @pytest.mark.parametrize("tol, max_iter", [(1e-12, 5000), (1e-30, 7)])
    def test_hits(self, tol, max_iter):
        authority, hub = hits(self.GRAPH, tol=tol, max_iter=max_iter)
        auth, hubs, iterations, residual = loop_hits(self.GRAPH, tol, max_iter)
        assert list(authority.values.values()) == auth
        assert list(hub.values.values()) == hubs
        assert (authority.iterations, authority.residual) == (iterations, residual)

    @pytest.mark.parametrize("tol, max_iter", [(1e-13, 1000), (1e-30, 7)])
    def test_influence(self, tol, max_iter):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 4, size=(30, 30))
        counts[np.arange(30), (np.arange(30) + 1) % 30] += 1  # every journal cites
        m = matrix_from(counts, rng.integers(1, 20, size=30))
        w = influence_weights(m, tol=tol, max_iter=max_iter)
        values, iterations, residual = loop_influence(m, tol, max_iter)
        assert list(w.values.values()) == values
        assert (w.iterations, w.residual) == (iterations, residual)


class TestNetworkxOracle:
    """Cross-check against networkx on a few thousand nodes with
    parallel edges (multiplicity becomes the edge weight)."""

    @pytest.fixture(scope="class")
    def graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(2024)
        n, m = 3000, 20000
        src = rng.integers(0, n, size=m)
        # Heavy-tailed targets, so popular pairs repeat as parallel edges.
        dst = (rng.pareto(1.2, size=m) * 50).astype(np.int64) % n
        keep = src != dst
        g = build_graph([(f"d{u:04d}", f"d{v:04d}") for u, v in zip(src[keep], dst[keep])])
        assert max(mult for _, _, mult in g.edges) > 1
        reference = nx.DiGraph()
        reference.add_nodes_from(g.nodes)
        reference.add_weighted_edges_from(g.edges, weight="weight")
        return nx, g, reference

    def test_pagerank_matches_networkx(self, graphs):
        nx, g, reference = graphs
        scores = pagerank(g, PageRankParams(tol=1e-15, max_iter=1000))
        assert scores.converged
        expected = nx.pagerank(reference, alpha=0.85, tol=1e-15, max_iter=1000, weight="weight")
        assert max(abs(scores[node] - expected[node]) for node in g.nodes) < 1e-12

    def test_hits_matches_networkx(self, graphs):
        nx, g, reference = graphs
        authority, hub = hits(g, tol=1e-14, max_iter=10000)
        assert authority.converged
        nx_hub, nx_authority = nx.hits(reference, max_iter=10000, tol=1e-14)
        for ours, theirs in ((authority, nx_authority), (hub, nx_hub)):
            # networkx scales to unit sum; citenet to unit L2 norm.
            expected = np.array([theirs[node] for node in g.nodes])
            expected /= np.linalg.norm(expected)
            got = np.array([ours[node] for node in g.nodes])
            assert np.max(np.abs(got - expected)) < 1e-12


class TestScoreVector:
    def test_ranked_breaks_ties_by_id(self):
        scores = ScoreVector(values={"b": 1.0, "a": 1.0, "c": 2.0})
        assert scores.ranked() == [("c", 2.0), ("a", 1.0), ("b", 1.0)]

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            ScoreVector(values={"a": float("nan")})
