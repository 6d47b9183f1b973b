import numpy as np
import pytest
import scipy.sparse as sp

from lapra import laplacians
from lapra.laplacians import (
    DEFAULT_OVERSAMPLING,
    WeightedGraph,
    check_epsilon,
    effective_resistances,
    graph_from_laplacian,
    heuristic_sparsify,
    laplacian,
    schur_complement,
    solve_grounded,
    sparsify,
    upper_triangle_nnz,
)
from lapra.manifold import NumericalError


def _random_connected(rng, n, p_edge=0.3):
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p_edge
    pairs |= {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
    pairs = sorted(pairs)
    w = rng.uniform(0.5, 2.0, size=len(pairs))
    return WeightedGraph.from_edge_list(n, pairs, w)


def test_weighted_graph_merges_duplicates():
    g = WeightedGraph.from_edge_list(3, [(0, 1), (1, 0), (1, 2)], [1.0, 2.0, 1.5])
    assert len(g.weights) == 2
    L = laplacian(g).toarray()
    assert L[0, 1] == -3.0


def test_weighted_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightedGraph.from_edge_list(3, [(0, 0)], [1.0])
    with pytest.raises(ValueError):
        WeightedGraph.from_edge_list(3, [(0, 5)], [1.0])
    with pytest.raises(ValueError):
        WeightedGraph.from_edge_list(3, [(0, 1)], [-1.0])


@pytest.mark.parametrize("bad, message", [(float("nan"), "non-finite weight nan"), (float("inf"), "non-finite weight inf"),
                                          (-float("inf"), "non-positive weight -inf"), (0.0, "non-positive weight 0.0")])
def test_weighted_graph_names_the_first_edge_with_a_bad_weight(bad, message):
    """NaN and +inf weights used to pass and merge into the graph; each raises naming its edge, as w <= 0 does."""
    with pytest.raises(ValueError, match=rf"^edge \(2,1\) has {message}$"):
        WeightedGraph.from_edge_list(3, [(0, 1), (2, 1), (0, 2)], [1.0, bad, float("nan")])


def test_laplacian_structure():
    rng = np.random.default_rng(0)
    g = _random_connected(rng, 15)
    L = laplacian(g)
    A = L.toarray()
    assert np.allclose(A, A.T)
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-12)
    evals = np.linalg.eigvalsh(A)
    assert evals[0] > -1e-10 and evals[1] > 1e-8  # connected


def test_graph_from_laplacian_roundtrip():
    rng = np.random.default_rng(1)
    g = _random_connected(rng, 12)
    g2 = graph_from_laplacian(laplacian(g))
    assert np.allclose(laplacian(g2).toarray(), laplacian(g).toarray())
    with pytest.raises(ValueError):
        graph_from_laplacian(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_schur_complement_path_graph():
    # unit path 0-1-2, eliminate the middle vertex
    g = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)], [1.0, 1.0])
    S = schur_complement(laplacian(g), np.array([1])).toarray()
    assert np.allclose(S, [[0.5, -0.5], [-0.5, 0.5]])


def test_schur_complement_is_laplacian():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = _random_connected(rng, 20)
        elim = rng.choice(20, size=7, replace=False)
        S = schur_complement(laplacian(g), elim).toarray()
        assert np.allclose(S, S.T, atol=1e-12)
        assert np.allclose(S.sum(axis=1), 0.0, atol=1e-10)
        assert np.all(S - np.diag(np.diag(S)) < 1e-12)


def test_schur_complement_quadratic_form_identity():
    # eliminating variables preserves the energy of minimizing extensions
    rng = np.random.default_rng(3)
    g = _random_connected(rng, 15)
    L = laplacian(g).toarray()
    elim = np.arange(5)
    keep = np.arange(5, 15)
    S = schur_complement(laplacian(g), elim).toarray()
    x_c = rng.standard_normal(10)
    x_f = -np.linalg.solve(L[np.ix_(elim, elim)], L[np.ix_(elim, keep)] @ x_c)
    x = np.concatenate([x_f, x_c])
    assert abs(x @ L @ x - x_c @ S @ x_c) < 1e-10


def test_schur_singular_block_raises():
    # vertex 2 is isolated, so eliminating it hits a singular block
    g = WeightedGraph.from_edge_list(3, [(0, 1)], [1.0])
    with pytest.raises(NumericalError):
        schur_complement(laplacian(g), np.array([2]))


def test_effective_resistance_known_values():
    path = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)], [1.0, 1.0])
    R = effective_resistances(laplacian(path), np.array([[0, 2], [0, 1]]))
    assert np.allclose(R, [2.0, 1.0])
    tri = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
    R = effective_resistances(laplacian(tri), np.array([[0, 1]]))
    assert abs(R[0] - 2.0 / 3.0) < 1e-12


def test_effective_resistance_matches_pseudoinverse():
    rng = np.random.default_rng(4)
    g = _random_connected(rng, 18)
    L = laplacian(g)
    pairs = np.asarray(g.edges)
    R = effective_resistances(L, pairs)
    Lp = np.linalg.pinv(L.toarray())
    for (i, j), r in zip(pairs, R):
        e = np.zeros(18)
        e[i], e[j] = 1.0, -1.0
        assert abs(r - e @ Lp @ e) < 1e-10


def test_foster_sum():
    # weighted resistances over the edges of a connected graph sum to n - 1
    rng = np.random.default_rng(5)
    g = _random_connected(rng, 25)
    pairs = np.asarray(g.edges)
    R = effective_resistances(laplacian(g), pairs)
    assert abs(np.dot(np.asarray(g.weights), R) - 24.0) < 1e-9


def test_effective_resistance_cross_component_raises():
    g = WeightedGraph.from_edge_list(4, [(0, 1), (2, 3)], [1.0, 1.0])
    with pytest.raises(NumericalError):
        effective_resistances(laplacian(g), np.array([[0, 2]]))


def test_sparsify_verbatim_cases():
    rng = np.random.default_rng(6)
    g = _random_connected(rng, 30, p_edge=0.2)
    L = laplacian(g)
    out = sparsify(L, 0.0, np.random.default_rng(0))
    assert (out != L).nnz == 0
    # the default budget exceeds the edge count at this size
    out = sparsify(L, 0.5, np.random.default_rng(0), oversampling=DEFAULT_OVERSAMPLING)
    assert (out != L).nnz == 0


@pytest.mark.parametrize("oversampling", [0.0, -1.0, np.inf, np.nan])
def test_sparsify_rejects_an_oversampling_that_is_not_positive_and_finite(oversampling):
    L = laplacian(_random_connected(np.random.default_rng(6), 30, p_edge=0.2))
    with pytest.raises(ValueError, match="oversampling must be positive and finite"):
        sparsify(L, 0.5, np.random.default_rng(0), oversampling=oversampling)


@pytest.mark.parametrize("epsilon", [-0.1, np.nan])
def test_sparsify_rejects_a_negative_or_nan_epsilon(epsilon):
    L = laplacian(_random_connected(np.random.default_rng(6), 30, p_edge=0.2))
    with pytest.raises(ValueError, match=r"^epsilon must be non-negative$"):
        sparsify(L, epsilon, np.random.default_rng(0))


@pytest.mark.parametrize("epsilon, oversampling", [(1e-17, 0.05), (5e-324, 0.05), (0.5, 1e308)])
def test_sparsify_returns_the_input_on_an_infinite_budget(epsilon, oversampling):
    """1 - exp(-epsilon) is 0.0 below about 1.1e-16 and a huge oversampling overflows: both budgets cover every edge."""
    L = laplacian(_random_connected(np.random.default_rng(6), 30, p_edge=0.2))
    out = sparsify(L, epsilon, np.random.default_rng(0), oversampling=oversampling)
    assert (out != L).nnz == 0


def test_sparsify_reduces_edges_and_approximates():
    rng = np.random.default_rng(7)
    g = _random_connected(rng, 80, p_edge=0.9)
    L = laplacian(g)
    out = sparsify(L, 1.0, np.random.default_rng(3), oversampling=1.0)
    assert upper_triangle_nnz(out) < upper_triangle_nnz(L)
    rep = check_epsilon(out, L)
    assert rep.kernel_match
    assert rep.epsilon_achieved < 1.0


def test_sparsify_deterministic_for_seed():
    rng = np.random.default_rng(8)
    g = _random_connected(rng, 60, p_edge=0.8)
    L = laplacian(g)
    a = sparsify(L, 1.0, np.random.default_rng(5), oversampling=0.8)
    b = sparsify(L, 1.0, np.random.default_rng(5), oversampling=0.8)
    assert (a != b).nnz == 0


def test_sparsify_keeps_component_structure():
    rng = np.random.default_rng(9)
    blocks = []
    for base in (0, 40):
        g = _random_connected(rng, 40, p_edge=0.9)
        blocks.append(laplacian(g))
    L = sp.block_diag(blocks, format="csr")
    out = sparsify(L, 1.0, np.random.default_rng(1), oversampling=0.8)
    rep = check_epsilon(out, L)
    assert rep.kernel_match


def test_sparsify_expected_weight_preserved():
    # sampled totals are unbiased for the original total weight
    rng = np.random.default_rng(10)
    g = _random_connected(rng, 40, p_edge=0.9)
    L = laplacian(g)
    total = float(np.sum(g.weights))
    est = []
    for s in range(60):
        out = sparsify(L, 1.5, np.random.default_rng(s), oversampling=0.5)
        est.append(-sp.triu(out, k=1).sum())
    assert abs(np.mean(est) / total - 1.0) < 0.05


def test_check_epsilon_reports_scaling():
    rng = np.random.default_rng(11)
    g = _random_connected(rng, 20)
    L = laplacian(g)
    rep = check_epsilon(2.0 * L, L)
    assert rep.kernel_match
    assert abs(rep.epsilon_achieved - np.log(2.0)) < 1e-9
    rep0 = check_epsilon(L, L)
    assert rep0.epsilon_achieved < 1e-12


def test_check_epsilon_kernel_mismatch():
    g1 = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
    g2 = WeightedGraph.from_edge_list(4, [(0, 1), (2, 3)], [1.0, 1.0])
    rep = check_epsilon(laplacian(g2), laplacian(g1))
    assert not rep.kernel_match


def test_heuristic_sparsify_modes():
    rng = np.random.default_rng(12)
    g = _random_connected(rng, 25, p_edge=0.7)
    L = laplacian(g)
    D = heuristic_sparsify(L, "block_diagonal").toarray()
    assert np.allclose(D, np.diag(np.diag(L.toarray())))
    T = heuristic_sparsify(L, "tree")
    gt = graph_from_laplacian(T)
    assert len(gt.edges) == 24  # spanning tree of a connected graph
    orig = {tuple(p): w for p, w in zip(g.edges, g.weights)}
    for p, w in zip(gt.edges, gt.weights):
        assert orig[tuple(p)] == w  # kept edges keep their weight
    with pytest.raises(ValueError):
        heuristic_sparsify(L, "nope")


def test_heuristic_tree_picks_heavy_edges():
    # on a triangle the spanning tree keeps the two heaviest edges
    g = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], [3.0, 2.0, 1.0])
    T = heuristic_sparsify(laplacian(g), "tree")
    gt = graph_from_laplacian(T)
    kept = {tuple(p) for p in gt.edges}
    assert kept == {(0, 1), (1, 2)}


def test_solve_grounded_matches_pseudoinverse():
    rng = np.random.default_rng(13)
    g = _random_connected(rng, 16)
    L = laplacian(g)
    B = rng.standard_normal((16, 3))
    B -= B.mean(axis=0)
    X = solve_grounded(L, B)
    Xp = np.linalg.pinv(L.toarray()) @ B
    assert np.abs(X - Xp).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
def test_solve_grounded_takes_a_1d_rhs_as_its_column(n):
    """A 1-D b gives a 1-D x equal bit for bit to the solve of b as one column."""
    rng = np.random.default_rng(n)
    L = laplacian(_random_connected(rng, n, p_edge=min(0.3, 4 / n)))
    b = rng.standard_normal(n)
    b -= b.mean()
    x = solve_grounded(L, b)
    assert x.shape == (n,)
    assert x.tobytes() == solve_grounded(L, b[:, None])[:, 0].tobytes()


def test_solve_grounded_rejects_infeasible():
    rng = np.random.default_rng(14)
    g = _random_connected(rng, 10)
    B = np.ones((10, 1))  # constant rhs is orthogonal to nothing useful
    with pytest.raises(NumericalError):
        solve_grounded(laplacian(g), B)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_grounded_rejects_a_non_finite_rhs_before_factoring(monkeypatch, bad):
    # a NaN row used to pass the column-sum check (NaN > tol is false) and fail later as "grounded solve residual nan"
    g = _random_connected(np.random.default_rng(15), 10)
    B = np.zeros((10, 2))
    B[3, 1] = bad

    def no_factor(*args):
        raise AssertionError("factored a non-finite rhs")

    monkeypatch.setattr(laplacians, "spd_factor", no_factor)
    with pytest.raises(NumericalError, match=r"^rhs has a non-finite entry$"):
        solve_grounded(laplacian(g), B)


def test_upper_triangle_nnz():
    g = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)], [1.0, 1.0])
    assert upper_triangle_nnz(laplacian(g)) == 5  # 3 diagonal + 2 edges

