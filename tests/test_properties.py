"""Property tests for the edge arrays, the Laplacian path and the rotation maps.

The g2o round trip must give the arrays back. The vectorized graph and
Laplacian bookkeeping is checked against the loops it replaced, kept
below as references; both sum in the same order, so results must agree
bit for bit. The exp/log maps and the quaternion conversion must round
trip in every branch.
"""

import math
import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from lapra import decomposition as dd
from lapra.laplacians import (
    WeightedGraph,
    effective_resistances,
    graph_from_laplacian,
    heuristic_sparsify,
    laplacian,
    solve_grounded,
)
from lapra.manifold import NumericalError, exp_map, exp_map_batch, log_map, log_map_batch
from lapra.pose_graph import (
    MeasurementGraph,
    Partition,
    SyntheticSpec,
    generate_grid,
    load_g2o,
    quat_to_rot,
    rot_to_quat,
    write_g2o,
)
from lapra.rotation import separator_rows_by_owner

FEW = settings(max_examples=25, deadline=None)

_weights = st.floats(min_value=1e-6, max_value=1e6)  # positive, twelve orders of magnitude
_coords = st.floats(min_value=-1e6, max_value=1e6)


# ---------------------------------------------------------------------------
# Loop references


def _ref_from_edge_list(n, pairs, weights):
    acc = {}
    for (a, b), w in zip(pairs, weights):
        if a == b:
            raise ValueError(f"self loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) outside 0..{n - 1}")
        if w <= 0:
            raise ValueError(f"edge ({a},{b}) has non-positive weight {w}")
        key = (min(a, b), max(a, b))
        acc[key] = acc.get(key, 0.0) + float(w)
    keys = sorted(acc)
    return np.array(keys, dtype=int).reshape(-1, 2), np.array([acc[k] for k in keys], dtype=float)


def _ref_is_separator(owner, pairs):
    is_sep = np.zeros(owner.size, dtype=bool)
    for i, j in pairs:
        if owner[i] != owner[j]:
            is_sep[i] = True
            is_sep[j] = True
    return is_sep


def _ref_separator_rows_by_owner(g, partition):
    is_sep = np.zeros(g.n, dtype=bool)
    is_sep[partition.separators] = True
    touched = [set() for _ in range(partition.m)]
    for i, j in zip(g.I, g.J):
        a = partition.owner[i]
        for v in (i, j):
            if is_sep[v]:
                touched[a].add(v)
    return np.array([len(t) for t in touched], dtype=int)


def _ref_graph_from_laplacian(L, tol=0.0):
    C = sp.coo_matrix(sp.triu(L, k=1))
    scale = max(abs(C.data).max(), 1.0) if C.nnz else 1.0
    cut = tol * scale
    pairs, ws = [], []
    for a, b, v in zip(C.row, C.col, C.data):
        if abs(v) <= cut:
            continue
        if v > 0:
            raise ValueError(f"positive off-diagonal at ({a},{b}): {v}")
        pairs.append((a, b))
        ws.append(-v)
    return WeightedGraph.from_edge_list(L.shape[0], pairs, ws)


def _ref_split(L, partition):
    """build_blocks' edge split: the cross-edge L_Gc and, with several robots, each Lcc_local."""
    n = L.shape[0]
    C = partition.separators
    pos_in_C = np.full(n, -1, dtype=int)
    pos_in_C[C] = np.arange(C.size)
    coo = sp.coo_matrix(sp.triu(L, k=1))
    owner = partition.owner
    cross_r, cross_c, cross_w = [], [], []
    local_edges = [[] for _ in range(partition.m)]
    for a, b, v in zip(coo.row, coo.col, coo.data):
        if v == 0:
            continue
        w = -v
        if w <= 0:
            raise ValueError(f"positive off-diagonal at ({a},{b})")
        if owner[a] != owner[b]:
            cross_r.append(pos_in_C[a])
            cross_c.append(pos_in_C[b])
            cross_w.append(w)
        else:
            local_edges[owner[a]].append((a, b, w))
    nc = C.size
    if cross_r:
        rows = np.array(cross_r + cross_c + cross_r + cross_c)
        cols = np.array(cross_c + cross_r + cross_r + cross_c)
        vals = np.concatenate([-np.array(cross_w), -np.array(cross_w), cross_w, cross_w])
        L_Gc = sp.csr_matrix((vals, (rows, cols)), shape=(nc, nc))
        L_Gc.sum_duplicates()
    else:
        L_Gc = sp.csr_matrix((nc, nc))
    if partition.m == 1:
        return L_Gc, []
    Lccs = []
    for a in range(partition.m):
        diag = np.zeros(nc)
        rr, cc, vv = [], [], []
        for (u, v, w) in local_edges[a]:
            for x in (u, v):
                if pos_in_C[x] >= 0:
                    diag[pos_in_C[x]] += w
            if pos_in_C[u] >= 0 and pos_in_C[v] >= 0:
                rr += [pos_in_C[u], pos_in_C[v]]
                cc += [pos_in_C[v], pos_in_C[u]]
                vv += [-w, -w]
        Lcc = sp.csr_matrix((vv + list(diag), (rr + list(range(nc)), cc + list(range(nc)))), shape=(nc, nc))
        Lcc.sum_duplicates()
        Lcc.eliminate_zeros()
        Lccs.append(Lcc)
    return L_Gc, Lccs


def _ref_single_robot_solve(L, B):
    """The one-robot split solve: a grounded factor of the whole system, checked and centred."""
    n = L.shape[0]
    X = np.zeros((n, B.shape[1]))
    if n > 1:
        X[1:] = spla.splu(sp.csc_matrix(L[1:, 1:])).solve(B[1:])
    resid = np.linalg.norm(L @ X - B)
    if resid > 1e-10 * max(1.0, np.linalg.norm(B)):
        raise NumericalError(f"grounded solve residual {resid:.3e}")
    return X - X.mean(axis=0, keepdims=True)


def _ref_effective_resistances(L, pairs):
    L = sp.csr_matrix(L)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    C = sp.coo_matrix(sp.triu(L, k=1))
    mask = C.data != 0
    support = sp.csr_matrix((np.ones(mask.sum()), (C.row[mask], C.col[mask])), shape=L.shape)
    _, labels = csgraph.connected_components(support, directed=False)
    out = np.empty(pairs.shape[0])
    by_comp = {}
    for idx, (a, b) in enumerate(pairs):
        if labels[a] != labels[b]:
            raise NumericalError(f"vertices {a} and {b} lie in different components")
        by_comp.setdefault(int(labels[a]), []).append(idx)
    for comp, idxs in by_comp.items():
        verts = np.flatnonzero(labels == comp)
        if verts.size > 3000:
            raise NumericalError(f"component of size {verts.size} too large for dense resistances")
        if verts.size == 1:
            raise NumericalError("isolated vertex has no resistances")
        loc = {int(v): k for k, v in enumerate(verts)}
        Lg = L[verts][:, verts].toarray()[1:, 1:]
        Minv = cho_solve(cho_factor(Lg), np.eye(Lg.shape[0]))
        for idx in idxs:
            a, b = (loc[int(v)] for v in pairs[idx])
            if a == 0:
                out[idx] = Minv[b - 1, b - 1]
            elif b == 0:
                out[idx] = Minv[a - 1, a - 1]
            else:
                out[idx] = Minv[a - 1, a - 1] + Minv[b - 1, b - 1] - 2 * Minv[a - 1, b - 1]
    return out


def _ref_tree(S):
    S = sp.csr_matrix(S)
    g = graph_from_laplacian(S, tol=1e-12)
    if g.edges.shape[0] == 0:
        return S.copy()
    W = sp.csr_matrix((g.weights, (g.edges[:, 0], g.edges[:, 1])), shape=S.shape)
    keep = sp.coo_matrix(csgraph.minimum_spanning_tree(-W))
    out = sp.lil_matrix(S.shape)
    out.setdiag(S.diagonal())
    for a, b, w in zip(keep.row, keep.col, -keep.data):
        out[a, b] = -w
        out[b, a] = -w
    return sp.csr_matrix(out)


def _assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _same_outcome(f, ref):
    """f() and ref() return byte-equal arrays, or raise the same error."""
    try:
        expected = ref()
    except (ValueError, NumericalError) as exc:
        with pytest.raises(type(exc)) as got:
            f()
        assert str(got.value) == str(exc)
        return None
    out = f()
    assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
    return out


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def connected_pairs(draw, n):
    """Edge pairs over 0..n-1: a random spanning tree plus extra edges, in random orientations."""
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    seen = {tuple(sorted(p)) for p in pairs}
    for a, b in extra:
        if a != b and (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            pairs.append((a, b))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]


@st.composite
def measurement_graphs(draw):
    """Connected graphs with arbitrary translations and weights and rotations away from pi."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 10))
    pairs = draw(connected_pairs(n))
    m, p = len(pairs), d * (d - 1) // 2
    angle = st.floats(min_value=-1.7, max_value=1.7)  # |v| < 2.95 rad, clear of pi
    R_tilde = [exp_map(np.array(draw(st.lists(angle, min_size=p, max_size=p)))) for _ in range(m)]
    t_tilde = draw(st.lists(st.lists(_coords, min_size=d, max_size=d), min_size=m, max_size=m))
    kappa = draw(st.lists(_weights, min_size=m, max_size=m))
    tau = draw(st.lists(_weights, min_size=m, max_size=m))
    I, J = np.array(pairs).T
    return MeasurementGraph(d, n, I, J, R_tilde, t_tilde, kappa, tau)


@st.composite
def owned_pairs(draw):
    """An ownership map over n vertices and in-range pairs, duplicates and reversals allowed."""
    n = draw(st.integers(1, 12))
    owner = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return owner, pairs


@st.composite
def weighted_laplacians(draw, weights=_weights):
    """(n, pairs, L) for a connected graph, by default with weights across twelve orders of magnitude.

    The graph is a seeded 2D or 3D synthetic lattice or an arbitrary random graph.
    """
    if draw(st.booleans()):
        spec = SyntheticSpec(side=draw(st.integers(2, 4)), d=draw(st.sampled_from([2, 3])),
                             edge_prob=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16)))
        g, _ = generate_grid(spec)
        n, pairs = g.n, g.pairs
    else:
        n = draw(st.integers(2, 12))
        pairs = np.array(draw(connected_pairs(n)))
    w = draw(st.lists(weights, min_size=len(pairs), max_size=len(pairs)))
    return n, pairs, laplacian(WeightedGraph.from_edge_list(n, pairs, w))


@st.composite
def split_cases(draw):
    """A connected Laplacian with a one-robot, two-block, scattered or one-robot-per-vertex partition."""
    n, pairs, L = draw(weighted_laplacians())
    kind = draw(st.sampled_from(["one", "two-block", "scattered", "per-vertex"]))
    if kind == "one":
        owner = np.zeros(n, dtype=int)
    elif kind == "two-block":
        owner = np.arange(n) * 2 // n
    elif kind == "scattered":  # many robots own separators only, so interiors are empty
        owner = np.array(draw(st.permutations(range(n)))) % draw(st.integers(2, n))
    else:
        owner = np.arange(n)
    return L, Partition.from_owner(owner, pairs)


@st.composite
def multi_component_queries(draw):
    """A Laplacian of up to three interleaved components plus resistance queries.

    Queries join each component's lowest vertex (the grounded one) to every
    other vertex, in both orders, plus random distinct pairs; sometimes a
    pair or two span two components, or one asks about an isolated vertex.
    """
    sizes = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    isolated = draw(st.integers(0, 1))
    n = sum(sizes) + isolated
    perm = np.array(draw(st.permutations(range(n))))
    comps, pairs, start = [], [], 0
    for size in sizes:
        verts = perm[start:start + size]
        pairs += [(verts[a], verts[b]) for a, b in draw(connected_pairs(size))]
        comps.append(np.sort(verts))
        start += size
    w = draw(st.lists(_weights, min_size=len(pairs), max_size=len(pairs)))
    L = laplacian(WeightedGraph.from_edge_list(n, pairs, w))
    queries = []
    for verts in comps:
        queries += [(verts[0], v) for v in verts[1:]] + [(v, verts[0]) for v in verts[1:]]
        for a, b in draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=6)):
            if a != b:
                queries.append((a, b))
    queries = [queries[k] for k in draw(st.permutations(range(len(queries))))]
    for _ in range(draw(st.integers(0, 2)) if len(comps) > 1 else 0):
        i, j = draw(st.permutations(range(len(comps))))[:2]
        cross = (draw(st.sampled_from(comps[i])), draw(st.sampled_from(comps[j])))
        queries.insert(draw(st.integers(0, len(queries))), cross)
    if isolated and draw(st.booleans()):
        queries.append((perm[-1], perm[-1]))
    return L, np.array(queries, dtype=int).reshape(-1, 2)


# off-diagonal entries: zeros, edges (drawn twice as often), and positives
# at, below and above the round-off cut
_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=-1e-14),
    st.floats(min_value=-1e6, max_value=-1e-14),
    st.sampled_from([1e-15, 1e-13, 0.5]),
)


# ---------------------------------------------------------------------------
# Tests


@FEW
@given(measurement_graphs())
def test_g2o_roundtrip_returns_the_edge_arrays(g):
    g.validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.g2o")
        write_g2o(path, g)
        g2, poses = load_g2o(path)
    assert poses is None and (g2.d, g2.n, g2.m) == (g.d, g.n, g.m)
    for name in ("I", "J", "t_tilde", "kappa", "tau"):
        a, b = getattr(g, name), getattr(g2, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # rotations pass through an angle or a quaternion, so allow tiny drift
    assert np.linalg.norm(g.R_tilde - g2.R_tilde, axis=(1, 2)).max() < 1e-14


@FEW
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=16),
            st.lists(st.floats(min_value=-1.0, max_value=4.0), min_size=16, max_size=16),
        )
    )
)
def test_from_edge_list_matches_dict_loop(case):
    n, pairs, weights = case
    weights = weights[: len(pairs)]
    try:
        ref = _ref_from_edge_list(n, pairs, weights)
    except ValueError as exc:
        try:
            WeightedGraph.from_edge_list(n, pairs, weights)
        except ValueError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError(f"expected ValueError: {exc}")
        return
    g = WeightedGraph.from_edge_list(n, pairs, weights)
    assert g.n == n
    assert np.array_equal(g.edges, ref[0]) and g.edges.shape == ref[0].shape
    assert g.weights.dtype == ref[1].dtype and g.weights.tobytes() == ref[1].tobytes()


@FEW
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), connected_pairs(n))))
def test_from_edge_list_merges_duplicate_and_reversed_pairs(case):
    n, pairs = case
    # every pair twice more: once repeated, once reversed, with distinct weights
    doubled = pairs + pairs + [(b, a) for a, b in pairs]
    weights = [0.1 + 0.37 * k for k in range(len(doubled))]
    edges, ws = _ref_from_edge_list(n, doubled, weights)
    g = WeightedGraph.from_edge_list(n, np.array(doubled), np.array(weights))
    assert np.array_equal(g.edges, edges) and g.weights.tobytes() == ws.tobytes()
    assert g.edges.shape[0] == len(pairs)


@FEW
@given(owned_pairs())
def test_partition_from_owner_matches_loop(case):
    owner, pairs = case
    part = Partition.from_owner(owner, pairs)
    is_sep = _ref_is_separator(owner, pairs)
    assert part.m == owner.max() + 1
    assert np.array_equal(part.is_separator, is_sep)
    assert np.array_equal(part.separators, np.flatnonzero(is_sep))
    for a in range(part.m):
        assert np.array_equal(part.interiors[a], np.flatnonzero((owner == a) & ~is_sep))


@FEW
@given(owned_pairs())
def test_separator_rows_by_owner_matches_loop(case):
    owner, pairs = case
    part = Partition.from_owner(owner, pairs)
    m = len(pairs)
    I, J = np.array(pairs, dtype=int).reshape(m, 2).T
    g = MeasurementGraph(3, owner.size, I, J, np.zeros((m, 3, 3)), np.zeros((m, 3)), np.ones(m), np.ones(m))
    rows = separator_rows_by_owner(g, part)
    ref = _ref_separator_rows_by_owner(g, part)
    assert rows.dtype == ref.dtype and np.array_equal(rows, ref)


@FEW
@given(st.integers(1, 8).flatmap(lambda n: st.lists(_entries, min_size=n * n, max_size=n * n)),
       st.sampled_from([0.0, 1e-12, 0.1]))
def test_graph_from_laplacian_matches_coo_loop(entries, tol):
    n = math.isqrt(len(entries))
    A = np.triu(np.array(entries).reshape(n, n), k=1)
    A = A + A.T + np.diag(np.arange(n, dtype=float))
    rows, cols = np.indices((n, n))
    L = sp.csr_matrix((A.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))  # zeros stay stored
    try:
        ref = _ref_graph_from_laplacian(L, tol)
    except ValueError as exc:  # the first positive off-diagonal in COO order
        with pytest.raises(ValueError) as got:
            graph_from_laplacian(L, tol)
        assert str(got.value) == str(exc)
        return
    g = graph_from_laplacian(L, tol)
    assert g.n == ref.n and np.array_equal(g.edges, ref.edges) and g.edges.shape == ref.edges.shape
    assert g.weights.tobytes() == ref.weights.tobytes()


@FEW
@given(split_cases())
def test_build_blocks_split_matches_coo_loop(case):
    L, part = case
    blocks, server = dd.build_blocks(L, part)
    L_Gc, Lccs = _ref_split(L, part)
    _assert_same_csr(server.L_Gc, L_Gc)
    for blk, Lcc in zip(blocks, Lccs):
        _assert_same_csr(blk.Lcc_local, Lcc)
    assert len(Lccs) == (0 if part.m == 1 else len(blocks))


@FEW
@given(weighted_laplacians(st.floats(min_value=1e-2, max_value=1e2)), st.integers(1, 3), st.integers(0, 99))
def test_single_robot_solve_matches_grounded_loop(case, k, seed):
    n, pairs, L = case
    blocks, server = dd.build_blocks(L, Partition.from_owner(np.zeros(n, dtype=int), pairs))
    B = np.random.default_rng(seed).standard_normal((n, k))
    B -= B.mean(axis=0)
    _same_outcome(lambda: dd.solve(blocks, server, B), lambda: _ref_single_robot_solve(L, B))
    _same_outcome(lambda: solve_grounded(L, B), lambda: _ref_single_robot_solve(L, B))


@FEW
@given(multi_component_queries())
def test_effective_resistances_match_dict_loop(case):
    L, queries = case
    R = _same_outcome(lambda: effective_resistances(L, queries),
                      lambda: _ref_effective_resistances(L, queries))
    if R is not None:
        assert np.all(R > 0)


def test_effective_resistance_of_a_vertex_to_itself_is_zero():
    L = laplacian(WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)], [1.0, 2.0]))
    R = effective_resistances(L, np.array([[0, 0], [2, 2], [0, 2]]))  # vertex 0 is the ground
    assert R[0] == 0.0 and R[1] == 0.0 and abs(R[2] - 1.5) < 1e-12


@FEW
@given(weighted_laplacians(), st.integers(0, 3))
def test_tree_mode_matches_lil_loop(case, isolated):
    _, _, L = case
    L = sp.csr_matrix(sp.block_diag([L, sp.csr_matrix((isolated, isolated))]))  # zero diagonals
    _assert_same_csr(heuristic_sparsify(L, "tree"), _ref_tree(L))


# ---------------------------------------------------------------------------
# Rotation maps in every branch: the exp series below 1e-8 rad, the log
# series below 1e-4, the generic closed forms, and the log's symmetric-part
# extraction beyond 2.9 rad.

_BRANCH_ANGLES = {
    "exp-series": st.floats(min_value=1e-12, max_value=9.9e-9),
    "log-series": st.floats(min_value=1e-8, max_value=9.9e-5),
    "generic": st.floats(min_value=1e-4, max_value=2.89),
    "near-pi": st.floats(min_value=2.9, max_value=math.pi - 1e-3),
}


@st.composite
def tangent_batches(draw, branch):
    """(d, V): up to six tangent vectors whose angles all lie in one branch, in 2D or 3D."""
    d = draw(st.sampled_from([2, 3]))
    p = d * (d - 1) // 2
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        angle = draw(_BRANCH_ANGLES[branch])
        if p == 1:
            rows.append([angle if draw(st.booleans()) else -angle])
        else:
            axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
            if np.linalg.norm(axis) < 1e-3:
                axis = np.array([0.0, 0.0, 1.0])
            rows.append(angle * axis / np.linalg.norm(axis))
    return d, np.array(rows)


@pytest.mark.parametrize("branch", sorted(_BRANCH_ANGLES))
def test_exp_log_round_trip_batch_against_scalar(branch):
    @FEW
    @given(tangent_batches(branch))
    def check(case):
        d, V = case
        Rs = exp_map_batch(V)
        W = log_map_batch(Rs)
        for v, R, w in zip(V, Rs, W):
            scale = np.linalg.norm(v)
            assert np.abs(R - exp_map(v)).max() <= 1e-15
            assert np.abs(w - log_map(R)).max() <= 1e-12 * scale
            assert np.linalg.norm(w - v) <= 1e-9 * scale
            assert np.abs(exp_map(log_map(R)) - R).max() <= 1e-12
            assert np.abs(R.T @ R - np.eye(d)).max() <= 1e-12

    check()


@FEW
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-3))
def test_quaternion_round_trip_up_to_sign(q):
    q = np.array(q) / np.linalg.norm(q)
    R = quat_to_rot(*q)
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12 and np.linalg.det(R) > 0
    q2 = rot_to_quat(R)
    assert q2[3] >= 0
    assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) <= 1e-12  # q and -q are one rotation
    assert np.abs(quat_to_rot(*q2) - R).max() <= 1e-12
