"""The set-up path reads edges, components and upload counts straight from CSR arrays.

Each routine is checked bit for bit against the sp.triu / COO version it
replaced, kept below as a reference, on matrices as stored: explicit zeros,
isolated vertices, duplicate entries, unsorted column indices and lower
entries whose mirror is zero all occur. build_blocks takes each robot's
blocks as range slices of the Laplacian of its own edges; the two it takes
without a conversion must equal the conversions they replace.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from lapra import decomposition as dd
from lapra import laplacians
from lapra.laplacians import (
    WeightedGraph,
    _component_labels_of,
    _detached,
    graph_from_laplacian,
    laplacian,
    schur_update,
    upper_triangle_nnz,
)
from lapra.pose_graph import Partition, SyntheticSpec, generate_grid

FEW = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# sp.triu / COO references


def _unique_from_edge_list(n, pairs, weights):
    """WeightedGraph.from_edge_list as it was: np.unique on every input."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    w = np.asarray(weights, dtype=float)
    a, b = pairs[:, 0], pairs[:, 1]
    checks = [
        (a == b, lambda k: f"self loop at vertex {a[k]}"),
        ((a < 0) | (a >= n) | (b < 0) | (b >= n), lambda k: f"edge ({a[k]},{b[k]}) outside 0..{n - 1}"),
        (w <= 0, lambda k: f"edge ({a[k]},{b[k]}) has non-positive weight {w[k]}"),
        (~np.isfinite(w), lambda k: f"edge ({a[k]},{b[k]}) has non-finite weight {w[k]}"),
    ]
    failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    if failed.size:
        k = failed[0]
        raise ValueError(next(msg for mask, msg in checks if mask[k])(k))
    keys, slot = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    ws = np.bincount(slot, weights=w, minlength=keys.size).astype(float, copy=False)
    return WeightedGraph(n=n, edges=np.stack([keys // n, keys % n], axis=1), weights=ws)


def _triu_graph_from_laplacian(L, tol=0.0):
    C = sp.coo_matrix(sp.triu(L, k=1))
    scale = max(abs(C.data).max(), 1.0) if C.nnz else 1.0
    keep = ~(np.abs(C.data) <= tol * scale)
    a, b, v = C.row[keep], C.col[keep], C.data[keep]
    positive = np.flatnonzero(v > 0)
    if positive.size:
        k = positive[0]
        raise ValueError(f"positive off-diagonal at ({a[k]},{b[k]}): {v[k]}")
    return _unique_from_edge_list(L.shape[0], np.stack([a, b], axis=1), -v)


def _triu_component_labels_of(L):
    return csgraph.connected_components(sp.triu(L, k=1) != 0, directed=False)[1]


def _triu_detached(L, inside):
    labels = _triu_component_labels_of(L)
    touches_outside = np.bincount(labels[~inside], minlength=labels.size) > 0
    return np.flatnonzero(inside & ~touches_outside[labels])


def _triu_upper_triangle_nnz(A):
    A = sp.csr_matrix(A).copy()
    A.eliminate_zeros()
    return int(sp.triu(A, k=0).nnz)


def _coo_schur_update(solve, L_fc, L_cc):
    L_fc, L_cc = sp.csr_matrix(L_fc), sp.csr_matrix(L_cc)
    fc, cc = L_fc.tocoo(), L_cc.tocoo()
    touched = np.unique(fc.col[fc.data != 0])
    L_adj = L_fc[:, touched]
    block = L_cc[touched][:, touched].toarray() - L_adj.T @ solve(L_adj.toarray())
    block = (block + block.T) / 2.0
    in_block = np.isin(np.arange(L_cc.shape[0]), touched)
    rest = ~(in_block[cc.row] & in_block[cc.col])
    thr = 1e-14 * max(1.0, np.abs(block).max(initial=0.0), np.abs(cc.data[rest]).max(initial=0.0))
    r, c = np.nonzero(np.abs(block) >= thr)
    rest &= np.abs(cc.data) >= thr
    rows, cols = np.concatenate([touched[r], cc.row[rest]]), np.concatenate([touched[c], cc.col[rest]])
    return sp.csr_matrix((np.concatenate([block[r, c], cc.data[rest]]), (rows, cols)), shape=L_cc.shape)


# ---------------------------------------------------------------------------
# Helpers and strategies


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_csr(A, B):
    assert A.format == B.format and A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        _same_bytes(getattr(A, name), getattr(B, name))


def _same_graph_or_error(f, ref):
    try:
        expected = ref()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            f()
        assert str(got.value) == str(exc)
        return None
    g = f()
    assert g.n == expected.n
    _same_bytes(g.edges, expected.edges)
    _same_bytes(g.weights, expected.weights)
    return g


def _stored(shape, rows, cols, vals, rng_order):
    """CSR holding exactly these entries, grouped by row in the order rng_order draws within each row."""
    rows, cols, vals = (np.asarray(x) for x in (rows, cols, vals))
    order = np.lexsort((rng_order, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows.astype(np.intp), minlength=shape[0]))])
    return sp.csr_matrix((vals[order].astype(float), cols[order].astype(np.int32), indptr), shape=shape)


# stored values: zeros, edges (drawn twice as often), and positives at, below and above the round-off cut
_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=-1e-14),
    st.floats(min_value=-1e6, max_value=-1e-14),
    st.sampled_from([1e-15, 1e-13, 0.5]),
)


@st.composite
def raw_csr(draw, square=True, n=None):
    """A sparse matrix as stored, from drawn entries: any values, duplicates, unsorted indices, empty rows.

    It has n rows, drawn if not given, and as many columns if square, else a drawn number. Some entries
    are stored twice, and some once more negated, so that their duplicates sum to zero."""
    n = draw(st.integers(0, 9)) if n is None else n
    k = n if square else draw(st.integers(0, 9))
    if n == 0 or k == 0:
        return sp.csr_matrix((n, k))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1), _values), max_size=4 * n))
    picks = st.lists(st.integers(0, max(len(cells) - 1, 0)), max_size=3)
    cells += [cells[i] for i in draw(picks) if cells]
    cells += [(r, c, -v) for r, c, v in (cells[i] for i in draw(picks) if cells)]
    rows, cols, vals = (np.array([c[i] for c in cells]).reshape(-1) for i in range(3))
    order = draw(st.permutations(range(len(cells))))
    return _stored((n, k), rows.astype(np.intp), cols.astype(np.intp), vals, np.array(order, dtype=np.intp))


@st.composite
def scrambled_laplacians(draw):
    """A Laplacian, connected or not, with stored zeros, some entries split into two exact halves, rows shuffled."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                                max_size=2 * n)) if a != b]
    w = draw(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=len(pairs), max_size=len(pairs)))
    C = laplacian(WeightedGraph.from_edge_list(n, pairs, w)).tocoo()
    rows, cols, vals = list(C.row), list(C.col), list(C.data)
    for r, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        rows, cols, vals = rows + [r], cols + [c], vals + [0.0]
    for k in sorted(set(draw(st.lists(st.integers(0, max(len(vals) - 1, 0)), max_size=4))), reverse=True):
        if k < len(vals) and vals[k] != 0:
            half = vals[k] / 2.0
            vals[k] = half
            rows, cols, vals = rows + [rows[k]], cols + [cols[k]], vals + [half]
    order = np.array(draw(st.permutations(range(len(vals)))), dtype=np.intp)
    return _stored((n, n), np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals), order)


_matrices = st.one_of(raw_csr(), scrambled_laplacians())


@st.composite
def owned_laplacians(draw):
    """A weighted lattice Laplacian with a one-robot, contiguous or scattered partition."""
    spec = SyntheticSpec(side=draw(st.integers(2, 4)), d=draw(st.sampled_from([2, 3])),
                         edge_prob=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16)))
    g, _ = generate_grid(spec)
    w = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=g.m, max_size=g.m))
    L = laplacian(WeightedGraph.from_edge_list(g.n, g.pairs, w))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        owner = np.arange(g.n) * m // g.n
    else:
        owner = np.array(draw(st.permutations(range(g.n)))) % m
    return L, Partition.from_owner(owner, g.pairs)


# ---------------------------------------------------------------------------
# Tests


@FEW
@given(_matrices, st.sampled_from([0.0, 1e-12]))
def test_graph_from_laplacian_reads_the_csr_arrays_as_triu_did(L, tol):
    """Same edges and weights, or the same first positive off-diagonal, as the sp.triu → COO version."""
    _same_graph_or_error(lambda: graph_from_laplacian(L, tol), lambda: _triu_graph_from_laplacian(L, tol))


@FEW
@given(_matrices)
def test_component_labels_read_the_csr_arrays_as_triu_did(L):
    _same_bytes(_component_labels_of(L), _triu_component_labels_of(L))


@FEW
@given(_matrices, st.data())
def test_detached_reads_the_csr_arrays_or_the_edge_list_as_triu_did(L, data):
    """On the matrix, and on graph_from_laplacian's edge list wherever it has one."""
    n = L.shape[0]
    inside = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    ref = _triu_detached(L, inside)
    _same_bytes(_detached(L, inside), ref)
    try:
        g = graph_from_laplacian(L)
    except ValueError:
        return
    _same_bytes(_detached(g, inside), ref)


@FEW
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]), max_size=2 * n),
    st.lists(st.booleans(), min_size=n, max_size=n),
)))
def test_detached_reads_an_edge_list_in_any_order(case):
    """A WeightedGraph whose edges are in no particular order or orientation, repeats included."""
    n, pairs, inside = case
    inside = np.array(inside, dtype=bool)
    edges = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    ref = _triu_detached(laplacian(WeightedGraph.from_edge_list(n, edges, np.ones(len(edges)))), inside)
    _same_bytes(_detached(WeightedGraph(n, edges, np.ones(len(edges))), inside), ref)


@FEW
@given(_matrices)
def test_upper_triangle_nnz_counts_as_triu_did(A):
    assert upper_triangle_nnz(A) == _triu_upper_triangle_nnz(A)


def test_a_lower_entry_whose_mirror_is_zero_is_no_edge():
    """(1, 0) is stored as -1 and (0, 1) as an explicit zero: neither an edge nor a link between 0 and 1."""
    L = sp.csr_matrix((np.array([1.0, 0.0, -1.0, 1.0]), np.array([0, 1, 0, 1]), np.array([0, 2, 4, 4])),
                      shape=(3, 3))
    g = graph_from_laplacian(L)
    assert g.edges.shape == (0, 2)
    _same_bytes(_component_labels_of(L), np.array([0, 1, 2], dtype=np.int32))
    inside = np.array([True, False, False])
    for graph in (L, g):
        _same_bytes(_detached(graph, inside), np.array([0]))
    assert upper_triangle_nnz(L) == 2


@FEW
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3 * n),
    st.lists(st.sampled_from([0.25, 1.0, 3.5, 1e-9, 0.0, -1.0, np.inf, np.nan]), min_size=3 * n, max_size=3 * n),
    st.booleans(),
)))
def test_from_edge_list_matches_the_unique_version_on_sorted_and_unsorted_input(case):
    """With keys sorted and unique the np.unique pass is skipped; the result, or the error, is the same."""
    n, pairs, weights, sort = case
    if sort:  # one pair per key in key order, each in a drawn orientation
        keys = sorted({min(a, b) * n + max(a, b): (a, b) for a, b in pairs}.items())
        pairs = [p for _, p in keys]
    weights = weights[: len(pairs)]
    got = _same_graph_or_error(lambda: WeightedGraph.from_edge_list(n, pairs, weights),
                               lambda: _unique_from_edge_list(n, pairs, weights))
    if got is not None and sort:
        with mock.patch.object(laplacians.np, "unique", side_effect=AssertionError("np.unique on sorted keys")):
            WeightedGraph.from_edge_list(n, pairs, weights)


@FEW
@given(raw_csr(square=False), st.data())
def test_schur_update_matches_the_coo_version(L_fc, data):
    """Same entries in the same order; solve is any fixed map of dense B."""
    L_cc = data.draw(raw_csr(n=L_fc.shape[1]))
    scale = data.draw(st.sampled_from([0.5, -3.0, 1e-20]))
    solve = lambda B: scale * B  # noqa: E731
    _assert_same_csr(schur_update(solve, L_fc, L_cc), _coo_schur_update(solve, L_fc, L_cc))


@FEW
@given(owned_laplacians())
def test_build_blocks_takes_symmetric_slices_as_the_conversions_they_replace(case):
    """L_aa, as factored, equals csc(L[F][:, F]) and L_acT equals csr(L_ac.T), bit for bit."""
    L, part = case
    with (mock.patch.object(dd, "spd_factor", wraps=dd.spd_factor) as spd,
          mock.patch.object(dd, "grounded_solver", wraps=dd.grounded_solver) as grounded):
        blocks, server = dd.build_blocks(L, part)
    factored = iter((grounded if part.m == 1 else spd).call_args_list)
    for blk in blocks:
        F = blk.interior
        if F.size:
            _assert_same_csr(next(factored).args[0], sp.csc_matrix(L[F][:, F]))
        _assert_same_csr(blk.L_acT, sp.csr_matrix(blk.L_ac.T))
        _same_bytes(blk.adj_sep, np.asarray((abs(blk.L_ac) > 0).sum(axis=0)).ravel() > 0)
    assert next(factored, None) is None
