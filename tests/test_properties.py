"""Property tests for the edge arrays of a measurement graph.

The g2o round trip must give the arrays back. The vectorized graph
bookkeeping is checked against the loops it replaced, kept below as
references; both sum in edge order, so results must agree bit for bit.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lapra.laplacians import WeightedGraph
from lapra.manifold import exp_map
from lapra.pose_graph import MeasurementGraph, Partition, load_g2o, write_g2o
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
