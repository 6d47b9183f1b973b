"""Property tests for the edge arrays, the Laplacian path and the rotation maps.

The g2o round trip must give the arrays back, and the g2o loader must
parse files of every shape exactly as the per-record loader it replaced.
The vectorized graph and Laplacian bookkeeping is checked against the
loops it replaced, kept below as references; both sum in the same order,
so results must agree bit for bit. The exp/log maps and the quaternion
conversion must round trip in every branch, and the batch kernels that
replaced the scalar maps and the scalar edge Hessian are checked against
those scalar forms, kept below as references. The gauge-fixed Newton step
and curvature report are checked against the explicit-projector forms
they replaced, also kept below.
"""

import math
import os
import re
import tempfile
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, eigh, null_space

from lapra import decomposition as dd
from lapra.laplacians import (
    SPD_SUPERLU,
    WeightedGraph,
    _detached,
    effective_resistances,
    graph_from_laplacian,
    grounded_solver,
    heuristic_sparsify,
    laplacian,
    schur_update,
    solve_grounded,
)
from lapra.manifold import NumericalError, RotationState, exp_map, exp_map_batch, log_map, log_map_batch, row_norms
from lapra.pose_graph import (
    GraphError,
    MeasurementGraph,
    Partition,
    SyntheticSpec,
    generate_grid,
    load_g2o,
    _quats_to_rots,
    _rots_to_quats,
    partition_contiguous,
    spanning_tree_init,
    write_g2o,
)
from lapra.rotation import (
    CHORDAL,
    GEODESIC,
    SolverConfig,
    _apply_update,
    _block_index,
    _edge_gradients,
    _edge_hessians,
    _gauge_fixed,
    _gradient_and_cost,
    _weighted_edge_hessians,
    assemble_full_hessian,
    assemble_gradient_rhs,
    collaborative_solve,
    distance_by_name,
    edge_hessian,
    exact_newton_step,
    hessian_report,
    iterate,
    laplacian_weights,
    newton_solve,
)
from lapra.translation import (
    _rotated_measurements,
    assemble_translation_rhs,
    collaborative_translation_solve,
    exact_translation_solve,
)

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


def _ref_detached(L, inside):
    """The vertices of mask `inside` cut off from every outside vertex, found on a hub graph.

    Every outside vertex merges into one extra vertex n; an inside vertex is
    detached when its component misses that hub.
    """
    n, C = L.shape[0], sp.coo_matrix(L, copy=True)
    C.eliminate_zeros()
    hub = np.where(inside, np.arange(n), n)
    H = sp.coo_matrix((np.ones(C.nnz), (hub[C.row], hub[C.col])), shape=(n + 1, n + 1))
    labels = csgraph.connected_components(H, directed=False)[1]
    return np.flatnonzero(inside & (labels[:n] != labels[n]))


def _ref_single_robot_solve(L, B):
    """The one-robot split solve: a grounded factor of the whole system, checked and centred.

    The factor takes the package's own SuperLU settings, so the comparison stays bit for bit.
    """
    n = L.shape[0]
    X = np.zeros((n, B.shape[1]))
    if n > 1:
        L_g = sp.csc_matrix(L[1:, 1:])
        X[1:] = spla.splu(L_g, **SPD_SUPERLU).solve(B[1:])
        resid = np.linalg.norm(L_g @ X[1:] - B[1:])
        if resid > 1e-10 * (spla.norm(L_g) * np.linalg.norm(X[1:]) + np.linalg.norm(B[1:])):
            raise NumericalError(f"grounded solve residual {resid:.3e}")
    return X - X.mean(axis=0, keepdims=True)


def _ref_centralized_solve(g, R0, config):
    """The whole-graph rotation loop: one grounded factor of the surrogate Laplacian, nothing uploaded."""
    kind = distance_by_name(config.distance)
    solve = grounded_solver(laplacian(laplacian_weights(g, kind)))
    return iterate(
        R0.copy(),
        lambda R: _gradient_and_cost(g, R, kind),
        lambda R, B: _apply_update(R, solve(B)),
        config,
        dd.CommsLedger(),
    )


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


def _ref_quat_to_rot(qx, qy, qz, qw):
    q = np.array([qx, qy, qz, qw], dtype=float)
    nrm = np.linalg.norm(q)
    if nrm == 0:
        raise GraphError("zero quaternion")
    x, y, z, w = q / nrm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _ref_hat(v):
    if v.shape == (1,):
        return np.array([[0.0, -v[0]], [v[0], 0.0]])
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _ref_exp_map(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape == (1,):
        c, s = np.cos(v[0]), np.sin(v[0])
        return np.array([[c, -s], [s, c]])
    theta = np.linalg.norm(v)
    K = _ref_hat(v)
    if theta < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    return np.eye(3) + (np.sin(theta) / theta) * K + ((1.0 - np.cos(theta)) / theta**2) * (K @ K)


def _ref_log_map(R):
    R = np.asarray(R, dtype=float)
    if R.shape == (2, 2):
        theta = np.arctan2(R[1, 0], R[0, 0])
        if abs(theta) > np.pi - 1e-6:
            raise NumericalError(f"rotation angle {theta:.9f} too close to pi for log_map")
        return np.array([theta])
    A = (R - R.T) / 2.0
    w = np.array([A[2, 1], A[0, 2], A[1, 0]])
    cos_theta = (np.trace(R) - 1.0) / 2.0
    sin_theta = np.linalg.norm(w)
    theta = np.arctan2(sin_theta, cos_theta)
    if theta > np.pi - 1e-6:
        raise NumericalError(f"rotation angle {theta:.9f} too close to pi for log_map")
    if theta < 1e-4:
        t2 = theta * theta
        return (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0) * w
    if theta < 2.9:
        return (theta / sin_theta) * w
    A = (R + R.T) / 2.0 - cos_theta * np.eye(3)
    one_minus_cos = 1.0 - cos_theta
    k = int(np.argmax(np.diag(A)))
    u = A[:, k].copy()
    uk = np.sqrt(max(A[k, k] / one_minus_cos, 0.0))
    if uk == 0.0:
        raise NumericalError("degenerate axis extraction near pi")
    u = u / (one_minus_cos * uk)
    u = u / np.linalg.norm(u)
    if np.dot(u, w) < 0.0:
        u = -u
    return theta * u


def _ref_rot_to_quat(R):
    t = np.trace(R)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        w, x, y, z = 0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s
    else:
        k = int(np.argmax(np.diag(R)))
        if k == 0:
            s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
            w, x, y, z = (R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s
        elif k == 1:
            s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
            w, x, y, z = (R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s
        else:
            s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
            w, x, y, z = (R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s
    q = np.array([x, y, z, w])
    if w < 0:
        q = -q
    return q / np.linalg.norm(q)


def _ref_edge_hessian(R_i, R_j, R_tilde, kind):
    v = _ref_log_map(R_tilde.T @ R_i.T @ R_j)
    theta = np.linalg.norm(v)
    if v.shape[0] == 1:
        h = kind.rho_ddot(theta)
        return np.array([[h, -h], [-h, h]])
    P = np.zeros((6, 6))
    P[:3, :3] = R_i @ R_tilde
    P[3:, 3:] = R_j
    if theta < 1e-8:
        base = np.block([[np.eye(3), -np.eye(3)], [-np.eye(3), np.eye(3)]])
        return kind.rho_ddot(0.0) * (P @ base @ P.T)
    u = v / theta
    rd = kind.rho_dot(theta)
    alpha = rd / (2.0 * math.tan(theta / 2.0))
    gamma = kind.rho_ddot(theta) - alpha
    beta = rd / 2.0
    Ht = alpha * np.eye(3) + gamma * np.outer(u, u) + beta * _ref_hat(u)
    Sym = alpha * np.eye(3) + gamma * np.outer(u, u)
    M = np.block([[Sym, -Ht], [-Ht.T, Sym]])
    return P @ M @ P.T


def _ref_newton_schur_blocks(g, R, kind, partition):
    """Per-robot Schur blocks of the local Hessian, with a dense solve of the interior block."""
    p, C = g.p, partition.separators
    out = []
    for a in range(partition.m):
        F = partition.interiors[a]
        slot = np.full(g.n, -1)
        slot[np.concatenate([F, C])] = np.arange(F.size + C.size)
        mine = np.flatnonzero((partition.owner[g.I] == a) & (partition.owner[g.J] == a))
        rows, cols = np.broadcast_arrays(*_block_index(slot[g.I[mine]], slot[g.J[mine]], p))
        nf, size = F.size * p, (F.size + C.size) * p
        H = sp.csr_matrix((_weighted_edge_hessians(g, R, kind, mine).ravel(), (rows.ravel(), cols.ravel())),
                          shape=(size, size))
        Hff = H[:nf, :nf].toarray()
        out.append(schur_update(lambda B: np.linalg.solve(Hff, B), H[:nf, nf:], H[nf:, nf:]))
    return out


def _ref_exact_newton_step(g, R, kind):
    """The Newton step with explicit np x np gauge projectors."""
    n, p = g.n, g.p
    H = assemble_full_hessian(g, R, kind)
    b = assemble_gradient_rhs(g, R, kind).reshape(-1)
    ones_dir = np.tile(np.eye(p), (n, 1)) / math.sqrt(n)  # np x p, orthonormal columns
    Pn = ones_dir @ ones_dir.T
    Ph = np.eye(n * p) - Pn
    sigma = max(np.trace(H) / (n * p), 1.0)
    try:
        cf = cho_factor(Ph @ H @ Ph + sigma * Pn)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projected Hessian is not positive definite: {exc}") from exc
    v = cho_solve(cf, b)
    v = v - ones_dir @ (ones_dir.T @ v)
    return _apply_update(R, v.reshape(n, p))


def _ref_newton_schur_rows(g, R, kind, partition, ledger):
    """Record each robot's Hessian Schur block at R, as the Newton step's per-robot upload."""
    for a, S_h in enumerate(_ref_newton_schur_blocks(g, R, kind, partition)):
        thr = 1e-12 * max(1.0, np.abs(S_h.data).max(initial=0.0))
        ledger.record(a, "schur", int(np.count_nonzero(np.abs(sp.triu(S_h).data) > thr)))


def _ref_hessian_delta_kappa(g, R, kind):
    """(delta, kappa) from the generalized eigenproblem on an orthonormal basis of the gauge complement."""
    n, p = g.n, g.p
    H = assemble_full_hessian(g, R, kind)
    L = laplacian(laplacian_weights(g, kind)).toarray()
    M = np.kron(L, np.eye(p))
    Q = null_space(np.tile(np.eye(p), (1, n)))
    Ap, Bp = Q.T @ H @ Q, Q.T @ M @ Q
    lam = eigh((Ap + Ap.T) / 2.0, (Bp + Bp.T) / 2.0, eigvals_only=True)
    if lam.min() <= 1e-12 * max(abs(lam).max(), 1.0):
        return math.inf, math.inf
    ev_L = np.linalg.eigvalsh(L)
    delta = float(np.max(np.abs(np.log(lam))))
    return delta, math.exp(2.0 * delta) * ev_L[-1] / ev_L[1]


def _ref_unpack_upper(vals, k):
    M = np.zeros((k, k))
    it = iter(vals)
    for r in range(k):
        for c in range(r, k):
            v = next(it)
            M[r, c] = v
            M[c, r] = v
    return M


def _ref_mean_of_equalish(vals):
    if np.all(vals == vals[0]):
        return float(vals[0])
    return float(np.mean(vals))


def _ref_load_g2o(path):
    """The per-record g2o loader: one branch per tag, one conversion per line."""
    vertices, edges, dim = {}, [], None

    def want_dim(d, ln):
        nonlocal dim
        if dim is None:
            dim = d
        elif dim != d:
            raise GraphError(f"line {ln}: mixes 2D and 3D records")

    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            try:
                if tag == "VERTEX_SE2":
                    want_dim(2, ln)
                    vid = int(parts[1])
                    x, y, th = (float(s) for s in parts[2:5])
                    if len(parts) != 5:
                        raise ValueError("field count")
                    vertices[vid] = (exp_map(np.array([th])), np.array([x, y]))
                elif tag == "VERTEX_SE3:QUAT":
                    want_dim(3, ln)
                    vid = int(parts[1])
                    vals = [float(s) for s in parts[2:9]]
                    if len(parts) != 9:
                        raise ValueError("field count")
                    x, y, z, qx, qy, qz, qw = vals
                    vertices[vid] = (_ref_quat_to_rot(qx, qy, qz, qw), np.array([x, y, z]))
                elif tag == "EDGE_SE2":
                    want_dim(2, ln)
                    i, j = int(parts[1]), int(parts[2])
                    vals = [float(s) for s in parts[3:]]
                    if len(vals) != 3 + 6:
                        raise ValueError("field count")
                    dx, dy, dth = vals[:3]
                    info = np.diag(_ref_unpack_upper(vals[3:], 3))
                    edges.append((i, j, exp_map(np.array([dth])), (dx, dy),
                                  _ref_mean_of_equalish(info[2:]), _ref_mean_of_equalish(info[:2])))
                elif tag == "EDGE_SE3:QUAT":
                    want_dim(3, ln)
                    i, j = int(parts[1]), int(parts[2])
                    vals = [float(s) for s in parts[3:]]
                    if len(vals) != 7 + 21:
                        raise ValueError("field count")
                    dx, dy, dz, qx, qy, qz, qw = vals[:7]
                    info = np.diag(_ref_unpack_upper(vals[7:], 6))
                    edges.append((i, j, _ref_quat_to_rot(qx, qy, qz, qw), (dx, dy, dz),
                                  _ref_mean_of_equalish(info[3:]), _ref_mean_of_equalish(info[:3])))
                else:
                    raise ValueError(f"unknown record {tag}")
            except GraphError:
                raise
            except Exception as exc:
                raise GraphError(f"line {ln}: {exc}") from exc

    if not edges and not vertices:
        raise GraphError("file contains no vertices or edges")
    columns = list(zip(*edges)) or [()] * 6
    ids = set(vertices).union(columns[0], columns[1])
    n = max(ids) + 1
    if ids != set(range(n)):
        raise GraphError("vertex ids are not contiguous from 0")
    g = MeasurementGraph(dim, n, *columns)
    g.validate()
    poses = None
    if len(vertices) == n:
        mats = np.stack([vertices[i][0] for i in range(n)])
        ts = np.stack([vertices[i][1] for i in range(n)])
        poses = (RotationState(mats), ts)
    return g, poses


def _ref_spanning_tree_init(g):
    """The queue walk: neighbours in edge order, one product per vertex."""
    adj = [[] for _ in range(g.n)]
    for k, (i, j) in enumerate(zip(g.I.tolist(), g.J.tolist())):
        adj[i].append((j, k, False))
        adj[j].append((i, k, True))
    mats = np.zeros((g.n, g.d, g.d))
    mats[0] = np.eye(g.d)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, k, backward in adj[v]:
            if seen[w]:
                continue
            mats[w] = mats[v] @ (g.R_tilde[k].T if backward else g.R_tilde[k])
            seen[w] = True
            queue.append(w)
    if not seen.all():
        raise GraphError("measurement graph is not connected")
    return RotationState(mats)


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
def tree_init_graphs(draw):
    """A random connected graph, a path or a star over n vertices, or n = 1, with its edges in
    random order and orientation, and sometimes an isolated vertex added."""
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["random"] * 3 + ["path", "star", "single"]))
    n = 1 if kind == "single" else draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":  # a random tree, then up to 2n extra edges
        pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
        pairs |= {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, (2 * n, 2)).tolist() if a != b}
    elif kind == "path":
        pairs = {(v, v + 1) for v in range(n - 1)}
    else:
        centre = int(rng.integers(n))
        pairs = {(centre, v) for v in range(n) if v != centre}
    pairs = sorted(pairs)
    pairs = [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, rng.random(len(pairs)) < 0.5)]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    n += draw(st.integers(0, 3)) == 3
    m = len(pairs)
    R_tilde = exp_map_batch(2.0 * rng.standard_normal((m, d * (d - 1) // 2))) if m else np.zeros((0, d, d))
    I, J = np.array(pairs, dtype=int).reshape(m, 2).T
    return MeasurementGraph(d, n, I, J, R_tilde, np.zeros((m, d)), np.ones(m), np.ones(m))


@st.composite
def owned_pairs(draw):
    """An ownership map over n vertices and in-range pairs, duplicates and reversals allowed."""
    n = draw(st.integers(1, 12))
    owner = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return owner, pairs


@st.composite
def weighted_laplacians(draw, weights=_weights):
    """(n, pairs, L) for a connected graph with weights across twelve orders of magnitude, or drawn from `weights`.

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
def masked_laplacians(draw):
    """(L, inside): a Laplacian on 0..12 vertices, connected or not, sometimes with explicitly stored zeros.

    Isolated vertices come from vertices no edge touches. The mask is random, all inside or none inside.
    """
    n = draw(st.integers(0, 12))
    vertex_pairs = st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=2 * n)
    pairs = [(a, b) for a, b in draw(vertex_pairs) if a != b]
    w = draw(st.lists(_weights, min_size=len(pairs), max_size=len(pairs)))
    L = laplacian(WeightedGraph.from_edge_list(n, pairs, w))
    zeros = [(a, b) for a, b in draw(vertex_pairs) if L[a, b] == 0]
    if zeros:  # stored in both triangles, as a Laplacian with a cancelled edge would hold them
        C, (r, c) = L.tocoo(), np.array(zeros).T
        L = sp.csr_matrix((np.concatenate([C.data, np.zeros(2 * r.size)]),
                           (np.concatenate([C.row, r, c]), np.concatenate([C.col, c, r]))), shape=(n, n))
        assert np.count_nonzero(L.data == 0) > 0
    mask = draw(st.sampled_from(["random", "all", "none"]))
    if mask == "random":
        inside = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        inside = np.full(n, mask == "all")
    return L, inside


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


_G2O_TAGS = {2: ("VERTEX_SE2", "EDGE_SE2"), 3: ("VERTEX_SE3:QUAT", "EDGE_SE3:QUAT")}
_quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-3)
_spellings = st.sampled_from(["{!r}", "{:.17g}", "{:.6f}", "{:g}"])  # ways a file may write a number


@st.composite
def g2o_records(draw):
    """(d, records, fillers) of a g2o file; each record is its list of tokens.

    The file holds vertices only, edges only or both, in any order.
    Vertex ids may repeat with different poses. Information matrices are
    isotropic or not, with or without off-diagonal entries. fillers[k]
    is a comment, blank or whitespace line before record k (or at the
    end), or None for no line.
    """
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["vertices", "edges", "mixed"]))
    n = draw(st.integers(1 if kind == "vertices" else 2, 8))
    vertex_tag, edge_tag = _G2O_TAGS[d]

    def numbers(values):
        return [draw(_spellings).format(float(x)) for x in values]

    def pose():
        rotation = [draw(st.floats(-3.0, 3.0))] if d == 2 else draw(_quaternions)
        return [draw(_coords) for _ in range(d)] + rotation

    def information():
        k = d + d * (d - 1) // 2  # translation block, then rotation block
        diag = []
        for size in (d, k - d):
            diag += [draw(_weights)] * size if draw(st.booleans()) else [draw(_weights) for _ in range(size)]
        M = np.diag(diag)
        if draw(st.booleans()):
            off = np.triu(np.array(draw(st.lists(_coords, min_size=k * k, max_size=k * k))).reshape(k, k), 1)
            M = M + off + off.T
        return [M[r, c] for r in range(k) for c in range(r, k)]

    records = []
    if kind != "edges":
        ids = list(range(n)) if kind == "vertices" else draw(st.lists(st.integers(0, n - 1), max_size=n))
        ids += draw(st.lists(st.integers(0, n - 1), max_size=3))  # repeated ids
        records += [[vertex_tag, str(v)] + numbers(pose()) for v in ids]
    if kind != "vertices":
        records += [[edge_tag, str(i), str(j)] + numbers(pose() + information())
                    for i, j in draw(connected_pairs(n))]
    records = [records[k] for k in draw(st.permutations(range(len(records))))]
    filler = st.sampled_from([None, None, "", "# a comment", "   \t", "#VERTEX_SE2 0 0 0 0"])
    fillers = draw(st.lists(filler, min_size=len(records) + 1, max_size=len(records) + 1))
    return d, records, fillers


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


def _g2o_text(records, fillers):
    """The file text, and the line number of each record."""
    lines, record_lines = [], []
    for filler, record in zip(fillers, records + [None]):
        if filler is not None:
            lines.append(filler)
        if record is not None:
            lines.append(" ".join(record))
            record_lines.append(len(lines))
    return "\n".join(lines) + "\n", record_lines


def _load_both(text):
    """What the per-record loader and load_g2o return for a file: (g, poses) or the GraphError message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.g2o")
        with open(path, "w") as fh:
            fh.write(text)
        for load in (_ref_load_g2o, load_g2o):
            try:
                outcomes.append(load(path))
            except GraphError as exc:
                outcomes.append(str(exc))
    return outcomes


def _assert_same_load(ref, got):
    if isinstance(ref, str):
        assert got == ref
        return
    (g, poses), (g2, poses2) = ref, got
    assert (g2.d, g2.n) == (g.d, g.n)
    pairs = [(getattr(g, name), getattr(g2, name)) for name in ("I", "J", "R_tilde", "t_tilde", "kappa", "tau")]
    assert (poses is None) == (poses2 is None)
    if poses is not None:
        pairs += [(poses[0].mats, poses2[0].mats), (poses[1], poses2[1])]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@FEW
@given(g2o_records())
def test_load_g2o_matches_the_per_record_loader(case):
    d, records, fillers = case
    _assert_same_load(*_load_both(_g2o_text(records, fillers)[0]))


@FEW
@given(g2o_records(), st.sampled_from(["tag", "number", "count", "dimension", "ids", "quaternion"]), st.data())
def test_malformed_g2o_gives_the_per_record_loader_message(case, fault, data):
    """One fault per file. Two differences are by design: a planar vertex's
    field count is checked before its numbers are unpacked, and a zero
    quaternion names its line."""
    d, records, fillers = case
    records = [list(r) for r in records]
    k = data.draw(st.integers(0, len(records) - 1))
    record = records[k]
    id_count = 2 if record[0].startswith("EDGE") else 1
    if fault == "tag":
        record[0] = data.draw(st.sampled_from(["EDGE_SE3", "VERTEX", "edge_se2", "FIX"]))
    elif fault == "number":
        record[data.draw(st.integers(1, len(record) - 1))] = data.draw(st.sampled_from(["one", "1..5", "0x1", "1.5"]))
    elif fault == "count":
        if data.draw(st.booleans()):
            record.pop()
        else:
            record.append("1")
    elif fault == "dimension":  # a vertex record of the other dimension
        records.insert(k, [_G2O_TAGS[5 - d][0], "0"] + ["1"] * (7 if d == 2 else 3))
    elif fault == "ids":
        for r in records:
            n_ids = 2 if r[0].startswith("EDGE") else 1
            r[1:1 + n_ids] = [str(int(v) + 1) for v in r[1:1 + n_ids]]
    elif d == 3:
        record[1 + id_count + 3:1 + id_count + 7] = ["0", "0.0", "-0", "0e3"]
    text, record_lines = _g2o_text(records, fillers)
    ref, got = _load_both(text)
    if isinstance(ref, str):
        ref = re.sub(r"not enough values to unpack \(expected 3, got \d\)", "field count", ref)
        if ref == "zero quaternion":
            ref = f"line {record_lines[k]}: zero quaternion"
    _assert_same_load(ref, got)


# Spellings of a number token that Python's int or float reads and numpy's reader
# may not: digit-group underscores, Arabic-Indic digits, an implied zero before
# the point, special values, a '#' inside the payload and a non-BMP character.
# Whitespace is ASCII, or in some files Unicode spaces too.
_RESPELLINGS = {
    "underscore": lambda t: re.sub(r"^([+-]?)(?=\d)", r"\g<1>0_", t),
    "unicode digits": lambda t: "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in t),
    "implied zero": lambda t: re.sub(r"^([+-]?)0\.", lambda m: (m.group(1) or "+") + ".", t),
    "hash": lambda t: "#" + t,
    "astral": lambda t: "\U0010ffff" + t,
}
_SPECIALS = ["Infinity", "-Infinity", "-nan", "+NaN", "inf"]
_SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b", "\x0c"]
_UNICODE_SPACES = ["\xa0", "\u2003"]


@FEW
@given(g2o_records(), st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_load_g2o_matches_the_per_record_loader_on_any_number_syntax(case, newline, data):
    """Respelled numbers, a tag without its fields, any whitespace between and before the tokens,
    and CRLF or CR line ends: the same arrays, or the same message, as the per-record loader.
    Special values go only into translation slots, where neither loader computes with them."""
    d, records, fillers = case
    kinds = data.draw(st.lists(st.sampled_from([*_RESPELLINGS, "special"]), max_size=2, unique=True))  # per file
    spaces = _SEPARATORS + (_UNICODE_SPACES if data.draw(st.booleans()) else [])
    bare = data.draw(st.none() | st.none() | st.none() | st.integers(0, len(records) - 1))  # a record as its tag alone
    lines = []
    for r, (filler, record) in enumerate(zip(fillers, records + [None])):
        if filler is not None:
            lines.append(filler)
        if record is None:
            continue
        tokens = record[:1] if r == bare else list(record)
        id_count = 2 if tokens[0].startswith("EDGE") else 1
        for k in range(1, len(tokens)):
            how = data.draw(st.sampled_from([None] * 2 + kinds))
            if how == "special" and id_count < k <= id_count + d:
                tokens[k] = data.draw(st.sampled_from(_SPECIALS))
            elif how in _RESPELLINGS:
                tokens[k] = _RESPELLINGS[how](tokens[k])
        line = tokens[0]
        for token in tokens[1:]:
            line += data.draw(st.sampled_from(spaces)) + token
        lines.append(data.draw(st.sampled_from(["", *spaces])) + line)
    _assert_same_load(*_load_both(newline.join(lines) + newline))


_EDGE = "1 0 0.3 2 0 0 2 0 4"  # the numbers of an EDGE_SE2 record


@pytest.mark.parametrize("text", [
    "VERTEX_SE2 0 0 0 0\nVERTEX_SE2\nVERTEX_SE2 1 0 0 0\n",  # a tag alone among plain records
    "VERTEX_SE2 0 0 0 0\nVERTEX_SE2  \t\nVERTEX_SE2 1 0 0 0\n",
    f"EDGE_SE2 0 1 {_EDGE} x\nVERTEX_SE2 0 y 0 0\n",  # both tags refused; the edge's line comes first
    f"VERTEX_SE2 0 0_0 0 0\nEDGE_SE2 0 1 {_EDGE} #\nVERTEX_SE2 1 y 0 0\n",
    f"EDGE_SE2 0 1 {_EDGE[:-1]}x\nFIX 0\n",  # a bad number before an unknown tag
    f"FIX 0\nEDGE_SE2 0 1 {_EDGE[:-1]}x\n",
    f"EDGE_SE2 0 0_1 {_EDGE}\r\nVERTEX_SE2\t0\t+.5\t\u0661\t-nan\r\n",  # Python's syntax, numpy refuses
    f"EDGE_SE2 0 1\t{_EDGE}\n\t VERTEX_SE2 1 Infinity 0 0\n# VERTEX_SE2 2 0 0 0\n",  # ASCII only: numpy reads it
    "VERTEX_SE2 \U0010ffff0 0 0 0\n",  # a non-BMP character where numpy's integer parser would read out of bounds
])
def test_load_g2o_matches_the_per_record_loader_on_irregular_files(text):
    _assert_same_load(*_load_both(text))


@pytest.mark.parametrize("bad_first", [True, False])
def test_load_g2o_reports_what_comes_first_before_undecodable_text(tmp_path, bad_first):
    """A bad record before text that does not decode is reported, after it the decode error, as by the
    per-record loader. The plain records push the undecodable byte past the first block the reader decodes."""
    bad, plain = b"VERTEX_SE2 0 x 0 0\n", b"VERTEX_SE2 0 0 0 0\n" * 2000
    p = tmp_path / "f.g2o"
    p.write_bytes(bad + plain + b"\xff\n" if bad_first else plain + b"\xff\n" + bad)
    outcomes = []
    for load in (_ref_load_g2o, load_g2o):
        try:
            load(str(p))
            outcomes.append(None)
        except (GraphError, UnicodeError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("vertex_id", [str(2**63), "-" + str(2**70), "1" + "0" * 30])
def test_g2o_id_beyond_intp_is_not_contiguous(tmp_path, vertex_id):
    p = tmp_path / "huge.g2o"
    p.write_text(f"VERTEX_SE2 0 0 0 0\nVERTEX_SE2 {vertex_id} 0 0 0\n")
    with pytest.raises(GraphError, match="^vertex ids are not contiguous from 0$"):
        load_g2o(str(p))


@FEW
@given(tree_init_graphs())
def test_spanning_tree_init_matches_the_queue_walk(g):
    """The same tree and products, byte for byte, or the same error for a disconnected graph."""
    _same_outcome(lambda: spanning_tree_init(g).mats, lambda: _ref_spanning_tree_init(g).mats)


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
    rows = dd.separator_rows_by_owner(g, part)
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
@given(weighted_laplacians(), st.integers(1, 3), st.integers(0, 99))
def test_single_robot_solve_matches_grounded_loop(case, k, seed):
    n, pairs, L = case
    blocks, server = dd.build_blocks(L, Partition.from_owner(np.zeros(n, dtype=int), pairs))
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, k))
    B -= B.mean(axis=0)
    dd.sparsified_schur(blocks, server)
    _same_outcome(lambda: dd.solve(blocks, server, B), lambda: _ref_single_robot_solve(L, B))
    _same_outcome(lambda: solve_grounded(L, B), lambda: _ref_single_robot_solve(L, B))


@FEW
@given(measurement_graphs(), st.sampled_from(["geodesic", "chordal"]), st.integers(0, 99))
def test_single_robot_collaborative_solve_is_the_centralized_loop(g, distance, seed):
    p = g.d * (g.d - 1) // 2
    R0 = RotationState(exp_map_batch(np.random.default_rng(seed).standard_normal((g.n, p))))
    config = SolverConfig(distance=distance, grad_tol=1e-8, max_iters=3)
    one_robot = Partition.from_owner(np.zeros(g.n, dtype=int), g.pairs)
    try:
        R_ref, ref = _ref_centralized_solve(g, R0, config)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as got:
            collaborative_solve(g, one_robot, R0, config)
        assert str(got.value) == str(exc)
        return
    R, trace = collaborative_solve(g, one_robot, R0, config)
    assert R.mats.tobytes() == R_ref.mats.tobytes()
    assert repr(trace.rows) == repr(ref.rows)
    assert (trace.converged, trace.iterations) == (ref.converged, ref.iterations)


@FEW
@given(measurement_graphs())
def test_single_robot_translation_sweep_is_the_exact_solve(g):
    # one sweep from zero is one grounded solve; only the final re-centring moves the last bits
    R_hat = spanning_tree_init(g)
    one_robot = Partition.from_owner(np.zeros(g.n, dtype=int), g.pairs)
    config = SolverConfig(grad_tol=0.0, max_iters=1)
    try:
        ref = exact_translation_solve(g, R_hat)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as got:
            collaborative_translation_solve(g, one_robot, R_hat, config)
        assert str(got.value) == str(exc)
        return
    M, _ = collaborative_translation_solve(g, one_robot, R_hat, config)
    assert np.abs(M - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


_unit_weights = st.floats(min_value=1e-4, max_value=1e10)


@given(measurement_graphs(), st.data(), st.integers(0, 2**32 - 1), st.sampled_from([GEODESIC, CHORDAL]))
def test_rhs_column_sums_are_round_off_of_the_edge_terms(g, data, seed, kind):
    """The split solve takes each rhs's column sums off its row 0. That removes round-off only: for both stages the
    sums stay within a few ulps of the summed magnitudes of the per-edge terms the rhs adds up, at any weight scale."""
    weights = st.lists(_unit_weights, min_size=g.m, max_size=g.m)
    g.kappa, g.tau = np.array(data.draw(weights)), np.array(data.draw(weights))
    R = RotationState(exp_map_batch(2.0 * np.random.default_rng(seed).standard_normal((g.n, g.p))))
    ulps = 16 * np.finfo(float).eps
    B, _ = _gradient_and_cost(g, R, kind)
    _, g_i, g_j = _edge_gradients(R.mats[g.I], R.mats[g.J], g.R_tilde, kind)
    assert np.abs(B.sum(axis=0)).max() <= ulps * np.sum(g.kappa * (row_norms(g_i) + row_norms(g_j)))
    T = assemble_translation_rhs(g, R)
    assert np.abs(T.sum(axis=0)).max() <= ulps * np.sum(2 * g.tau * row_norms(_rotated_measurements(g, R)))


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
# The SPD factor behind every Laplacian block

_moderate = st.floats(min_value=1e-2, max_value=1e2)


def _robots(draw, n, pairs, min_robots=1):
    """A partition of n vertices among min_robots..3 robots, each owning at least one vertex."""
    m = min(draw(st.integers(min_robots, 3)), n)
    return Partition.from_owner(np.array(draw(st.permutations(range(n)))) % m, pairs)


def _centred(rng, n, k):
    B = rng.standard_normal((n, k))
    return B - B.mean(axis=0)


@FEW
@given(weighted_laplacians(_moderate), st.data(), st.integers(0, 99))
def test_exact_split_solve_matches_the_pseudoinverse(case, data, seed):
    n, pairs, L = case
    blocks, server = dd.build_blocks(L, _robots(data.draw, n, pairs))
    dd.sparsified_schur(blocks, server)
    B = _centred(np.random.default_rng(seed), n, 3)
    X = dd.solve(blocks, server, B)
    ref = np.linalg.pinv(L.toarray()) @ B
    assert np.abs((X - X.mean(axis=0)) - ref).max() <= 1e-9 * np.abs(ref).max()


@given(masked_laplacians())
def test_detached_matches_the_hub_graph(case):
    L, inside = case
    got, ref = _detached(L, inside), _ref_detached(L, inside)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@FEW
@given(weighted_laplacians(_moderate), st.lists(_moderate, min_size=1, max_size=5), st.data())
def test_detached_interior_path_names_its_robot(case, path_weights, data):
    """A weighted path owned by one of several robots and touching no separator is a singular interior block.

    Its last pivot is round-off rather than zero, so only the structure
    can tell; the error must come before any split solve.
    """
    n, pairs, L = case
    part = _robots(data.draw, n, pairs, min_robots=2)
    k = len(path_weights) + 1
    path = WeightedGraph.from_edge_list(k, [(i, i + 1) for i in range(k - 1)], path_weights)
    L_all = sp.block_diag([L, laplacian(path)], format="csr")
    robot = data.draw(st.integers(0, part.m - 1))
    part = Partition.from_owner(np.concatenate([part.owner, np.full(k, robot)]), pairs)
    with pytest.raises(NumericalError, match=rf"^robot {robot} interior block is singular"):
        blocks, server = dd.build_blocks(L_all, part)
        dd.sparsified_schur(blocks, server)


@FEW
@given(weighted_laplacians(_moderate), st.sampled_from(dd.SCHUR_MODES), st.integers(0, 99))
def test_reduced_solve_of_every_mode_is_exact_and_checked(case, mode, seed):
    """The server solves its reduced system exactly, whether Laplacian-like (grounded) or not, and checks the residual."""
    n, pairs, L = case
    blocks, server = dd.build_blocks(L, Partition.from_owner(np.arange(n) * 2 // n, pairs), mode=mode)
    dd.sparsified_schur(blocks, server)
    S = server.S_tilde.toarray()
    U = _centred(np.random.default_rng(seed), S.shape[0], 2)
    # rcond drops the round-off eigenvalue of a Laplacian-like S; otherwise this is the inverse
    ref = np.linalg.pinv(S, 1e-10, hermitian=True) @ U
    ref -= ref.mean(axis=0)
    assert np.abs(server.reduced_solve(U) - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1e-300)
    if S.shape[0] > 1:
        U[-1, 0] = np.nan
        with pytest.raises(NumericalError, match="^reduced solve residual nan$"):
            server.reduced_solve(U)


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
def tangent_batches(draw, branches, d=None, max_rows=6):
    """(d, V): up to max_rows tangent vectors, each with its angle in one of the branches, in 2D or 3D."""
    d = draw(st.sampled_from([2, 3])) if d is None else d
    p = d * (d - 1) // 2
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        angle = draw(_BRANCH_ANGLES[draw(st.sampled_from(branches))])
        if p == 1:
            rows.append([angle if draw(st.booleans()) else -angle])
        else:
            axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
            if np.linalg.norm(axis) < 1e-3:
                axis = np.array([0.0, 0.0, 1.0])
            rows.append(angle * axis / np.linalg.norm(axis))
    return d, np.array(rows)


_MIXED = sorted(_BRANCH_ANGLES)


def _assert_exp_matches_reference(v, R):
    """R = exp_map_batch(v[None])[0] equals the scalar reference, bar the reference's pow.

    The reference takes (1 - cos theta) / theta**2 with the scalar
    theta**2, which libm's pow rounds differently from theta * theta for
    about 0.1% of angles. One ulp in that coefficient moves an entry by
    at most (1 - cos theta) eps <= 2 eps, and the two roundings after it
    by at most eps each.
    """
    ref = _ref_exp_map(v)
    theta = np.linalg.norm(v)
    if v.shape == (1,) or theta < 1e-8 or theta**2 == theta * theta:
        assert np.array_equal(R, ref)
    else:
        assert np.abs(R - ref).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("branch", [*_MIXED, "mixed"])
def test_exp_log_round_trip_batch_against_scalar(branch):
    @FEW
    @given(tangent_batches(_MIXED if branch == "mixed" else [branch], max_rows=12 if branch == "mixed" else 6))
    def check(case):
        d, V = case
        Rs = exp_map_batch(V)
        W = log_map_batch(Rs)
        for v, R, w in zip(V, Rs, W):
            scale = np.linalg.norm(v)
            assert np.array_equal(exp_map(v), R) and np.array_equal(log_map(R), w)  # the one-row cases
            _assert_exp_matches_reference(v, R)
            assert np.array_equal(w, _ref_log_map(R))
            assert np.linalg.norm(w - v) <= 1e-9 * scale
            assert np.abs(exp_map(log_map(R)) - R).max() <= 1e-12
            assert np.abs(R.T @ R - np.eye(d)).max() <= 1e-12

    check()


@FEW
@given(tangent_batches(_MIXED, max_rows=12), st.lists(st.tuples(st.integers(0, 12), st.floats(math.pi - 5e-7, math.pi)),
                                                     max_size=3))
def test_log_map_batch_rows_or_error_match_the_scalar_reference(case, at_pi):
    """Rows equal the reference bit for bit, or the error is the first row's beyond 1e-6 of pi."""
    d, V = case
    rows = list(V)
    for k, angle in at_pi:
        rows.insert(min(k, len(rows)), rows[0] * angle / np.linalg.norm(rows[0]))
    Rs = exp_map_batch(np.array(rows))
    _same_outcome(lambda: log_map_batch(Rs), lambda: np.array([_ref_log_map(R) for R in Rs]))


@FEW
@given(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-3),
                min_size=1, max_size=12))
def test_rots_to_quats_rows_match_the_scalar_reference(Q):
    """Every pivot (w and each diagonal slot) can meet in one batch; each row takes its own."""
    Rs = _quats_to_rots(np.array(Q))
    quats = _rots_to_quats(Rs)
    for R, q in zip(Rs, quats):
        assert np.array_equal(q, _ref_rot_to_quat(R)) and np.array_equal(_rots_to_quats(R[None])[0], q)


@FEW
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(tangent_batches(_MIXED, d, 12),
                                                           tangent_batches(["generic"], d, 12))))
def test_edge_hessians_match_the_scalar_reference(cases):
    """Residuals in every branch, zero-residual limit included; R_tilde = R_i^T R_j Exp(-v)."""
    (d, V), (_, starts) = cases
    m = len(V)
    R_i = exp_map_batch(np.resize(starts, V.shape))
    R_j = exp_map_batch(V[::-1]) @ R_i
    R_tilde = np.swapaxes(R_i, 1, 2) @ R_j @ exp_map_batch(-V)
    for kind in (GEODESIC, CHORDAL):
        H = _edge_hessians(R_i, R_j, R_tilde, kind)
        for k in range(m):
            ref = _ref_edge_hessian(R_i[k], R_j[k], R_tilde[k], kind)
            assert np.abs(H[k] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert np.array_equal(edge_hessian(R_i[k], R_j[k], R_tilde[k], kind), H[k])


@FEW
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-3))
def test_quaternion_round_trip_up_to_sign(q):
    q = np.array(q) / np.linalg.norm(q)
    R = _quats_to_rots(q[None])[0]
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12 and np.linalg.det(R) > 0
    q2 = _rots_to_quats(R[None])[0]
    assert q2[3] >= 0
    assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) <= 1e-12  # q and -q are one rotation
    assert np.abs(_quats_to_rots(q2[None])[0] - R).max() <= 1e-12


# ---------------------------------------------------------------------------
# The gauge-fixed second-order path: the Newton step and the curvature report
# against the explicit-projector forms they replaced.

def _noisy_problem(side, d, sigma_deg, seed):
    g, _ = generate_grid(SyntheticSpec(side=side, d=d, sigma_rot=np.deg2rad(sigma_deg), edge_prob=0.3, seed=seed))
    return g, spanning_tree_init(g)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_gauge_fixed_is_the_dense_projection(p, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    A = rng.standard_normal((n * p, n * p))
    A = A + A.T
    shift = float(rng.uniform(0.1, 10.0))
    ones_dir = np.tile(np.eye(p), (n, 1)) / math.sqrt(n)
    Pn = ones_dir @ ones_dir.T
    Ph = np.eye(n * p) - Pn
    ref = Ph @ A @ Ph + shift * Pn
    assert np.abs(_gauge_fixed(A, p, shift) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("sigma_deg", [5.0, 15.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_newton_step_matches_the_explicit_projector_step(side, d, sigma_deg):
    """Equal steps and one-step ledgers, or the same indefinite-Hessian error (3D at 15 degrees from side 4 up)
    from both the step and newton_solve."""
    g, R = _noisy_problem(side, d, sigma_deg, side)
    part = partition_contiguous(g, 3)
    for kind in (GEODESIC, CHORDAL):
        config = SolverConfig(distance=kind.name, max_iters=1, grad_tol=0.0)
        try:
            ref = _ref_exact_newton_step(g, R, kind)
        except NumericalError as exc:
            for run in (lambda: exact_newton_step(g, R, kind), lambda: newton_solve(g, part, R, config)):
                with pytest.raises(NumericalError) as got:
                    run()
                assert str(got.value) == str(exc)
            continue
        got = exact_newton_step(g, R, kind)
        assert np.abs(got.mats - ref.mats).max() <= 1e-12
        ref_ledger = dd.CommsLedger()
        ref_ledger.begin_round()  # newton_solve's first step meters into round 1
        _ref_newton_schur_rows(g, R, kind, part, ref_ledger)
        R1, trace = newton_solve(g, part, R, config)
        assert np.array_equal(R1.mats, got.mats)
        assert trace.ledger.events == ref_ledger.events and ref_ledger.total_scalars() > 0


@pytest.mark.parametrize("d, side", [(2, 5), (3, 3), (3, 4)])
@pytest.mark.parametrize("sigma_deg", [0.0, 5.0, 20.0, 60.0])
def test_hessian_report_matches_the_orthonormal_basis_report(d, side, sigma_deg):
    g, R = _noisy_problem(side, d, sigma_deg, 5)
    for kind in (GEODESIC, CHORDAL):
        rep = hessian_report(g, R, kind)
        delta, kappa = _ref_hessian_delta_kappa(g, R, kind)
        assert rep.kernel_match == math.isfinite(delta)
        if rep.kernel_match:
            assert abs(rep.delta_empirical - delta) <= 1e-12 * max(delta, 0.1)
            assert rep.kappa == pytest.approx(kappa, rel=1e-12)
        else:
            assert rep.delta_empirical == rep.kappa == math.inf
