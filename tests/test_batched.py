"""Batched per-edge kernels against the per-edge loops they replaced.

The references below are the loop forms of the gradient, retraction,
translation and RMSE code, built on the scalar exp_map and log_map, and
the batched gradient with its stack products taken by np.matmul. The
batched code sums in another order in places, so results must agree to
1e-12 relative rather than bit for bit. The dense robot elimination is
kept as the reference for the sparse Schur routine, which does the same
arithmetic and must agree bit for bit. The exp and log rows are checked
against the scalar references in test_properties.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lapra import decomposition as dd
from lapra.laplacians import WeightedGraph, laplacian, solve_grounded
from lapra.manifold import (
    NumericalError,
    RotationState,
    exp_map,
    exp_map_batch,
    log_map,
    log_map_batch,
    project_to_rotation,
    random_rotation,
)
from lapra.metrics import rotation_rmse
from lapra.pose_graph import GraphError, MeasurementGraph, Partition, scatter_edge_rows
from lapra.rotation import CHORDAL, GEODESIC, _apply_update, _edge_gradients, _gradient_and_cost, edge_gradient
from lapra.translation import assemble_translation_rhs, translation_cost
from test_properties import _assert_exp_matches_reference, _ref_log_map

REL = 1e-12


def _close(a, b, rel=REL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= rel * max(1.0, np.abs(b).max(initial=0.0))


# ---------------------------------------------------------------------------
# Loop references


def _ref_gradient_and_cost(g, R, kind):
    B = np.zeros((g.n, g.p))
    total = 0.0
    for i, j, R_tilde, kappa in zip(g.I, g.J, g.R_tilde, g.kappa):
        v = log_map(R_tilde.T @ R.mats[i].T @ R.mats[j])
        theta = float(np.linalg.norm(v))
        total += kappa * kind.rho(theta)
        if theta < 1e-8:
            continue
        u = v / theta
        rd = kind.rho_dot(theta)
        if g.p == 1:
            gi, gj = -rd * u, rd * u
        else:
            gi, gj = -rd * (R.mats[i] @ R_tilde @ u), rd * (R.mats[j] @ u)
        B[i] -= kappa * gi
        B[j] -= kappa * gj
    return B, total


def _ref_renormalize(mats):
    eye = np.eye(mats.shape[1])
    for i, R in enumerate(mats):
        if np.linalg.norm(R.T @ R - eye) > 1e-12:
            mats[i] = project_to_rotation(R)


def _ref_apply_update(R, V):
    mats = R.mats.copy()
    for i in range(R.n):
        mats[i] = exp_map(V[i]) @ mats[i]
    _ref_renormalize(mats)
    return mats


def _matmul_gradient_and_cost(g, R, kind):
    """The batched gradient and cost with every stack product taken by np.matmul."""
    R_i, R_j, R_tilde = R.mats[g.I], R.mats[g.J], g.R_tilde
    V = log_map_batch(np.swapaxes(R_tilde, 1, 2) @ np.swapaxes(R_i, 1, 2) @ R_j)
    theta = np.linalg.norm(V, axis=1)
    moving = theta >= 1e-8
    t = np.where(moving, theta, 1.0)
    U = V / t[:, None]
    rd = np.where(moving, kind.rho_dot(t), 0.0)[:, None]
    if g.p == 1:
        g_i, g_j = -rd * U, rd * U
    else:
        U = U[:, :, None]
        g_i, g_j = -rd * (R_i @ R_tilde @ U)[:, :, 0], rd * (R_j @ U)[:, :, 0]
    k = g.kappa[:, None]
    return scatter_edge_rows(g.n, g.I, g.J, -(k * g_i), -(k * g_j)), float(np.sum(g.kappa * kind.rho(theta)))


def _ref_translation_rhs(g, R_hat):
    B = np.zeros((g.n, g.d))
    for i, j, t_tilde, tau in zip(g.I, g.J, g.t_tilde, g.tau):
        w = tau * (R_hat.mats[i] @ t_tilde)
        B[j] += w
        B[i] -= w
    return B


def _ref_translation_cost(g, R_hat, t):
    total = 0.0
    for i, j, t_tilde, tau in zip(g.I, g.J, g.t_tilde, g.tau):
        r = t[j] - t[i] - R_hat.mats[i] @ t_tilde
        total += 0.5 * tau * float(r @ r)
    return total


def _ref_rotation_rmse(A, B, S):
    d = A.shape[1]
    frob_sq = ang_sq = 0.0
    for Ai, Bi in zip(A, B):
        frob_sq += np.sum((S @ Ai - Bi) ** 2)
        cos = (np.trace(S @ Ai @ Bi.T) - (d - 2)) / 2.0
        ang_sq += math.acos(min(1.0, max(-1.0, cos))) ** 2
    return math.degrees(math.sqrt(ang_sq / len(A))), math.sqrt(frob_sq / len(A))


def _ref_schur_contribution(blk):
    if blk.interior.size == 0:
        return blk.Lcc_local.copy()
    cols = np.flatnonzero(blk.adj_sep)
    L_adj = blk.L_ac[:, cols]
    X = blk.interior_solve(L_adj.toarray())
    S = blk.Lcc_local.toarray()
    S[np.ix_(cols, cols)] -= L_adj.T @ X
    S = (S + S.T) / 2.0
    S[np.abs(S) < 1e-14 * max(1.0, np.abs(S).max())] = 0.0
    return sp.csr_matrix(S)


# ---------------------------------------------------------------------------
# Inputs


def _tangent(rng, p, angle):
    v = rng.standard_normal(p)
    return angle * v / np.linalg.norm(v)


# residual angles covering every branch: zero, below 1e-8, the log series
# below 1e-4, generic, and beyond the 2.9 rad near-pi switch
_ANGLES = (0.0, 3e-9, 5e-5, 0.3, 1.7, 2.95, 3.1)


def _random_problem(d, seed, n=14, extra=12):
    """Connected graph whose edge residuals at the returned rotations span every branch."""
    rng = np.random.default_rng(seed)
    p = d * (d - 1) // 2
    R = RotationState(np.stack([random_rotation(d, rng) for _ in range(n)]))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}  # random spanning tree
    while len(pairs) < n - 1 + extra:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        if (i, j) not in pairs and (j, i) not in pairs:
            pairs.add((i, j))
    pairs = sorted(pairs)
    R_tilde, t_tilde, kappa, tau = [], [], [], []
    for k, (i, j) in enumerate(pairs):
        angle = _ANGLES[k % len(_ANGLES)]
        noise = exp_map(_tangent(rng, p, angle)) if angle > 0 else np.eye(d)
        R_tilde.append(R.mats[i].T @ R.mats[j] @ noise.T)
        t_tilde.append(rng.standard_normal(d))
        kappa.append(float(rng.uniform(0.5, 2.0)))
        tau.append(float(rng.uniform(0.5, 2.0)))
    I, J = np.array(pairs).T
    g = MeasurementGraph(d, n, I, J, R_tilde, t_tilde, kappa, tau)
    g.validate()
    return g, R


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [GEODESIC, CHORDAL], ids=lambda k: k.name)
@pytest.mark.parametrize("seed", range(4))
def test_gradient_and_cost_match_edge_loop(d, kind, seed):
    g, R = _random_problem(d, seed)
    B_ref, cost_ref = _ref_gradient_and_cost(g, R, kind)
    B, cost = _gradient_and_cost(g, R, kind)
    _close(B, B_ref)
    _close(cost, cost_ref)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [GEODESIC, CHORDAL], ids=lambda k: k.name)
@pytest.mark.parametrize("seed", range(4))
def test_gradient_and_retraction_match_matmul_stack_products(d, kind, seed):
    g, R = _random_problem(d, seed)  # zero-residual edges and residuals of 2.95 and 3.1 rad
    B_ref, cost_ref = _matmul_gradient_and_cost(g, R, kind)
    B, cost = _gradient_and_cost(g, R, kind)
    _close(B, B_ref)
    _close(cost, cost_ref)
    V = solve_grounded(laplacian(WeightedGraph.from_edge_list(g.n, g.pairs, g.kappa)), B)
    for step in (V, 3.0 * V / np.abs(V).max()):  # the solver's step, and one with entries up to 3 rad
        ref = exp_map_batch(step) @ R.mats
        _ref_renormalize(ref)
        _close(_apply_update(R, step).mats, ref)


def test_problem_covers_every_residual_branch():
    for d in (2, 3):
        g, R = _random_problem(d, 0)
        V = log_map_batch(np.swapaxes(g.R_tilde, 1, 2) @ np.swapaxes(R.mats[g.I], 1, 2) @ R.mats[g.J])
        theta = np.linalg.norm(V, axis=1)
        assert (theta < 1e-8).sum() >= 2
        assert ((theta > 1e-8) & (theta < 1e-4)).any()
        assert (theta >= 2.9).sum() >= 2


@pytest.mark.parametrize("d", [2, 3])
def test_edge_gradient_is_the_single_edge_case(d):
    g, R = _random_problem(d, 5)
    for kind in (GEODESIC, CHORDAL):
        for k in range(g.m):
            e = slice(k, k + 1)
            one = MeasurementGraph(d, g.n, g.I[e], g.J[e], g.R_tilde[e], g.t_tilde[e], g.kappa[e], g.tau[e])
            i, j, kappa = g.I[k], g.J[k], g.kappa[k]
            gi, gj = edge_gradient(R.mats[i], R.mats[j], g.R_tilde[k], kind)
            B, _ = _gradient_and_cost(one, R, kind)
            assert np.array_equal(B[i], -kappa * gi) and np.array_equal(B[j], -kappa * gj)


@pytest.mark.parametrize("kind", [GEODESIC, CHORDAL], ids=lambda k: k.name)
@pytest.mark.parametrize("seed", range(4))
def test_3d_gradient_takes_both_ends_from_one_product(kind, seed):
    """g_j = rd (R_i R_tilde) U equals the two-product form rd R_j U, since R_j = (R_i R_tilde) Q and Q U = U; the
    residuals span every log_map_batch branch (below 1e-8, the series below 1e-4, generic, beyond 2.9 rad)."""
    g, R = _random_problem(3, seed)
    R_i, R_j = R.mats[g.I], R.mats[g.J]
    V = np.array([_ref_log_map(Q) for Q in np.swapaxes(g.R_tilde, 1, 2) @ np.swapaxes(R_i, 1, 2) @ R_j])
    theta = np.linalg.norm(V, axis=1)
    assert (theta < 1e-8).any() and ((theta > 1e-8) & (theta < 1e-4)).any() and (theta >= 2.9).any()
    moving = theta >= 1e-8
    U = V / np.where(moving, theta, 1.0)[:, None]
    rd = np.where(moving, kind.rho_dot(theta), 0.0)[:, None]
    _, g_i, g_j = _edge_gradients(R_i, R_j, g.R_tilde, kind)
    _close(g_j, rd * (R_j @ U[:, :, None])[:, :, 0])
    _close(g_i, -rd * (R_i @ g.R_tilde @ U[:, :, None])[:, :, 0])
    assert np.array_equal(g_i, -g_j)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("drift", [0.0, 1e-13])
def test_planar_residual_from_first_columns_matches_the_full_logarithm(seed, drift):
    """With the geodesic distance g_j is the residual angle phi of R_tilde^T R_i^T R_j, taken here from the first
    columns alone; it matches the logarithm of the full product to 1e-12, also on blocks drifted off the group."""
    g, R = _random_problem(2, seed)
    rng = np.random.default_rng(seed)
    R_i, R_j, R_tilde = (M + drift * rng.standard_normal(M.shape) for M in (R.mats[g.I], R.mats[g.J], g.R_tilde))
    phi = np.array([_ref_log_map(Q)[0] for Q in np.swapaxes(R_tilde, 1, 2) @ np.swapaxes(R_i, 1, 2) @ R_j])
    assert (np.abs(phi) < 1e-8).any() and (np.abs(phi) >= 2.9).any()
    moving = np.abs(phi) >= 1e-8
    for args in ((R_i, R_j, R_tilde), (R_i[:, :, 0], R_j[:, :, 0], R_tilde[:, :, 0])):  # stacks or first columns
        rho, g_i, g_j = _edge_gradients(*args, GEODESIC)
        assert g_j.shape == (g.m, 1) and np.array_equal(g_i, -g_j)
        _close(g_j[:, 0], np.where(moving, phi, 0.0))
        _close(rho, 0.5 * phi**2)
        _, _, c_j = _edge_gradients(*args, CHORDAL)
        _close(c_j[:, 0], np.where(moving, 2.0 * np.sin(phi), 0.0))


def test_planar_residual_near_pi_raises_at_the_first_such_edge():
    g, R = _random_problem(2, 0)
    R_tilde = g.R_tilde.copy()
    for k, angle in ((3, math.pi - 5e-7), (6, -(math.pi - 2e-7))):  # residual angle -angle at edges 3 and 6
        R_tilde[k] = R.mats[g.I[k]].T @ R.mats[g.J[k]] @ exp_map(np.array([angle]))
    g.R_tilde = R_tilde
    Q = R_tilde[3].T @ R.mats[g.I[3]].T @ R.mats[g.J[3]]
    with pytest.raises(NumericalError) as want:
        _ref_log_map(Q)
    for call in (lambda: _gradient_and_cost(g, R, GEODESIC),
                 lambda: edge_gradient(R.mats[g.I[3]], R.mats[g.J[3]], R_tilde[3], CHORDAL)):
        with pytest.raises(NumericalError) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("p", [1, 3])
def test_exp_map_batch_matches_scalar_rows(p):
    rng = np.random.default_rng(11)
    V = np.stack([_tangent(rng, p, a) for a in (*_ANGLES, 1e-12, 0.0, 6.0)])
    Rs = exp_map_batch(V)
    assert Rs.shape == (len(V), p if p == 3 else 2, p if p == 3 else 2)
    for v, R in zip(V, Rs):
        _assert_exp_matches_reference(v, R)


@pytest.mark.parametrize("d", [2, 3])
def test_log_map_batch_matches_scalar_rows(d):
    rng = np.random.default_rng(12)
    p = d * (d - 1) // 2
    Rs = np.stack([np.eye(d)] + [exp_map(_tangent(rng, p, a)) for a in (*_ANGLES, 1e-10, math.pi - 1e-5)])
    V = log_map_batch(Rs)
    assert V.shape == (len(Rs), p)
    for R, v in zip(Rs, V):
        assert np.array_equal(v, _ref_log_map(R))


@pytest.mark.parametrize("d", [2, 3])
def test_log_map_batch_raises_near_pi(d):
    p = d * (d - 1) // 2
    near = exp_map(np.full(p, (math.pi - 1e-7) / math.sqrt(p)))
    with pytest.raises(NumericalError):
        log_map(near)
    with pytest.raises(NumericalError):
        log_map_batch(np.stack([np.eye(d), near, np.eye(d)]))


@pytest.mark.parametrize("d", [2, 3])
def test_apply_update_matches_loop(d):
    rng = np.random.default_rng(13)
    p = d * (d - 1) // 2
    R = RotationState(np.stack([random_rotation(d, rng) for _ in range(20)]))
    V = rng.standard_normal((20, p))
    _close(_apply_update(R, V).mats, _ref_apply_update(R, V))


@pytest.mark.parametrize("d", [2, 3])
def test_apply_update_projects_exactly_the_drifted_blocks(d):
    rng = np.random.default_rng(14)
    n = 12
    R = RotationState(np.stack([random_rotation(d, rng) for _ in range(n)]))
    drifted = [1, 4, 5, 10]
    for i in drifted:
        R.mats[i] += 1e-9 * rng.standard_normal((d, d))
    R.mats[7] += 1e-15 * rng.standard_normal((d, d))  # drift below the 1e-12 threshold
    out = _apply_update(R, np.zeros((n, d * (d - 1) // 2)))  # exp(0) @ R == R exactly
    changed = [i for i in range(n) if not np.array_equal(out.mats[i], R.mats[i])]
    assert changed == drifted
    for i in drifted:
        assert np.array_equal(out.mats[i], project_to_rotation(R.mats[i]))
    assert np.array_equal(out.mats, _ref_apply_update(R, np.zeros((n, d * (d - 1) // 2))))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_translation_rhs_and_cost_match_edge_loop(d, seed):
    g, R = _random_problem(d, seed)
    t = np.random.default_rng(seed).standard_normal((g.n, d))
    _close(assemble_translation_rhs(g, R), _ref_translation_rhs(g, R))
    _close(translation_cost(g, R, t), _ref_translation_cost(g, R, t))


@pytest.mark.parametrize("d", [2, 3])
def test_rotation_rmse_matches_vertex_loop(d):
    rng = np.random.default_rng(15)
    p = d * (d - 1) // 2
    A = np.stack([random_rotation(d, rng) for _ in range(30)])
    B = np.stack([exp_map(_tangent(rng, p, 0.2)) @ a for a in A])
    err = rotation_rmse(A, B)
    deg, frob = _ref_rotation_rmse(A, B, err.alignment)
    _close(err.degrees, deg)
    _close(err.frobenius, frob)


def test_validate_names_the_first_offending_edge():
    I, J = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 3])
    R = np.stack([np.eye(3), np.eye(3), 2.0 * np.eye(3), np.eye(3)])
    t, ones = np.zeros((4, 3)), np.ones(4)
    with pytest.raises(GraphError, match="edge 2 rotation is not orthonormal"):
        MeasurementGraph(3, 4, I, J, R, t, ones, ones).validate()
    tau = np.array([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(GraphError, match="edge 1 has non-positive weight"):
        MeasurementGraph(3, 4, I, J, R, t, ones, tau).validate()
    with pytest.raises(GraphError, match="duplicate measurement between 0 and 1"):
        MeasurementGraph(3, 4, I, np.array([1, 0, 3, 3]), R, t, ones, ones).validate()
    # a rotation array of the wrong shape is refused as a whole
    with pytest.raises(GraphError, match=r"R_tilde has shape \(4, 2, 2\), expected \(4, 3, 3\)"):
        MeasurementGraph(3, 4, I, J, np.stack([np.eye(2)] * 4), t, ones, ones)
    g = MeasurementGraph(3, 4, I, J, R, t, ones, ones)
    g.R_tilde = g.R_tilde[:, :2, :2]
    with pytest.raises(GraphError, match=r"R_tilde has shape \(4, 2, 2\)"):
        g.validate()


@pytest.mark.parametrize("seed", range(8))
def test_schur_contribution_matches_dense_elimination(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}  # random spanning tree
    iu, ju = np.triu_indices(n, k=1)
    extra = rng.random(iu.size) < 0.15
    pairs = sorted(pairs | set(zip(iu[extra].tolist(), ju[extra].tolist())))
    L = laplacian(WeightedGraph.from_edge_list(n, pairs, rng.uniform(0.5, 2.0, size=len(pairs))))
    # two and m contiguous blocks, scattered owners (many empty interiors), one robot per vertex
    m = int(rng.integers(2, n + 1))
    owners = [np.arange(n) * 2 // n, np.arange(n) * m // n, rng.permutation(np.arange(n) % m), np.arange(n)]
    for owner in owners:
        part = Partition.from_owner(owner, pairs)
        blocks, server = dd.build_blocks(L, part)
        for blk in blocks:
            S, S_ref = blk.schur_contribution(), _ref_schur_contribution(blk)
            assert S.indptr.tobytes() == S_ref.indptr.tobytes()
            assert S.indices.tobytes() == S_ref.indices.tobytes()
            assert S.data.tobytes() == S_ref.data.tobytes()
        dd.sparsified_schur(blocks, server)
        B = rng.standard_normal((n, 2))
        B -= B.mean(axis=0)
        X = dd.solve(blocks, server, B)  # zero-mean on the separators, not overall
        _close(X - X.mean(axis=0), solve_grounded(L, B), rel=1e-9)
