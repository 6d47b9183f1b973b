import math

import numpy as np
import pytest

from lapra.decomposition import CommsLedger
from lapra.manifold import (
    NumericalError,
    RotationState,
    exp_map,
    exp_map_batch,
    geodesic_dist,
    random_rotation,
)
from lapra.metrics import c_epsilon, gamma_factor, rotation_rmse
from lapra.pose_graph import (
    GraphError,
    MeasurementGraph,
    Partition,
    SyntheticSpec,
    generate_grid,
    partition_contiguous,
    spanning_tree_init,
)
from lapra.rotation import (
    CHORDAL,
    GEODESIC,
    SolverConfig,
    _newton_schur_blocks,
    assemble_full_hessian,
    assemble_gradient_rhs,
    centralized_step,
    collaborative_solve,
    cost,
    distance_by_name,
    edge_gradient,
    edge_hessian,
    exact_newton_step,
    hessian_report,
    iterate,
    laplacian_weights,
    newton_solve,
)


def _edge_cost(R_i, R_j, R_tilde, kind):
    return kind.rho(geodesic_dist(R_i @ R_tilde, R_j))


def _fd_edge_gradient(R_i, R_j, R_tilde, kind, h=1e-6):
    p = 1 if R_i.shape[0] == 2 else 3
    gi, gj = np.zeros(p), np.zeros(p)
    for k in range(p):
        v = np.zeros(p)
        v[k] = h
        gi[k] = (
            _edge_cost(exp_map(v) @ R_i, R_j, R_tilde, kind)
            - _edge_cost(exp_map(-v) @ R_i, R_j, R_tilde, kind)
        ) / (2 * h)
        gj[k] = (
            _edge_cost(R_i, exp_map(v) @ R_j, R_tilde, kind)
            - _edge_cost(R_i, exp_map(-v) @ R_j, R_tilde, kind)
        ) / (2 * h)
    return gi, gj


def _random_config(rng, d, max_angle=2.6):
    # keep the residual angle away from the non-smooth point at pi
    while True:
        R_i = random_rotation(d, rng)
        R_j = random_rotation(d, rng)
        R_tilde = random_rotation(d, rng)
        ang = geodesic_dist(R_i @ R_tilde, R_j)
        if 1e-2 < ang < max_angle:
            return R_i, R_j, R_tilde


def _noisy_grid(side=3, sigma_deg=5.0, seed=2):
    spec = SyntheticSpec(side=side, sigma_rot=np.deg2rad(sigma_deg), edge_prob=0.3, seed=seed)
    return generate_grid(spec)


def test_edge_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for kind in (GEODESIC, CHORDAL):
            for _ in range(10):
                R_i, R_j, R_tilde = _random_config(rng, d)
                gi, gj = edge_gradient(R_i, R_j, R_tilde, kind)
                fi, fj = _fd_edge_gradient(R_i, R_j, R_tilde, kind)
                scale = max(np.linalg.norm(fi), np.linalg.norm(fj), 1e-12)
                assert np.linalg.norm(gi - fi) / scale < 1e-5
                assert np.linalg.norm(gj - fj) / scale < 1e-5


def test_edge_gradient_zero_at_zero_residual():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        R_i = random_rotation(d, rng)
        R_tilde = random_rotation(d, rng)
        gi, gj = edge_gradient(R_i, R_i @ R_tilde, R_tilde, GEODESIC)
        assert np.all(gi == 0) and np.all(gj == 0)


def test_edge_hessian_identity_data_pattern():
    eye3 = np.eye(3)
    base = np.block([[eye3, -eye3], [-eye3, eye3]])
    H_geo = edge_hessian(eye3, eye3, eye3, GEODESIC)
    H_cho = edge_hessian(eye3, eye3, eye3, CHORDAL)
    assert np.array_equal(H_geo, base)
    assert np.array_equal(H_cho, 2.0 * base)


def test_edge_hessian_symmetric_and_continuous_at_zero():
    rng = np.random.default_rng(2)
    for kind in (GEODESIC, CHORDAL):
        R_i = random_rotation(3, rng)
        R_tilde = random_rotation(3, rng)
        R_j0 = R_i @ R_tilde
        H0 = edge_hessian(R_i, R_j0, R_tilde, kind)
        assert np.abs(H0 - H0.T).max() < 1e-12
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        H1 = edge_hessian(R_i, exp_map(1e-4 * u) @ R_j0, R_tilde, kind)
        assert np.abs(H1 - H1.T).max() < 1e-12
        assert np.linalg.norm(H1 - H0) < 1e-3


def test_edge_hessian_planar_closed_form():
    rng = np.random.default_rng(3)
    R_i, R_j, R_tilde = _random_config(rng, 2)
    theta = geodesic_dist(R_i @ R_tilde, R_j)
    for kind in (GEODESIC, CHORDAL):
        h = kind.rho_ddot(theta)
        expect = np.array([[h, -h], [-h, h]])
        assert np.abs(edge_hessian(R_i, R_j, R_tilde, kind) - expect).max() < 1e-12


def test_full_hessian_matches_fd_on_total_cost():
    # second difference of the cost along a fixed tangent direction W
    # equals the quadratic form W' H W of the assembled Hessian
    g, truth = _noisy_grid(side=2, sigma_deg=10.0, seed=4)
    rng = np.random.default_rng(4)
    R = truth.copy()
    for i in range(R.n):
        R.mats[i] = exp_map(0.2 * rng.standard_normal(3)) @ R.mats[i]

    def cost_along(W, t, kind):
        Rt = R.copy()
        for i in range(R.n):
            Rt.mats[i] = exp_map(t * W[i]) @ Rt.mats[i]
        return cost(g, Rt, kind)

    h = 1e-3
    for kind in (GEODESIC, CHORDAL):
        H = assemble_full_hessian(g, R, kind)
        assert np.abs(H - H.T).max() < 1e-10
        for _ in range(5):
            W = rng.standard_normal((g.n, 3))
            W /= np.linalg.norm(W)
            quad = W.reshape(-1) @ H @ W.reshape(-1)
            fd = (
                cost_along(W, h, kind) - 2.0 * cost_along(W, 0.0, kind) + cost_along(W, -h, kind)
            ) / (h * h)
            assert abs(fd - quad) / max(abs(quad), 1.0) < 1e-3


def test_gradient_rhs_columns_sum_to_zero():
    g, _ = _noisy_grid(side=3, sigma_deg=15.0, seed=5)
    R = spanning_tree_init(g)
    for kind in (GEODESIC, CHORDAL):
        B = assemble_gradient_rhs(g, R, kind)
        assert np.abs(B.sum(axis=0)).max() < 1e-12


def test_laplacian_weights_scaling():
    g, _ = _noisy_grid(side=2, sigma_deg=0.0, seed=6)
    wg_g = laplacian_weights(g, GEODESIC)
    wg_c = laplacian_weights(g, CHORDAL)
    assert np.allclose(wg_c.weights, 2.0 * wg_g.weights)


def test_distance_by_name():
    assert distance_by_name("geodesic") is GEODESIC
    assert distance_by_name("chordal") is CHORDAL
    with pytest.raises(ValueError):
        distance_by_name("euclidean")


def test_centralized_step_decreases_cost():
    g, _ = _noisy_grid(side=3, sigma_deg=8.0, seed=7)
    R = spanning_tree_init(g)
    for kind in (GEODESIC, CHORDAL):
        c0 = cost(g, R, kind)
        R1 = centralized_step(g, R, kind)
        assert cost(g, R1, kind) < c0


def test_collaborative_eps_zero_matches_centralized():
    g, _ = _noisy_grid(side=3, sigma_deg=5.0, seed=8)
    part = partition_contiguous(g, 2)
    R0 = spanning_tree_init(g)
    cfg = SolverConfig(epsilon=0.0, grad_tol=0.0, max_iters=3, project_horizontal=True)
    R_col, trace = collaborative_solve(g, part, R0, cfg)
    R_ref = R0.copy()
    for _ in range(3):
        R_ref = centralized_step(g, R_ref, GEODESIC)
    err = max(geodesic_dist(a, b) for a, b in zip(R_col.mats, R_ref.mats))
    assert err < 1e-8
    assert trace.iterations == 3


def test_collaborative_converges_on_noisy_grid():
    g, truth = _noisy_grid(side=3, sigma_deg=5.0, seed=9)
    part = partition_contiguous(g, 3)
    cfg = SolverConfig(epsilon=0.5, distance="chordal", grad_tol=1e-5, max_iters=30)
    R, trace = collaborative_solve(g, part, spanning_tree_init(g), cfg)
    assert trace.converged
    assert trace.final_grad_norm <= 1e-5
    assert trace.rows[-1].cost < trace.rows[0].cost
    # estimate should sit near the ground truth it was generated from
    assert rotation_rmse(R, truth).degrees < 10.0


def test_single_robot_collaborative_uploads_nothing():
    g, _ = _noisy_grid(side=2, sigma_deg=5.0, seed=10)
    part = partition_contiguous(g, 1)
    cfg = SolverConfig(epsilon=0.0, grad_tol=0.0, max_iters=2, project_horizontal=True)
    R1, trace = collaborative_solve(g, part, spanning_tree_init(g), cfg)
    assert [(e.round, e.kind, e.scalars) for e in trace.ledger.events] == [(0, "schur", 0)]
    R_ref = spanning_tree_init(g)
    for _ in range(2):
        R_ref = centralized_step(g, R_ref, GEODESIC)
    err = max(geodesic_dist(a, b) for a, b in zip(R1.mats, R_ref.mats))
    assert err < 1e-8


def test_trace_rows_and_csv():
    g, _ = _noisy_grid(side=2, sigma_deg=5.0, seed=11)
    part = partition_contiguous(g, 2)
    cfg = SolverConfig(grad_tol=1e-6, max_iters=20)
    _, trace = collaborative_solve(g, part, spanning_tree_init(g), cfg)
    assert trace.converged
    assert len(trace.rows) == trace.iterations + 1
    # cumulative upload counter never decreases
    ups = [r.cum_upload_bytes for r in trace.rows]
    assert all(b >= a for a, b in zip(ups, ups[1:]))


def test_exact_newton_step_contracts_near_optimum():
    g, truth = _noisy_grid(side=2, sigma_deg=4.0, seed=12)
    R = truth.copy()
    g0 = np.linalg.norm(assemble_gradient_rhs(g, R, GEODESIC))
    for _ in range(2):
        R = exact_newton_step(g, R, GEODESIC)
    g2 = np.linalg.norm(assemble_gradient_rhs(g, R, GEODESIC))
    assert g2 < g0 / 100.0


@pytest.mark.parametrize("robots", [1, 2])
def test_newton_solve_meters_per_robot(robots):
    # round 0 stays empty; the step records one schur row per robot in round 1, and none at one robot
    g, truth = _noisy_grid(side=2, sigma_deg=4.0, seed=13)
    part = partition_contiguous(g, robots)
    _, trace = newton_solve(g, part, truth, SolverConfig(max_iters=1, grad_tol=0.0))
    assert trace.iterations == 1 and trace.ledger.current_round == 1
    expected = [(1, a, "schur") for a in range(robots)] if robots > 1 else []
    assert [(e.round, e.robot, e.kind) for e in trace.ledger.events] == expected
    assert (trace.ledger.total_scalars() > 0) == (robots > 1)


def test_newton_schur_blocks_name_a_robot_with_a_singular_interior_block():
    # path 0-1-2-3 owned alternately, with separators taken from edges (1,2) and (2,3) only:
    # vertex 0 is robot 0's interior, yet its one edge leaves the robot, so its local Hessian block is zero.
    # Those separators are not the graph's, so newton_solve rejects the partition before its first step.
    eye = np.stack([np.eye(3)] * 3)
    g = MeasurementGraph(3, 4, [0, 1, 2], [1, 2, 3], eye, np.zeros((3, 3)), np.ones(3), np.ones(3))
    part = Partition.from_owner([0, 1, 0, 1], [(1, 2), (2, 3)])
    assert part.interiors[0].tolist() == [0]
    R0 = RotationState(exp_map_batch(0.1 * np.arange(12.0).reshape(4, 3)))
    with pytest.raises(GraphError, match=r"^the partition's separators are not the endpoints"):
        newton_solve(g, part, R0, SolverConfig(max_iters=1, grad_tol=0.0))
    with pytest.raises(NumericalError, match=r"^robot 0 local Hessian interior solve"):
        _newton_schur_blocks(g, R0, GEODESIC, part)


@pytest.mark.parametrize("side, robots", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)])
@pytest.mark.parametrize("spread", [0.0, 0.05], ids=["truth", "noisy"])
def test_newton_schur_blocks_split_identity(side, robots, spread):
    # robot blocks plus the cross-edge Hessian equal the full Hessian with every interior eliminated
    g, truth = _noisy_grid(side=side, sigma_deg=5.0, seed=7)
    rng = np.random.default_rng(side * robots)
    R = RotationState(exp_map_batch(spread * rng.standard_normal((g.n, g.p))) @ truth.mats)
    part = partition_contiguous(g, robots)
    dofs = np.arange(g.n * g.p).reshape(g.n, g.p)
    sep, inner = dofs[part.separators].ravel(), dofs[~part.is_separator].ravel()
    cross = part.owner[g.I] != part.owner[g.J]
    g_cross = MeasurementGraph(g.d, g.n, g.I[cross], g.J[cross], g.R_tilde[cross], g.t_tilde[cross],
                               g.kappa[cross], g.tau[cross])
    S = assemble_full_hessian(g_cross, R, GEODESIC)[np.ix_(sep, sep)]
    for S_a in _newton_schur_blocks(g, R, GEODESIC, part):
        S = S + S_a.toarray()
    H = assemble_full_hessian(g, R, GEODESIC)
    H_ff, H_fc = H[np.ix_(inner, inner)], H[np.ix_(inner, sep)]
    S_ref = H[np.ix_(sep, sep)] - H_fc.T @ np.linalg.solve(H_ff, H_fc)
    assert np.abs(S - S_ref).max() <= 1e-9 * np.abs(S_ref).max()


def test_iterate_meters_steps_and_keeps_iterates():
    ledger = CommsLedger()
    cfg = SolverConfig(grad_tol=0.2, max_iters=10)

    def step(x, r):  # meters into the round iterate opened for it
        ledger.record(0, "partial_grad", 2 * r.shape[1])
        ledger.record(1, "partial_grad", 0)
        return x / 2

    x, trace = iterate(np.ones((1, 2)), lambda x: (x, 0.0), step, cfg, ledger, keep_iterates=True)
    assert trace.converged and trace.iterations == 3  # norms sqrt(2) * (1, 1/2, 1/4, 1/8)
    assert [r.iter for r in trace.rows] == [0, 1, 2, 3]
    assert [it[0, 0] for it in trace.iterates] == [1.0, 0.5, 0.25, 0.125]
    assert x[0, 0] == 0.125
    assert [(e.round, e.robot, e.scalars) for e in ledger.events] == [
        (k, a, s) for k in (1, 2, 3) for a, s in ((0, 4), (1, 0))
    ]
    assert [r.cum_upload_bytes for r in trace.rows] == [0, 32, 64, 96]


def test_iterate_opens_rounds_and_records_nothing_itself():
    ledger = CommsLedger()
    _, trace = iterate(np.ones((3, 1)), lambda x: (x, 0.0), lambda x, r: x / 2,
                       SolverConfig(grad_tol=0.0, max_iters=4), ledger)
    assert not trace.converged and trace.iterations == 4
    assert trace.iterates is None
    assert ledger.events == [] and ledger.current_round == 4


def test_collaborative_max_iters_zero_takes_no_step():
    g, _ = _noisy_grid(side=3, sigma_deg=5.0, seed=16)
    part = partition_contiguous(g, 3)
    R0 = spanning_tree_init(g)
    R, trace = collaborative_solve(g, part, R0, SolverConfig(max_iters=0))
    assert len(trace.rows) == 1 and trace.iterations == 0 and not trace.converged
    assert trace.ledger.current_round == 0
    assert {e.round for e in trace.ledger.events} == {0}
    assert np.array_equal(R.mats, R0.mats)


def test_collaborative_rejects_a_negative_max_iters_and_a_nan_epsilon():
    g, _ = _noisy_grid(side=3, sigma_deg=5.0, seed=16)
    part = partition_contiguous(g, 3)
    with pytest.raises(ValueError, match=r"^max_iters must be non-negative, got -1$"):
        collaborative_solve(g, part, spanning_tree_init(g), SolverConfig(max_iters=-1))
    with pytest.raises(ValueError, match=r"^epsilon must be non-negative$"):
        collaborative_solve(g, part, spanning_tree_init(g), SolverConfig(epsilon=float("nan")))


def test_collaborative_tolerance_met_at_start_converges_without_steps():
    g, _ = _noisy_grid(side=3, sigma_deg=5.0, seed=17)
    part = partition_contiguous(g, 3)
    _, trace = collaborative_solve(g, part, spanning_tree_init(g), SolverConfig(grad_tol=1e9))
    assert trace.converged and trace.iterations == 0 and len(trace.rows) == 1
    assert trace.ledger.events
    assert {(e.round, e.kind) for e in trace.ledger.events} == {(0, "schur")}


def test_newton_solve_trace_and_ledger():
    g, _ = _noisy_grid(side=3, sigma_deg=5.0, seed=18)
    part = partition_contiguous(g, 3)
    _, trace = newton_solve(g, part, spanning_tree_init(g), SolverConfig())
    assert trace.converged
    assert len(trace.rows) == trace.iterations + 1
    ups = [r.cum_upload_bytes for r in trace.rows]
    assert all(b >= a for a, b in zip(ups, ups[1:]))
    assert ups[-1] == trace.ledger.total_bytes() > 0
    assert {e.kind for e in trace.ledger.events} == {"schur"}


def test_hessian_report_zero_noise_chordal():
    spec = SyntheticSpec(side=3, sigma_rot=0.0, edge_prob=0.3, seed=14)
    g, truth = generate_grid(spec)
    rep = hessian_report(g, truth, CHORDAL, epsilon=0.25)
    assert rep.kernel_match
    assert rep.delta_empirical <= 1e-8
    assert rep.lambda2 > 0
    assert rep.mu == pytest.approx(math.exp(-rep.delta_empirical) * rep.lambda2)
    assert rep.kappa == pytest.approx(rep.lipschitz / rep.mu)
    assert rep.gamma == pytest.approx(
        gamma_factor(rep.kappa, rep.delta_empirical + 0.25)
    )
    assert rep.gamma >= 2.0 * c_epsilon(0.25) - 1e-9
