"""End-to-end acceptance checks.

Each test pins one user-facing guarantee of the package at its stated
tolerance, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per guarantee. Instances are seeded and frozen; the heavier tests
state their expected runtime in a comment.
"""

import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from lapra import decomposition as dd
from lapra.laplacians import (
    WeightedGraph,
    check_epsilon,
    laplacian,
    schur_complement,
    solve_grounded,
)
from lapra.manifold import RotationState, exp_map, geodesic_dist, random_rotation
from lapra.metrics import c_epsilon
from lapra.pose_graph import (
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
    assemble_full_hessian,
    assemble_gradient_rhs,
    centralized_step,
    collaborative_solve,
    edge_gradient,
    edge_hessian,
    hessian_report,
    laplacian_weights,
)
from lapra.translation import (
    assemble_translation_rhs,
    collaborative_translation_solve,
    translation_weights,
)

# ---------------------------------------------------------------------------
# helpers


def _edge_cost(R_i, R_j, R_tilde, kind):
    return kind.rho(geodesic_dist(R_i @ R_tilde, R_j))


def _random_edge_config(rng, d, lo=0.1, hi=2.6):
    # keep the residual angle away from zero (where the relative scale
    # of the gradient collapses) and from the non-smooth point at pi
    while True:
        R_i = random_rotation(d, rng)
        R_j = random_rotation(d, rng)
        R_tilde = random_rotation(d, rng)
        if lo < geodesic_dist(R_i @ R_tilde, R_j) < hi:
            return R_i, R_j, R_tilde


def _fd_edge_gradient(R_i, R_j, R_tilde, kind, h=1e-6):
    p = 1 if R_i.shape[0] == 2 else 3
    out = np.zeros(2 * p)
    for a in range(2 * p):
        v = np.zeros(p)
        v[a % p] = h
        if a < p:
            fp = _edge_cost(exp_map(v) @ R_i, R_j, R_tilde, kind)
            fm = _edge_cost(exp_map(-v) @ R_i, R_j, R_tilde, kind)
        else:
            fp = _edge_cost(R_i, exp_map(v) @ R_j, R_tilde, kind)
            fm = _edge_cost(R_i, exp_map(-v) @ R_j, R_tilde, kind)
        out[a] = (fp - fm) / (2 * h)
    return out


def _fd_edge_hessian(R_i, R_j, R_tilde, kind, h=1e-6):
    # central differences of the analytic gradient; symmetrizing removes
    # the antisymmetric frame-transport term of the moving trivialization
    p = 1 if R_i.shape[0] == 2 else 3
    D = np.zeros((2 * p, 2 * p))
    for a in range(2 * p):
        v = np.zeros(p)
        v[a % p] = h
        if a < p:
            gp = np.concatenate(edge_gradient(exp_map(v) @ R_i, R_j, R_tilde, kind))
            gm = np.concatenate(edge_gradient(exp_map(-v) @ R_i, R_j, R_tilde, kind))
        else:
            gp = np.concatenate(edge_gradient(R_i, exp_map(v) @ R_j, R_tilde, kind))
            gm = np.concatenate(edge_gradient(R_i, exp_map(-v) @ R_j, R_tilde, kind))
        D[:, a] = (gp - gm) / (2 * h)
    return 0.5 * (D + D.T)


def _random_partitioned_laplacian(rng, n_lo, n_hi, p_lo, p_hi, m_choices):
    n = int(rng.integers(n_lo, n_hi))
    p_edge = float(rng.uniform(p_lo, p_hi))
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p_edge
    pairs |= {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
    pairs = sorted(pairs)
    g = WeightedGraph.from_edge_list(n, pairs, rng.uniform(0.5, 2.0, size=len(pairs)))
    m = int(rng.choice(m_choices))
    owner = np.minimum(np.arange(n) * m // n, m - 1)
    return laplacian(g), Partition.from_owner(owner, pairs)


def _random_pose_graph(rng):
    n = int(rng.integers(100, 161))
    p_edge = float(rng.uniform(0.4, 0.7))
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p_edge
    pairs |= {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
    pairs = sorted(pairs)
    mats = np.stack([random_rotation(3, rng) for _ in range(n)])
    truth = RotationState(mats)
    pos = 2.0 * rng.standard_normal((n, 3))
    I, J = np.array(pairs).T
    R_tilde = [mats[i].T @ mats[j] for i, j in pairs]
    t_tilde = [mats[i].T @ (pos[j] - pos[i]) for i, j in pairs]
    ones = np.ones(len(pairs))
    g = MeasurementGraph(3, n, I, J, R_tilde, t_tilde, ones, ones)
    return g, truth, partition_contiguous(g, 3)


def _l_seminorm(L, X):
    q = float(np.sum(np.asarray(X) * (L @ np.asarray(X))))
    return math.sqrt(max(q, 0.0))


def _exact_reduced_and_confirmation(L, part, eps, seed, oversampling):
    """Rebuild the compressed reduced matrix deterministically and
    measure its actual spectral quality against the exact one."""
    blocks, server = dd.build_blocks(L, part, eps, seed, oversampling=oversampling)
    dd.sparsified_schur(blocks, server)
    interior_all = np.concatenate([b.interior for b in blocks])
    S_exact = schur_complement(L, interior_all)
    rep = check_epsilon(server.S_tilde, S_exact)
    confirmed = rep.kernel_match and rep.epsilon_achieved <= eps + 1e-9
    sampled = rep.epsilon_achieved > 1e-6
    return confirmed, sampled


# ---------------------------------------------------------------------------
# the guarantees


def test_edge_derivatives_match_finite_differences():
    # analytic gradient within 1e-6 relative of cost differences, and
    # analytic Hessian within 1e-5 relative of gradient differences,
    # 100 random configurations per dimension and distance, step 1e-6
    rng = np.random.default_rng(12345)
    for d in (2, 3):
        for kind in (GEODESIC, CHORDAL):
            worst_g, worst_h = 0.0, 0.0
            for _ in range(100):
                R_i, R_j, R_tilde = _random_edge_config(rng, d)
                gi, gj = edge_gradient(R_i, R_j, R_tilde, kind)
                ana = np.concatenate([gi, gj])
                fd = _fd_edge_gradient(R_i, R_j, R_tilde, kind)
                worst_g = max(
                    worst_g, np.linalg.norm(ana - fd) / max(np.linalg.norm(fd), 1e-9)
                )
                H = edge_hessian(R_i, R_j, R_tilde, kind)
                Hfd = _fd_edge_hessian(R_i, R_j, R_tilde, kind)
                worst_h = max(
                    worst_h, np.linalg.norm(H - Hfd) / max(np.linalg.norm(Hfd), 1e-9)
                )
            assert worst_g <= 1e-6, f"d={d} {kind.name}: gradient mismatch {worst_g:.3e}"
            assert worst_h <= 1e-5, f"d={d} {kind.name}: Hessian mismatch {worst_h:.3e}"


def test_hessian_zero_residual_limit_and_continuity():
    # at zero residual the block is the plain difference pattern, twice
    # it for the chordal cost, reached continuously from nearby angles
    eye3 = np.eye(3)
    base3 = np.block([[eye3, -eye3], [-eye3, eye3]])
    base1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(edge_hessian(eye3, eye3, eye3, GEODESIC), base3)
    assert np.array_equal(edge_hessian(eye3, eye3, eye3, CHORDAL), 2.0 * base3)
    eye2 = np.eye(2)
    assert np.array_equal(edge_hessian(eye2, eye2, eye2, GEODESIC), base1)
    assert np.array_equal(edge_hessian(eye2, eye2, eye2, CHORDAL), 2.0 * base1)

    rng = np.random.default_rng(2024)
    for kind in (GEODESIC, CHORDAL):
        for _ in range(10):
            R_i = random_rotation(3, rng)
            R_tilde = random_rotation(3, rng)
            R_j = R_i @ R_tilde
            H0 = edge_hessian(R_i, R_j, R_tilde, kind)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            H1 = edge_hessian(R_i, exp_map(1e-4 * u) @ R_j, R_tilde, kind)
            assert np.linalg.norm(H1 - H0) <= 1e-3


def test_zero_noise_hessian_is_the_laplacian_and_gap_grows_with_noise():
    # runtime: under two minutes
    # (a) noiseless 5x5x5 chordal grid at its minimizer: the true
    # second-derivative matrix IS the weighted Laplacian
    spec = SyntheticSpec(side=5, sigma_rot=0.0, edge_prob=0.3, seed=0)
    g, truth = generate_grid(spec)
    H = assemble_full_hessian(g, truth, CHORDAL)
    L = laplacian(laplacian_weights(g, CHORDAL)).toarray()
    assert np.linalg.norm(H - np.kron(L, np.eye(3))) <= 1e-8
    rep = hessian_report(g, truth, CHORDAL)
    assert rep.kernel_match and rep.delta_empirical <= 1e-8

    # (b) the equivalence gap grows with measurement noise: 20 seeds per
    # noise level, rank correlation above 0.9
    sigmas_deg = (2.0, 5.0, 10.0)
    labels, deltas = [], []
    for sigma in sigmas_deg:
        for k in range(20):
            spec = SyntheticSpec(
                side=5, sigma_rot=float(np.deg2rad(sigma)), edge_prob=0.3, seed=100 + k
            )
            g, _ = generate_grid(spec)
            R = spanning_tree_init(g)
            for _ in range(40):
                if np.linalg.norm(assemble_gradient_rhs(g, R, CHORDAL)) <= 1e-8:
                    break
                R = centralized_step(g, R, CHORDAL)
            labels.append(sigma)
            deltas.append(hessian_report(g, R, CHORDAL).delta_empirical)
    rho = spearmanr(labels, deltas).statistic
    assert rho > 0.9, f"rank correlation {rho:.4f}"


def test_separator_system_splits_into_robot_contributions():
    # cross-edge part plus per-robot eliminations reproduce the reduced
    # matrix to 1e-9 relative on 50 random partitioned graphs
    rng = np.random.default_rng(777)
    for _ in range(50):
        L, part = _random_partitioned_laplacian(rng, 20, 101, 0.05, 0.5, [2, 3, 5])
        blocks, server = dd.build_blocks(L, part)
        S = server.L_Gc.toarray().copy()
        for b in blocks:
            S += b.schur_contribution().toarray()
        interior_all = np.concatenate([b.interior for b in blocks])
        S_direct = schur_complement(L, interior_all).toarray()
        denom = max(1.0, np.abs(S_direct).max())
        assert np.abs(S - S_direct).max() / denom <= 1e-9


def test_compressed_solve_error_within_amplification_bound():
    # runtime: under two minutes
    # whenever the compressed reduced matrix is confirmed to be within
    # quality eps of the exact one, the returned solution deviates from
    # the exact solution by at most c(eps) times its energy norm
    def run_arm(eps, seeds, n_lo, n_hi, p_lo, p_hi, m_choices, oversampling):
        confirmed_n = sampled_n = 0
        for s in seeds:
            rng = np.random.default_rng(s)
            L, part = _random_partitioned_laplacian(rng, n_lo, n_hi, p_lo, p_hi, m_choices)
            n = L.shape[0]
            blocks, server = dd.build_blocks(L, part, eps, oversampling=oversampling)
            dd.sparsified_schur(blocks, server)
            B = rng.standard_normal((n, 3))
            B -= B.mean(axis=0)
            X_tilde = dd.solve(blocks, server, B)
            X_star = solve_grounded(L, B)
            interior_all = np.concatenate([b.interior for b in blocks])
            rep = check_epsilon(server.S_tilde, schur_complement(L, interior_all))
            if not (rep.kernel_match and rep.epsilon_achieved <= eps + 1e-9):
                continue
            confirmed_n += 1
            sampled_n += rep.epsilon_achieved > 1e-6
            err = _l_seminorm(L, X_tilde - X_star)
            bound = c_epsilon(eps) * _l_seminorm(L, X_star)
            assert err <= bound * (1 + 1e-9), f"seed {s}: {err:.3e} > {bound:.3e}"
        return confirmed_n, sampled_n

    for eps in (0.25, 0.5, 1.0):
        confirmed, _ = run_arm(
            eps, range(20000, 20050), 40, 201, 0.08, 0.6, [2, 3, 5], oversampling=4.0
        )
        assert confirmed >= 48, f"eps={eps}: only {confirmed}/50 confirmed"
    # denser arm with a tight budget so the sampler genuinely compresses
    confirmed, sampled = run_arm(
        1.0, range(40000, 40015), 150, 201, 0.5, 0.8, [3], oversampling=1.0
    )
    assert confirmed == 15
    assert sampled >= 10, f"only {sampled}/15 runs actually sampled"


def test_translation_refinement_contracts_geometrically():
    # per-sweep energy-norm error within c(eps)^k of the exact solution
    # on confirmed runs; an exact reduced system finishes in one sweep
    instances = []
    for i in range(6):
        rng = np.random.default_rng(60000 + i)
        instances.append(_random_pose_graph(rng))

    for g, truth, part in instances:
        L = laplacian(translation_weights(g))
        M_star = solve_grounded(L, assemble_translation_rhs(g, truth))
        norm_star = _l_seminorm(L, M_star)

        cfg = SolverConfig(epsilon=0.0, grad_tol=1e-9, max_iters=10, seed=5)
        M, tr = collaborative_translation_solve(g, part, truth, cfg, keep_iterates=True)
        assert tr.converged and tr.iterations == 1
        assert _l_seminorm(L, M - M_star) <= 1e-8 * max(norm_star, 1.0)

    sampled_confirmed = 0
    for eps in (0.5, 1.0):
        for g, truth, part in instances:
            L = laplacian(translation_weights(g))
            M_star = solve_grounded(L, assemble_translation_rhs(g, truth))
            norm_star = _l_seminorm(L, M_star)
            cfg = SolverConfig(epsilon=eps, grad_tol=1e-9, max_iters=10, seed=5)
            M, tr = collaborative_translation_solve(
                g, part, truth, cfg, oversampling=1.0, keep_iterates=True
            )
            confirmed, sampled = _exact_reduced_and_confirmation(
                L, part, eps, cfg.seed, oversampling=1.0
            )
            if not confirmed:
                continue
            sampled_confirmed += sampled
            for k in range(1, len(tr.iterates)):
                err = _l_seminorm(L, tr.iterates[k] - M_star)
                assert err <= c_epsilon(eps) ** k * norm_star * (1 + 1e-9) + 1e-12
    assert sampled_confirmed >= 3


def test_rate_bound_logged_and_solver_converges_quickly():
    # the proven worst-case factor is at least 2 c(delta + 0.25) >= 2 for
    # any condition number, so the contraction-factor comparison cannot
    # bind at this scale; log it and verify fast convergence instead
    spec = SyntheticSpec(side=4, sigma_rot=0.0, edge_prob=0.3, seed=11)
    g, truth = generate_grid(spec)
    rep = hessian_report(g, truth, GEODESIC, epsilon=0.25)
    assert rep.delta_empirical <= 1e-8
    assert rep.gamma >= 2.0 * c_epsilon(0.25)
    assert rep.gamma >= 1.0
    print(
        f"\nrate-factor subtest skipped: gamma(delta+0.25) = {rep.gamma:.2f} >= 1 "
        f"(kappa = {rep.kappa:.1f}); checking iteration counts instead"
    )

    for seed in (3, 4, 5):
        spec = SyntheticSpec(
            side=5, sigma_rot=float(np.deg2rad(5.0)), edge_prob=0.3, seed=seed
        )
        g, _ = generate_grid(spec)
        part = partition_contiguous(g, 5)
        R0 = spanning_tree_init(g)
        for eps in (0.0, 0.5, 1.5):
            cfg = SolverConfig(epsilon=eps, grad_tol=1e-5, max_iters=50)
            _, trace = collaborative_solve(g, part, R0, cfg)
            assert trace.converged, f"seed {seed} eps {eps} did not converge"
            assert trace.iterations <= 15, (
                f"seed {seed} eps {eps}: {trace.iterations} iterations"
            )


def test_exact_mode_reproduces_centralized_trajectory():
    # eps = 0 with several robots walks the same iterates as the
    # centralized method; one robot matches the whole-graph solve
    spec = SyntheticSpec(side=3, sigma_rot=float(np.deg2rad(5.0)), edge_prob=0.3, seed=8)
    g, _ = generate_grid(spec)
    R0 = spanning_tree_init(g)

    R_central = [R0.copy()]
    for _ in range(4):
        R_central.append(centralized_step(g, R_central[-1], GEODESIC))

    for m in (1, 3):
        part = partition_contiguous(g, m)
        for k in range(1, 5):
            cfg = SolverConfig(
                epsilon=0.0, grad_tol=0.0, max_iters=k, project_horizontal=True
            )
            R_k, _ = collaborative_solve(g, part, R0, cfg)
            gap = max(geodesic_dist(a, b) for a, b in zip(R_k.mats, R_central[k].mats))
            assert gap <= 1e-8, f"m={m} iterate {k}: gap {gap:.3e}"


def test_upload_bytes_fall_with_compression_and_heuristics_lag():
    # runtime: about half a minute
    # one dense instance: compressed uploads shrink as eps grows, while
    # the pattern-based baselines pay for their cheap uploads with at
    # least three times the iterations of the eps = 0.5 run
    spec = SyntheticSpec(side=12, sigma_rot=float(np.deg2rad(5.0)), edge_prob=0.6, seed=7)
    g, _ = generate_grid(spec)
    part = partition_contiguous(g, 5)
    R0 = spanning_tree_init(g)

    def run(eps, mode="spectral", max_iters=50):
        cfg = SolverConfig(epsilon=eps, grad_tol=1e-3, max_iters=max_iters, seed=0)
        _, trace = collaborative_solve(
            g, part, R0, cfg, schur_mode=mode, oversampling=0.7
        )
        return trace

    t0 = run(0.0)
    t05 = run(0.5)
    t15 = run(1.5, max_iters=3)  # only the one-time upload matters here
    b0 = t0.ledger.bytes_by_kind("schur")
    b05 = t05.ledger.bytes_by_kind("schur")
    b15 = t15.ledger.bytes_by_kind("schur")
    assert b0 > b05 > b15, f"schur bytes not decreasing: {b0}, {b05}, {b15}"
    assert t0.converged and t05.converged

    for mode in ("block_diagonal", "tree"):
        tb = run(0.5, mode=mode, max_iters=250)
        assert tb.iterations >= 3 * t05.iterations, (
            f"{mode}: {tb.iterations} vs 3 x {t05.iterations}"
        )


def test_external_benchmark_reproduction():
    pytest.skip(
        "external benchmark g2o files are not bundled; the seeded "
        "synthetic checks above stand alone"
    )
