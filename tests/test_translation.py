import dataclasses

import numpy as np
import pytest

from lapra import decomposition as dd
from lapra import laplacians
from lapra.laplacians import laplacian, upper_triangle_nnz
from lapra.manifold import RotationState
from lapra.pose_graph import (
    MeasurementGraph,
    SyntheticSpec,
    generate_grid,
    grid_positions,
    partition_contiguous,
    spanning_tree_init,
)
from lapra.rotation import SolverConfig, collaborative_solve, newton_solve
from lapra.translation import (
    assemble_translation_rhs,
    collaborative_translation_solve,
    exact_translation_solve,
    translation_cost,
    translation_weights,
)


def _grid(side=3, sigma_deg=0.0, seed=0):
    spec = SyntheticSpec(side=side, sigma_rot=np.deg2rad(sigma_deg), edge_prob=0.3, seed=seed)
    return generate_grid(spec)


def test_rhs_columns_sum_to_zero():
    g, truth = _grid(sigma_deg=6.0, seed=1)
    B = assemble_translation_rhs(g, truth)
    assert np.abs(B.sum(axis=0)).max() < 1e-12


def test_exact_solve_matches_lstsq_oracle():
    g, truth = _grid(sigma_deg=4.0, seed=2)
    t = exact_translation_solve(g, truth)
    # oracle: dense least squares on the stacked difference system
    rows = []
    rhs = []
    for i, j, t_tilde, tau in zip(g.I, g.J, g.t_tilde, g.tau):
        row = np.zeros(g.n)
        row[j] = 1.0
        row[i] = -1.0
        rows.append(np.sqrt(tau) * row)
        rhs.append(np.sqrt(tau) * (truth.mats[i] @ t_tilde))
    A = np.array(rows)
    t_ref, *_ = np.linalg.lstsq(A, np.array(rhs), rcond=None)
    t_ref -= t_ref.mean(axis=0)
    assert np.abs(t - t_ref).max() < 1e-9


def test_zero_noise_recovers_grid_geometry():
    g, truth = _grid(side=3, sigma_deg=0.0, seed=3)
    t = exact_translation_solve(g, truth)
    ref = grid_positions(3)
    ref = ref - ref.mean(axis=0)
    # measurements are exact, so the centered grid is recovered up to
    # the global rotation gauge shared with the rotation estimates
    assert translation_cost(g, truth, t) < 1e-18
    d_est = np.linalg.norm(t[1] - t[0])
    d_ref = np.linalg.norm(ref[1] - ref[0])
    assert abs(d_est - d_ref) < 1e-10


def test_collaborative_translation_rejects_a_negative_max_iters():
    g, truth = _grid(side=3, sigma_deg=5.0, seed=4)
    with pytest.raises(ValueError, match=r"^max_iters must be non-negative, got -1$"):
        collaborative_translation_solve(g, partition_contiguous(g, 3), truth, SolverConfig(max_iters=-1))


def test_collaborative_exact_reduced_system_single_sweep():
    g, truth = _grid(side=3, sigma_deg=5.0, seed=4)
    part = partition_contiguous(g, 3)
    cfg = SolverConfig(epsilon=0.0, grad_tol=1e-10, max_iters=8)
    M, trace = collaborative_translation_solve(g, part, truth, cfg)
    assert trace.converged
    assert trace.iterations == 1
    t_ref = exact_translation_solve(g, truth)
    assert np.abs(M - t_ref).max() < 1e-9


def test_collaborative_compressed_contracts_and_matches():
    g, truth = _grid(side=4, sigma_deg=5.0, seed=5)
    part = partition_contiguous(g, 3)
    cfg = SolverConfig(epsilon=0.5, grad_tol=1e-9, max_iters=40, seed=3)
    M, trace = collaborative_translation_solve(g, part, truth, cfg, keep_iterates=True)
    assert trace.converged
    t_ref = exact_translation_solve(g, truth)
    assert np.abs(M - t_ref).max() < 1e-7
    # residual history is monotone decreasing over the sweeps
    resids = [r.grad_norm for r in trace.rows]
    assert all(b < a for a, b in zip(resids, resids[1:]))
    assert len(trace.iterates) == len(trace.rows)


def test_sweeps_match_the_public_rhs_and_cost(monkeypatch):
    """The rotated measurements are computed once per solve; the rhs and every row's cost stay bit for bit."""
    g, truth = _grid(side=4, sigma_deg=5.0, seed=5)
    part = partition_contiguous(g, 3)
    cfg = SolverConfig(epsilon=1.0, grad_tol=1e-9, max_iters=40, seed=3)
    residuals, split_solve = [], dd.solve

    def spy(blocks, server, E, **kwargs):
        residuals.append(E.copy())
        return split_solve(blocks, server, E, **kwargs)

    monkeypatch.setattr(dd, "solve", spy)
    _, trace = collaborative_translation_solve(g, part, truth, cfg, oversampling=0.2, keep_iterates=True)
    assert len(trace.rows) > 2
    for row, M in zip(trace.rows, trace.iterates):
        assert row.cost == translation_cost(g, truth, M)
    B = assemble_translation_rhs(g, truth)
    B[0] -= B.sum(axis=0)  # B - L @ 0, with the split solve's row-0 rule applied
    assert residuals[0].tobytes() == B.tobytes()


def test_zero_measurements_give_zero_solution():
    g, truth = _grid(side=2, sigma_deg=0.0, seed=6)
    g.t_tilde = np.zeros((g.m, g.d))
    part = partition_contiguous(g, 2)
    cfg = SolverConfig(epsilon=0.0, grad_tol=1e-12, max_iters=4)
    M, trace = collaborative_translation_solve(g, part, truth, cfg)
    assert np.abs(M).max() < 1e-12
    assert trace.converged


def test_result_has_zero_column_means():
    g, truth = _grid(side=3, sigma_deg=8.0, seed=7)
    part = partition_contiguous(g, 2)
    cfg = SolverConfig(epsilon=0.5, grad_tol=1e-8, max_iters=30, seed=1)
    M, _ = collaborative_translation_solve(g, part, truth, cfg)
    assert np.abs(M.mean(axis=0)).max() < 1e-12


def test_translation_weights_use_tau():
    g, _ = _grid(side=2, sigma_deg=0.0, seed=8)
    g.tau = np.full(g.m, 2.5)
    wg = translation_weights(g)
    assert np.all(wg.weights == 2.5)
    L = laplacian(wg)
    assert float(L.diagonal().sum()) == 2.5 * 2 * g.m


@pytest.mark.parametrize("robots", [1, 2])
def test_sweeps_at_round_off_residual_stay_feasible(robots):
    """A heavy edge makes L @ M's column sums round-off of |L| |M|, far above the residual they belong to."""
    eye = np.tile(np.eye(2), (4, 1, 1))
    t_tilde = np.zeros((4, 2))
    t_tilde[3] = (0.0, 622321.2)
    g = MeasurementGraph(2, 5, [0, 0, 0, 0], [1, 2, 3, 4], eye, t_tilde, np.ones(4), np.array([1.0, 7.0, 6.35e5, 1.0]))
    R_hat = RotationState(np.tile(np.eye(2), (5, 1, 1)))
    cfg = SolverConfig(grad_tol=1e-10, max_iters=5)
    M, trace = collaborative_translation_solve(g, partition_contiguous(g, robots), R_hat, cfg)
    assert trace.iterations == 5 and not trace.converged
    t_ref = exact_translation_solve(g, R_hat)
    assert np.abs(M - t_ref).max() <= 1e-11 * np.abs(t_ref).max()


@pytest.mark.parametrize("robots", [1, 2, 3])
def test_sweeps_with_large_rhs_round_off_stay_feasible(robots):
    """Measurements near 1e6 and weights near 1e6 give B column sums of round-off far above 1e-8 of later residuals."""
    edges = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 4), (3, 5)])
    m = len(edges)
    R_hat = RotationState(np.tile(np.eye(2), (6, 1, 1)))
    cfg = SolverConfig(grad_tol=0.0, max_iters=4)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t_tilde = rng.uniform(-1e6, 1e6, (m, 2))
        tau = rng.uniform(1e5, 1e6, m)
        g = MeasurementGraph(2, 6, edges[:, 0], edges[:, 1], np.tile(np.eye(2), (m, 1, 1)), t_tilde, np.ones(m), tau)
        M, trace = collaborative_translation_solve(g, partition_contiguous(g, robots), R_hat, cfg)
        assert trace.iterations == 4
        t_ref = exact_translation_solve(g, R_hat)
        assert np.abs(M - t_ref).max() <= 1e-14 * np.abs(t_ref).max()


# ---------------------------------------------------------------------------
# Reusing the rotation stage's robot-side set-up

_SPIED = [(dd, "build_blocks"), (dd.RobotBlock, "schur_contribution"), (dd, "sparsify"),
          (laplacians, "effective_resistances"), (dd, "sparsified_schur"), (dd.ServerState, "set_reduced")]


def _counted_translation(monkeypatch, *args, **kwargs):
    """collaborative_translation_solve's result, and the calls it made to each set-up step in _SPIED."""
    calls = dict.fromkeys((name for _, name in _SPIED), 0)
    for owner, name in _SPIED:
        def spy(*a, _original=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _original(*a, **kw)
        monkeypatch.setattr(owner, name, spy)
    try:
        return collaborative_translation_solve(*args, **kwargs), calls
    finally:
        monkeypatch.undo()


def _assert_same_run(a, b):
    """Two translation solves agree bit for bit: estimate, trace rows and ledger events."""
    (M_a, trace_a), (M_b, trace_b) = a, b
    assert M_a.tobytes() == M_b.tobytes()
    assert [dataclasses.astuple(r) for r in trace_a.rows] == [dataclasses.astuple(r) for r in trace_b.rows]
    assert trace_a.ledger.events == trace_b.ledger.events
    assert (trace_a.converged, trace_a.iterations) == (trace_b.converged, trace_b.iterations)


def _rotation_stage(robots, epsilon, oversampling, distance="geodesic", schur_mode="spectral", newton=False):
    g, _ = _grid(side=6, sigma_deg=5.0, seed=3)
    part = partition_contiguous(g, g.n if robots == "n" else robots)
    config = SolverConfig(epsilon=epsilon, distance=distance, max_iters=30)
    if newton:
        R, trace = newton_solve(g, part, spanning_tree_init(g), config)
    else:
        R, trace = collaborative_solve(g, part, spanning_tree_init(g), config, schur_mode=schur_mode,
                                       oversampling=oversampling)
    return g, part, R, trace


@pytest.mark.parametrize("robots", [1, 3, "n"])
@pytest.mark.parametrize("epsilon, oversampling", [(0.0, 4.0), (0.5, 0.2)])
def test_translation_reuses_an_equal_split_bit_for_bit(monkeypatch, robots, epsilon, oversampling):
    """Geodesic unit weights make tau equal rho''(0) kappa: translation keeps the rotation stage's robot side."""
    g, part, R, rot = _rotation_stage(robots, epsilon, oversampling)
    if robots == 3 and epsilon > 0:  # robots really sample
        assert any(upper_triangle_nnz(b.S_tilde) < upper_triangle_nnz(b.schur_contribution()) for b in rot.split.blocks)
    config = SolverConfig(epsilon=epsilon, grad_tol=1e-10, max_iters=60)
    fresh = collaborative_translation_solve(g, part, R, config, oversampling=oversampling)
    couplings = [b.coupling for b in rot.split.blocks]
    reused, calls = _counted_translation(monkeypatch, g, part, R, config, oversampling=oversampling, prior=[rot.split])
    # the stage still runs the server's side of the set-up, but the server keeps its factor
    assert calls == {"build_blocks": 0, "schur_contribution": 0, "sparsify": 0, "effective_resistances": 0,
                     "sparsified_schur": 1, "set_reduced": 0}
    assert reused[1].split is rot.split and fresh[1].split is not rot.split
    assert all(b.coupling is Z for b, Z in zip(reused[1].split.blocks, couplings))
    _assert_same_run(reused, fresh)


def _double_one_tau(g):
    tau = g.tau.copy()
    tau[len(tau) // 2] *= 2.0
    return dataclasses.replace(g, tau=tau)


# (rotation stage settings, change to the translation stage's graph, translation config fields, oversampling)
_DIFFERENT_SPLITS = {
    "chordal": (dict(distance="chordal"), None, {}, 0.2),  # L_rot = 2 L_trans
    "one tau doubled": ({}, _double_one_tau, {}, 0.2),
    "seed": ({}, None, dict(seed=1), 0.2),
    "epsilon": ({}, None, dict(epsilon=0.4), 0.2),
    "oversampling": ({}, None, {}, 0.3),
    "block-tree": (dict(schur_mode="tree"), None, {}, 0.2),
    "newton": (dict(newton=True), None, {}, 0.2),  # no split to hand on
}


@pytest.mark.parametrize("case", list(_DIFFERENT_SPLITS))
def test_translation_sets_up_anew_when_the_split_differs(monkeypatch, case):
    rotation_kw, change_graph, config_kw, oversampling = _DIFFERENT_SPLITS[case]
    g, part, R, rot = _rotation_stage(3, 0.5, 0.2, **rotation_kw)
    g = g if change_graph is None else change_graph(g)
    config = SolverConfig(**{"epsilon": 0.5, "grad_tol": 1e-10, "max_iters": 60, **config_kw})
    fresh = collaborative_translation_solve(g, part, R, config, oversampling=oversampling)
    prior = [rot.split] if rot.split else []  # newton has no split to hand on
    given, calls = _counted_translation(monkeypatch, g, part, R, config, oversampling=oversampling, prior=prior)
    assert calls["build_blocks"] == 1 and calls["schur_contribution"] == 3 and calls["sparsified_schur"] == 1
    assert calls["set_reduced"] == 1
    assert given[1].split is not rot.split and prior == []  # the holder lets the unused split go
    old_couplings = [b.coupling for b in rot.split.blocks] if rot.split else []
    assert not any(b.coupling is Z for b in given[1].split.blocks for Z in old_couplings)
    _assert_same_run(given, fresh)
