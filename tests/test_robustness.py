"""Robustness of both collaborative solvers: weight units, the rotation gauge and edge-case partitions.

The gradient's column sums vanish only up to round-off that grows with
the weights, so the split solve takes them off row 0; very heavy weights
must converge rather than fail the feasibility check. A global rotation
of the start is a symmetry of the problem and must move every iterate
by that rotation alone. Partitions where every vertex is a separator and
graphs that are one spanning tree must run through both stages.
"""

import numpy as np
import pytest

from lapra import rotation
from lapra.manifold import RotationState, exp_map_batch, random_rotation
from lapra.pose_graph import SyntheticSpec, generate_grid, partition_contiguous, spanning_tree_init
from lapra.rotation import SolverConfig, collaborative_solve
from lapra.translation import collaborative_translation_solve


def _grid(side, d=3, sigma_deg=5.0, edge_prob=0.3, seed=0):
    return generate_grid(SyntheticSpec(side=side, d=d, sigma_rot=np.deg2rad(sigma_deg), edge_prob=edge_prob, seed=seed))


def _perturbed(R: RotationState, deg: float, seed: int) -> RotationState:
    V = np.deg2rad(deg) * np.random.default_rng(seed).standard_normal((R.n, R.p))
    return RotationState(exp_map_batch(V) @ R.mats)


@pytest.mark.parametrize("side, scale", [(6, 1e7), (6, 1e8), (16, 1e7), (16, 1e8)])
def test_heavy_rotation_weights_converge(side, scale):
    """Scaling every kappa scales L and B alike, so the solve still converges at 1e7 and 1e8."""
    g, _ = _grid(side, seed=3)
    g.kappa = g.kappa * scale
    _, trace = collaborative_solve(g, partition_contiguous(g, 4), spanning_tree_init(g), SolverConfig(epsilon=0.0))
    assert trace.converged


def _solve_keeping_iterates(monkeypatch, g, part, R0, config, oversampling):
    """collaborative_solve with every retracted iterate recorded."""
    iterates, apply_update = [], rotation._apply_update

    def spy(R, V):
        out = apply_update(R, V)
        iterates.append(out.mats.copy())
        return out

    monkeypatch.setattr(rotation, "_apply_update", spy)
    _, trace = collaborative_solve(g, part, R0, config, oversampling=oversampling)
    monkeypatch.undo()
    return trace, iterates


@pytest.mark.parametrize("d, side", [(2, 16), (3, 8)])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_global_rotation_of_the_start_rotates_every_iterate(monkeypatch, d, side, epsilon, seed):
    """Starting from Q R0 gives iterates Q R_k, the same counts and the same bytes.

    At eps 0.5 the small budget makes some robot sample its upload in every case.
    """
    g, _ = _grid(side, d=d, seed=seed)
    part = partition_contiguous(g, 4)
    R0 = spanning_tree_init(g)
    Q = random_rotation(d, np.random.default_rng(100 + seed))
    config = SolverConfig(epsilon=epsilon, max_iters=12, seed=seed)
    trace, iterates = _solve_keeping_iterates(monkeypatch, g, part, R0, config, oversampling=0.2)
    trace_q, iterates_q = _solve_keeping_iterates(monkeypatch, g, part, RotationState(Q @ R0.mats), config, 0.2)
    assert (trace_q.converged, trace_q.iterations) == (trace.converged, trace.iterations)
    assert len(iterates_q) == len(iterates) == trace.iterations
    assert trace_q.ledger.to_csv() == trace.ledger.to_csv()
    for R_k, QR_k in zip(iterates, iterates_q):
        assert np.abs(QR_k - Q @ R_k).max() <= 1e-12
    norms = np.array([row.grad_norm for row in trace.rows])
    norms_q = np.array([row.grad_norm for row in trace_q.rows])
    # a converged 2D run ends at round-off, where only an absolute bound holds
    np.testing.assert_allclose(norms_q[:-1], norms[:-1], rtol=1e-6)
    assert abs(norms_q[-1] - norms[-1]) <= max(1e-6 * norms[-1], 1e-12)


def _both_stages(g, part, R0, epsilon):
    R, rot = collaborative_solve(g, part, R0, SolverConfig(epsilon=epsilon))
    M, trans = collaborative_translation_solve(g, part, R, SolverConfig(epsilon=epsilon, grad_tol=1e-10))
    assert rot.converged and trans.converged
    assert np.abs(M.mean(axis=0)).max() < 1e-12
    return rot.iterations, trans.iterations


@pytest.mark.parametrize("start", ["tree", "perturbed"])
def test_one_robot_per_vertex_leaves_every_interior_empty(start):
    """No robot holds an edge, so every edge is a cross edge and the server system is the whole Laplacian."""
    g, _ = _grid(3)
    part = partition_contiguous(g, g.n)
    assert part.separators.size == g.n and all(F.size == 0 for F in part.interiors)
    R0 = spanning_tree_init(g)
    if start == "perturbed":
        R0 = _perturbed(R0, 5.0, seed=1)
    assert _both_stages(g, part, R0, epsilon=0.0) == (4, 1)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("robots", [1, 3, "n"])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_tree_only_graphs_solve_from_either_start(d, robots, epsilon):
    """A tree's measurements are consistent, so its tree start is optimal and one sweep is exact."""
    g, _ = _grid(5, d=d, edge_prob=0.0)
    assert g.m == g.n - 1
    part = partition_contiguous(g, g.n if robots == "n" else robots)
    R0 = spanning_tree_init(g)
    assert _both_stages(g, part, R0, epsilon) == (0, 1)
    iterations, sweeps = _both_stages(g, part, _perturbed(R0, 5.0, seed=1), epsilon)
    assert 1 <= iterations <= 3 and sweeps == 1
