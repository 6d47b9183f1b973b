"""Robustness of both collaborative solvers: weight units, the rotation gauge and edge-case partitions.

The gradient's column sums vanish only up to round-off that grows with
the weights, so the split solve takes them off row 0; very heavy weights
must converge rather than fail the feasibility check. A global rotation
of the start is a symmetry of the problem and must move every iterate
by that rotation alone. Partitions where every vertex is a separator and
graphs that are one spanning tree must run through both stages. A bad
config, a rotation set of the wrong size or with a block off the group,
a partition of another graph or with a negative robot id, or a
non-finite edge weight fails before any set-up, and a bad oversampling
before any factorization.
"""

import dataclasses

import numpy as np
import pytest

from lapra import decomposition as dd
from lapra import rotation
from lapra.manifold import RotationState, exp_map_batch, random_rotation
from lapra.pose_graph import (
    GraphError,
    Partition,
    SyntheticSpec,
    generate_grid,
    partition_contiguous,
    spanning_tree_init,
)
from lapra.rotation import SolverConfig, collaborative_solve, newton_solve
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
    assert trace_q.ledger.events == trace.ledger.events
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


# ---------------------------------------------------------------------------
# Inputs no solve can run with

_SOLVERS = {"rotation": collaborative_solve, "translation": collaborative_translation_solve, "newton": newton_solve}


def _forbid_set_up(monkeypatch):
    """Make every set-up step, and Newton's first step, fail if it is reached."""
    def no_set_up(*args, **kwargs):
        raise AssertionError("set up before the inputs were checked")

    for owner, name in [(dd, "build_blocks"), (dd, "spd_factor"), (dd, "grounded_solver"),
                        (rotation, "exact_newton_step")]:
        monkeypatch.setattr(owner, name, no_set_up)


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epsilon", float("nan"), r"^epsilon must be non-negative$"),
        ("epsilon", -1.0, r"^epsilon must be non-negative$"),
        ("grad_tol", float("nan"), r"^grad_tol must be non-negative, got nan$"),
        ("grad_tol", -1.0, r"^grad_tol must be non-negative, got -1.0$"),
        ("max_iters", -1, r"^max_iters must be non-negative, got -1$"),
        ("max_iters", 2.5, r"^max_iters must be an integer, got 2.5$"),
        ("seed", -1, r"^seed must be non-negative, got -1$"),
        ("seed", 1.5, r"^seed must be an integer, got 1.5$"),
        ("distance", "bogus", r"^unknown distance 'bogus'$"),
    ],
    ids=["epsilon-nan", "epsilon-negative", "grad-tol-nan", "grad-tol-negative", "max-iters", "max-iters-fraction",
         "seed", "seed-fraction", "distance"],
)
def test_a_bad_config_fails_before_any_set_up(monkeypatch, solver, field, value, message):
    g, _ = _grid(3)
    part, R0 = partition_contiguous(g, 3), spanning_tree_init(g)
    _forbid_set_up(monkeypatch)
    with pytest.raises(ValueError, match=message):
        _SOLVERS[solver](g, part, R0, SolverConfig(**{field: value}))


def test_a_solver_config_is_frozen():
    config = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_iters = -1
    assert config.max_iters == 50


@pytest.mark.parametrize("solver", list(_SOLVERS))
def test_boundary_configs_are_accepted(solver):
    """A zero tolerance runs every step, an infinite one converges at the start, and max_iters 0 takes no step."""
    g, _ = _grid(3)
    part, R0 = partition_contiguous(g, 3), spanning_tree_init(g)
    for config, converged, iterations in [(SolverConfig(grad_tol=0.0, max_iters=2), False, 2),
                                          (SolverConfig(grad_tol=float("inf")), True, 0),
                                          (SolverConfig(max_iters=0), False, 0)]:
        _, trace = _SOLVERS[solver](g, part, R0, config)
        assert (trace.converged, trace.iterations, len(trace.rows)) == (converged, iterations, iterations + 1)


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize("size", ["short", "long", "2D-in-3D"])
def test_a_rotation_set_of_the_wrong_size_fails_before_any_set_up(monkeypatch, solver, size):
    """Side 4 has 64 vertices: 63 or 66 rotations, or 64 planar ones, are a GraphError for every solver."""
    g, _ = _grid(4)
    mats = spanning_tree_init(g).mats
    R = {"short": RotationState(mats[:-1]), "long": RotationState(np.concatenate([mats, mats[:2]])),
         "2D-in-3D": RotationState.identity(g.n, 2)}[size]
    _forbid_set_up(monkeypatch)
    with pytest.raises(GraphError, match=rf"^{R.n} rotations in {R.d}D do not match the graph's 64 vertices in 3D$"):
        _SOLVERS[solver](g, partition_contiguous(g, 3), R, SolverConfig())


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("block", ["nan", "inf", "twice-identity", "reflection", "drifted"])
def test_a_rotation_set_with_an_off_group_block_fails_before_any_set_up(monkeypatch, solver, d, block):
    """A non-finite block, 2 I, a reflection or a block drifted by 1e-8 is a GraphError naming its vertex.

    2 I used to run and report converged, and a NaN block failed only after set-up."""
    g, _ = _grid(4, d=d)
    R = spanning_tree_init(g)
    R.mats[5] = {"nan": np.full((d, d), np.nan), "inf": np.diag([np.inf] + [1.0] * (d - 1)),
                 "twice-identity": 2.0 * np.eye(d), "reflection": R.mats[5] @ np.diag([-1.0] + [1.0] * (d - 1)),
                 "drifted": R.mats[5] + 1e-8}[block]
    R.mats[9] = np.nan  # a later bad block is not the one named
    _forbid_set_up(monkeypatch)
    with pytest.raises(GraphError, match=r"^vertex 5 rotation is non-finite or not a rotation within tol 1e-09$"):
        _SOLVERS[solver](g, partition_contiguous(g, 3), R, SolverConfig())


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize(
    "kind, message",
    [("smaller", r"^a partition of 8 vertices does not match the graph's 27 vertices$"),
     ("larger", r"^a partition of 64 vertices does not match the graph's 27 vertices$"),
     ("other-edges", r"^the partition's separators are not the endpoints of the graph's cross-robot edges$")],
    ids=["smaller", "larger", "other-edges"],
)
def test_a_partition_of_another_graph_fails_before_any_set_up(monkeypatch, solver, kind, message):
    """Side 3 has 27 vertices: a side-2 or side-4 partition, or one whose separators follow another graph's
    edges, is a GraphError for every solver."""
    g, _ = _grid(3)
    if kind == "other-edges":
        other, _ = _grid(3, seed=1)
        part = Partition.from_owner(partition_contiguous(g, 3).owner, other.pairs)
        assert not np.array_equal(part.is_separator, partition_contiguous(g, 3).is_separator)
    else:
        part = partition_contiguous(_grid(2 if kind == "smaller" else 4)[0], 3)
    _forbid_set_up(monkeypatch)
    with pytest.raises(GraphError, match=message):
        _SOLVERS[solver](g, part, spanning_tree_init(g), SolverConfig())


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize("negative, first", [([0, 1, 2], 0), ([22, 7], 7)], ids=["first-three", "two-later"])
def test_a_negative_robot_id_fails_before_any_set_up(monkeypatch, solver, negative, first):
    """A vertex owned by robot -1 is a GraphError naming the first such vertex. With vertices 0-2 at -1, the split
    solvers used to fail in numpy's bincount, and Newton reported converged with no robot metering those vertices."""
    g, _ = generate_grid(SyntheticSpec(side=3, sigma_rot=0.05, seed=1))
    owner = np.repeat([0, 1, 2], 9)
    owner[negative] = -1
    _forbid_set_up(monkeypatch)
    with pytest.raises(GraphError, match=rf"^vertex {first} has negative robot id -1$"):
        _SOLVERS[solver](g, Partition.from_owner(owner, g.pairs), spanning_tree_init(g), SolverConfig())


@pytest.mark.parametrize("solver, weight", [("rotation", "kappa"), ("translation", "tau")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_weight_fails_before_any_set_up(monkeypatch, solver, weight, value):
    """A NaN or +inf kappa (rotation) or tau (translation) is a ValueError naming its edge, raised while the
    Laplacian is assembled. Both used to pass assembly and fail as "robot 0 interior solve: singular factor"."""
    g, _ = _grid(3)
    getattr(g, weight)[[4, 9]] = value
    _forbid_set_up(monkeypatch)
    with pytest.raises(ValueError, match=rf"^edge \({g.I[4]},{g.J[4]}\) has non-finite weight {value}$"):
        _SOLVERS[solver](g, partition_contiguous(g, 3), spanning_tree_init(g), SolverConfig())


@pytest.mark.parametrize("solver, mode", [("rotation", "spectral"), ("rotation", "block_diagonal"),
                                          ("rotation", "tree"), ("translation", "spectral")])
@pytest.mark.parametrize("oversampling", [-1.0, 0.0, float("nan"), float("inf")])
def test_a_bad_oversampling_fails_before_any_factorization(monkeypatch, solver, mode, oversampling):
    """Every mode checks the budget multiplier, the heuristic ones too, before a robot factors its interior."""
    g, _ = _grid(3)
    part, R0 = partition_contiguous(g, 3), spanning_tree_init(g)

    def no_factor(*args):
        raise AssertionError("factored before the oversampling check")

    monkeypatch.setattr(dd, "spd_factor", no_factor)
    monkeypatch.setattr(dd, "grounded_solver", no_factor)
    extra = {"schur_mode": mode} if solver == "rotation" else {}
    for epsilon in (0.0, 0.5):
        with pytest.raises(ValueError, match=rf"^oversampling must be positive and finite, got {oversampling}$"):
            _SOLVERS[solver](g, part, R0, SolverConfig(epsilon=epsilon), oversampling=oversampling, **extra)
