"""Translation recovery given fixed rotation estimates.

With rotations held fixed the translation problem is linear least
squares whose normal equations are a graph Laplacian system, solved
either exactly or iteratively through the sparsified robot/server
split. Because each pass through an inexact reduced system leaves a
computable residual, repeating the solve on the residual refines the
answer geometrically.
"""

from __future__ import annotations

import numpy as np

from . import decomposition as dd
from .decomposition import separator_rows_by_owner
from .laplacians import DEFAULT_OVERSAMPLING, WeightedGraph, laplacian, solve_grounded
from .manifold import RotationState
from .pose_graph import MeasurementGraph, Partition, scatter_edge_rows
from .rotation import RunTrace, SolverConfig, iterate

__all__ = [
    "translation_weights",
    "assemble_translation_rhs",
    "translation_cost",
    "exact_translation_solve",
    "collaborative_translation_solve",
]


def translation_weights(g: MeasurementGraph) -> WeightedGraph:
    """Weights tau of the translation normal equations, one per measurement."""
    return WeightedGraph.from_edge_list(g.n, g.pairs, g.tau)


def _rotated_measurements(g: MeasurementGraph, R_hat: RotationState) -> np.ndarray:
    """R_hat_i t_tilde for every edge, as (m, d) rows."""
    return (np.take(R_hat.mats, g.I, axis=0) @ g.t_tilde[:, :, None])[:, :, 0]


def assemble_translation_rhs(g: MeasurementGraph, R_hat: RotationState, rotated: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the translation normal equations, one row per vertex.

    Each measurement pushes tau * (R_hat_i t_tilde) onto its head vertex and pulls it
    from its tail, so column sums vanish. rotated, if given, is _rotated_measurements(g, R_hat).
    """
    W = g.tau[:, None] * (_rotated_measurements(g, R_hat) if rotated is None else rotated)
    return scatter_edge_rows(g.n, g.J, g.I, W, -W)


def translation_cost(g: MeasurementGraph, R_hat: RotationState, t: np.ndarray,
                     rotated: np.ndarray | None = None) -> float:
    """Weighted squared consistency error of translations t (n x d); rotated as in assemble_translation_rhs."""
    r = np.take(t, g.J, axis=0) - np.take(t, g.I, axis=0)
    r -= _rotated_measurements(g, R_hat) if rotated is None else rotated
    return float(np.sum(0.5 * g.tau * np.einsum("ki,ki->k", r, r)))


def exact_translation_solve(g: MeasurementGraph, R_hat: RotationState) -> np.ndarray:
    """Minimum-norm translations solving the normal equations exactly."""
    L = laplacian(translation_weights(g))
    B = assemble_translation_rhs(g, R_hat)
    return solve_grounded(L, B)


def collaborative_translation_solve(
    g: MeasurementGraph,
    partition: Partition,
    R_hat: RotationState,
    config: SolverConfig,
    oversampling: float = DEFAULT_OVERSAMPLING,
    keep_iterates: bool = False,
    prior: list[dd.Split] | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Iterative refinement of the translation system through the split solver.

    Each robot compresses its separator block by spectral sampling at
    quality config.epsilon. Starting from zero, each sweep solves the
    compressed system against the current residual and adds the
    correction. With an exact reduced system (epsilon = 0) the first sweep
    already solves the problem; a compressed one contracts the error
    geometrically. Stops when the residual norm drops below
    config.grad_tol or after config.max_iters sweeps. The returned
    estimate has zero column means.

    With keep_iterates=True the trace carries every intermediate
    estimate (before the zero-mean shift) for offline analysis. prior is a
    list holding an earlier stage's split (RunTrace.split), whose robot
    side is reused when built from the same Laplacian and inputs and is
    otherwise let go (see split_setup). The trace's split is this stage's.
    """
    g.check_partition(partition)
    g.check_rotations(R_hat)
    L = laplacian(translation_weights(g))
    solve, ledger, split = dd.split_setup(L, partition, config.epsilon, config.seed, "spectral", oversampling,
                                          separator_rows_by_owner(g, partition), prior)
    rotated = _rotated_measurements(g, R_hat)  # shared by the rhs and every sweep's cost
    B = assemble_translation_rhs(g, R_hat, rotated)

    M, trace = iterate(
        np.zeros((g.n, g.d)),
        lambda M: (B - L @ M, translation_cost(g, R_hat, M, rotated)),
        lambda M, E: M + solve(E),
        config,
        ledger,
        keep_iterates,
    )
    trace.split = split
    return M - M.mean(axis=0, keepdims=True), trace
