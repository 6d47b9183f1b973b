"""Rotation averaging by Laplacian-preconditioned tangent updates.

Estimates one rotation per vertex from noisy relative measurements by
minimizing a weighted sum of per-edge distances. Each outer iteration
solves a single weighted graph Laplacian system in place of the true
(block-structured) Hessian; the system can be solved centrally or split
across robots through the decomposition module, with every upload
metered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, eigh

from . import decomposition as dd
from .decomposition import separator_rows_by_owner
from .laplacians import (
    DEFAULT_OVERSAMPLING,
    WeightedGraph,
    laplacian,
    schur_update,
    solve_grounded,
    spd_factor,
)
from .manifold import (
    NumericalError,
    RotationState,
    _raise_near_pi,
    exp_map_batch,
    hat_batch,
    log_map_batch,
    row_norms,
    stack_matmul,
)
from .metrics import gamma_factor
from .pose_graph import MeasurementGraph, Partition, scatter_edge_rows

__all__ = [
    "Distance",
    "GEODESIC",
    "CHORDAL",
    "distance_by_name",
    "SolverConfig",
    "TraceRow",
    "RunTrace",
    "edge_gradient",
    "edge_hessian",
    "cost",
    "assemble_gradient_rhs",
    "laplacian_weights",
    "iterate",
    "centralized_step",
    "collaborative_solve",
    "exact_newton_step",
    "newton_solve",
    "assemble_full_hessian",
    "hessian_report",
    "HessianReport",
]


@dataclass(frozen=True)
class Distance:
    """A reshaped per-edge distance: value, first and second derivative in the angle.

    rho_ddot(0) scales the surrogate Laplacian's weights and every edge's Hessian block at zero residual.
    """

    name: str
    rho: callable
    rho_dot: callable
    rho_ddot: callable


GEODESIC = Distance(
    name="geodesic",
    rho=lambda t: 0.5 * t * t,
    rho_dot=lambda t: t,
    rho_ddot=lambda t: 1.0,
)

CHORDAL = Distance(
    name="chordal",
    rho=lambda t: 2.0 - 2.0 * np.cos(t),
    rho_dot=lambda t: 2.0 * np.sin(t),
    rho_ddot=lambda t: 2.0 * np.cos(t),
)


def distance_by_name(name: str) -> Distance:
    try:
        return {"geodesic": GEODESIC, "chordal": CHORDAL}[name]
    except KeyError:
        raise ValueError(f"unknown distance {name!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    """One solve's settings, checked on construction, so a bad one fails before any set-up: a negative or
    NaN epsilon or grad_tol, a max_iters or seed that is not a non-negative integer, or an unknown
    distance raises ValueError."""

    epsilon: float = 0.0
    distance: str = "geodesic"
    grad_tol: float = 1e-5
    max_iters: int = 50
    project_horizontal: bool = False
    seed: int = 0

    def __post_init__(self):
        distance_by_name(self.distance)
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be non-negative")
        for name in ("max_iters", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        for name in ("grad_tol", "max_iters", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class TraceRow:
    iter: int
    grad_norm: float
    cost: float
    cum_upload_bytes: int


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    ledger: dd.CommsLedger | None = None
    iterates: list | None = None  # populated only on request
    split: dd.Split | None = None  # the stage's robot-side set-up, which a later stage may reuse

    @property
    def final_grad_norm(self) -> float:
        return self.rows[-1].grad_norm if self.rows else float("nan")


def iterate(
    x0,
    measure,
    step,
    config: SolverConfig,
    ledger: dd.CommsLedger,
    keep_iterates: bool = False,
) -> tuple[object, RunTrace]:
    """The outer loop every solver shares: measure, then stop or step.

    measure(x) returns (residual, cost) and adds a trace row. The loop
    stops once the residual norm is at most config.grad_tol (converged)
    or after config.max_iters steps; non-convergence is reported in the
    trace, not raised. Each step opens a ledger round, then takes
    x = step(x, residual), which meters its uploads into that round.
    keep_iterates=True keeps a copy of the iterate behind every row.
    """
    x = x0
    trace = RunTrace(ledger=ledger, iterates=[] if keep_iterates else None)
    for k in range(config.max_iters + 1):
        residual, cost_k = measure(x)
        norm = float(np.linalg.norm(residual))
        trace.rows.append(TraceRow(k, norm, cost_k, ledger.total_bytes()))
        if keep_iterates:
            trace.iterates.append(x.copy())
        if norm <= config.grad_tol:
            trace.converged = True
            break
        if k == config.max_iters:
            break
        ledger.begin_round()
        x = step(x, residual)
        trace.iterations = k + 1
    return x, trace


# ---------------------------------------------------------------------------
# Per-edge derivatives

_ZERO_RESIDUAL = 1e-8


def _edge_gradients(R_i, R_j, R_tilde, kind: Distance):
    """Costs and tangent-space gradients of m edges at once.

    Takes (m, d, d) stacks, or in 2D their (m, 2) first columns (cos,
    sin), which is all the planar residual needs. Returns (rho(theta),
    g_i, g_j) with shapes (m,), (m, p) and (m, p). Gradient rows vanish
    where the residual angle is below 1e-8.
    """
    if R_tilde.shape[1] == 2:
        (ci, si), (cj, sj), (ct, st) = ((M[:, :, 0] if M.ndim == 3 else M).T for M in (R_i, R_j, R_tilde))
        x, y = ci * cj + si * sj, ci * sj - si * cj  # first column of R_i^T R_j
        phi = np.arctan2(ct * y - st * x, ct * x + st * y)  # the angle of R_tilde^T R_i^T R_j
        _raise_near_pi(phi)
        theta = np.abs(phi)
        g_i = np.where(theta >= _ZERO_RESIDUAL, -kind.rho_dot(theta) * np.sign(phi), 0.0)[:, None]
        return kind.rho(theta), g_i, -g_i
    A = R_i @ R_tilde
    V = log_map_batch(np.swapaxes(A, 1, 2) @ R_j)  # R_tilde^T R_i^T R_j
    theta = row_norms(V)
    moving = theta >= _ZERO_RESIDUAL
    t = np.where(moving, theta, 1.0)
    rd = np.where(moving, kind.rho_dot(t), 0.0)[:, None]
    # R_j = A Q and Q U = U, so R_j U = A U: one product gives both ends
    g_j = rd * stack_matmul(A, (V / t[:, None])[:, :, None])[:, :, 0]
    return kind.rho(theta), -g_j, g_j


def edge_gradient(R_i, R_j, R_tilde, kind: Distance) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-space gradient of the edge cost at (R_i, R_j).

    Differentiation is through left perturbations Exp(v) R. Returns the
    blocks (g_i, g_j); both vanish at zero residual. The residual angle
    must stay below pi, where the distance is not differentiable.
    """
    one_edge = [np.asarray(M, dtype=float)[None] for M in (R_i, R_j, R_tilde)]
    _, g_i, g_j = _edge_gradients(*one_edge, kind)
    return g_i[0], g_j[0]


def _edge_hessians(R_i, R_j, R_tilde, kind: Distance) -> np.ndarray:
    """2p x 2p second-derivative blocks of m edges at once, as an (m, 2p, 2p) stack.

    Takes (m, d, d) stacks. Planar problems reduce to a scalar second
    derivative times the difference pattern. In 3D the curvature
    correction enters through the residual axis; below a residual angle
    of 1e-8 the block becomes the scaled difference pattern exactly, and
    the formula approaches that limit continuously.
    """
    V = log_map_batch(np.swapaxes(R_tilde, 1, 2) @ np.swapaxes(R_i, 1, 2) @ R_j)
    theta = row_norms(V)
    m, p = V.shape
    if p == 1:
        h = np.broadcast_to(kind.rho_ddot(theta), (m,))
        return h[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    P = np.zeros((m, 6, 6))
    P[:, :3, :3] = R_i @ R_tilde
    P[:, 3:, 3:] = R_j
    moving = theta >= _ZERO_RESIDUAL
    t = np.where(moving, theta, 1.0)
    U = V / t[:, None]
    rd = kind.rho_dot(t)
    alpha = np.where(moving, rd / (2.0 * np.tan(t / 2.0)), kind.rho_ddot(0.0))
    gamma = np.where(moving, kind.rho_ddot(t) - alpha, 0.0)[:, None, None]
    beta = np.where(moving, rd / 2.0, 0.0)[:, None, None]
    Sym = alpha[:, None, None] * np.eye(3) + gamma * (U[:, :, None] * U[:, None, :])
    Ht = Sym + beta * hat_batch(U)
    M = np.block([[Sym, -Ht], [-np.swapaxes(Ht, 1, 2), Sym]])
    return P @ M @ np.swapaxes(P, 1, 2)


def edge_hessian(R_i, R_j, R_tilde, kind: Distance) -> np.ndarray:
    """2p x 2p second-derivative block of the edge cost: the one-edge case of _edge_hessians."""
    one_edge = [np.asarray(M, dtype=float)[None] for M in (R_i, R_j, R_tilde)]
    return _edge_hessians(*one_edge, kind)[0]


# ---------------------------------------------------------------------------
# Assembly

def _gradient_and_cost(g: MeasurementGraph, R: RotationState, kind: Distance) -> tuple[np.ndarray, float]:
    """Gradient right-hand side B and total cost."""
    M = R.mats[:, :, 0] if g.d == 2 else R.mats  # the planar residual needs first columns only
    rho, g_i, g_j = _edge_gradients(np.take(M, g.I, axis=0), np.take(M, g.J, axis=0), g.R_tilde, kind)
    k = g.kappa[:, None]
    B = scatter_edge_rows(g.n, g.I, g.J, -(k * g_i), -(k * g_j))
    return B, float(np.sum(g.kappa * rho))


def cost(g: MeasurementGraph, R: RotationState, kind: Distance) -> float:
    """Total weighted edge cost at the given rotations."""
    return _gradient_and_cost(g, R, kind)[1]


def assemble_gradient_rhs(g: MeasurementGraph, R: RotationState, kind: Distance) -> np.ndarray:
    """Right-hand side for the surrogate system: row i is minus the gradient at vertex i.

    Column sums vanish (each edge contributes equal and opposite blocks
    along the residual axis), so the singular surrogate system is always
    feasible.
    """
    return _gradient_and_cost(g, R, kind)[0]


def laplacian_weights(g: MeasurementGraph, kind: Distance) -> WeightedGraph:
    """Weights of the surrogate Laplacian: rho''(0) times kappa per measurement."""
    return WeightedGraph.from_edge_list(g.n, g.pairs, kind.rho_ddot(0.0) * g.kappa)


def _apply_update(R: RotationState, V: np.ndarray) -> RotationState:
    E = exp_map_batch(V)
    out = RotationState(stack_matmul(E, R.mats) if R.d == 2 else E @ R.mats)
    out.renormalize()
    return out


# ---------------------------------------------------------------------------
# Solvers

def centralized_step(g: MeasurementGraph, R: RotationState, kind: Distance) -> RotationState:
    """One exact surrogate step: solve the weighted Laplacian system and retract.

    The singular system is solved to its minimum-norm representative
    (grounding plus zero-mean shift).
    """
    L = laplacian(laplacian_weights(g, kind))
    B = assemble_gradient_rhs(g, R, kind)
    V = solve_grounded(L, B)
    return _apply_update(R, V)


def collaborative_solve(
    g: MeasurementGraph,
    partition: Partition,
    R0: RotationState,
    config: SolverConfig,
    schur_mode: str = "spectral",
    oversampling: float = DEFAULT_OVERSAMPLING,
    threads: int = 1,
) -> tuple[RotationState, RunTrace]:
    """Iterate surrogate steps with the robot/server split system.

    The separator contribution is compressed and uploaded once; each
    iteration then uploads per-robot gradient partial sums for separator
    rows plus reduced right-hand sides, all metered. Stops when the
    gradient norm falls below config.grad_tol or after config.max_iters
    updates; non-convergence is reported in the trace, not raised. The
    trace's split is the stage's set-up, for a later stage to reuse.
    threads is accepted and ignored: robots are set up one after another.
    It stays only because perfbench passes it, and goes once that stops.
    """
    g.check_partition(partition)
    g.check_rotations(R0)
    kind = distance_by_name(config.distance)
    L = laplacian(laplacian_weights(g, kind))
    solve, ledger, split = dd.split_setup(L, partition, config.epsilon, config.seed, schur_mode, oversampling,
                                          separator_rows_by_owner(g, partition))

    def step(R, B):
        V = solve(B)
        if config.project_horizontal:
            V = V - V.mean(axis=0, keepdims=True)
        return _apply_update(R, V)

    R, trace = iterate(R0.copy(), lambda R: _gradient_and_cost(g, R, kind), step, config, ledger)
    trace.split = split
    return R, trace


def _gauge_fixed(A: np.ndarray, p: int, shift: float) -> np.ndarray:
    """Ph A Ph + shift Pn for a dense np x np A, where Pn = (1 1ᵀ / n) ⊗ I_p projects onto the gauge.

    No projector is formed: Ph = I - Pn centres the vertex means of the
    (n, p, n, p) view of A over its row and its column blocks.
    """
    n = A.shape[0] // p
    K = A.reshape(n, p, n, p)
    K = K - K.mean(axis=0, keepdims=True)
    K -= K.mean(axis=2, keepdims=True)
    for c in range(p):
        K[:, c, :, c] += shift / n
    return K.reshape(n * p, n * p)


def exact_newton_step(g: MeasurementGraph, R: RotationState, kind: Distance) -> RotationState:
    """One exact second-order step on the full Hessian, projected off the gauge.

    That is the quotient-manifold Hessian (Absil, Mahony & Sepulchre,
    2008, ch. 7). Dense solve, intended for small problems and as a
    baseline; it records nothing.
    """
    n, p = g.n, g.p
    if n * p > 6000:
        raise NumericalError("problem too large for the dense second-order step")
    H = assemble_full_hessian(g, R, kind)
    B = assemble_gradient_rhs(g, R, kind)
    sigma = max(np.trace(H) / (n * p), 1.0)
    try:
        cf = cho_factor(_gauge_fixed(H, p, sigma), overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"projected Hessian is not positive definite: {exc}") from exc
    V = cho_solve(cf, B.reshape(-1)).reshape(n, p)
    V -= V.mean(axis=0)  # clean round-off along the gauge direction
    return _apply_update(R, V)


def newton_solve(
    g: MeasurementGraph, partition: Partition, R0: RotationState, config: SolverConfig
) -> tuple[RotationState, RunTrace]:
    """Iterate exact_newton_step, metering each step's per-robot Hessian uploads.

    After each step, every robot's separator-space block of the true
    Hessian at the step's start is recorded in that step's round (kind
    "schur"), counting upper-triangle entries above 1e-12 times the
    block's largest magnitude (at least 1). A partition without
    separators uploads nothing. The dense second-order baseline;
    config.epsilon, seed and project_horizontal do not apply. The weights
    are checked as the split solvers check them, before the first step.
    """
    g.check_partition(partition)
    g.check_rotations(R0)
    kind = distance_by_name(config.distance)
    laplacian_weights(g, kind)  # a NaN, inf or non-positive kappa raises here, naming its edge
    ledger = dd.CommsLedger()

    def step(R, _):
        R_next = exact_newton_step(g, R, kind)
        if partition.separators.size > 0:
            for a, S_h in enumerate(_newton_schur_blocks(g, R, kind, partition)):
                thr = 1e-12 * max(1.0, np.abs(S_h.data).max(initial=0.0))
                ledger.record(a, "schur", int(np.count_nonzero(np.abs(sp.triu(S_h).data) > thr)))
        return R_next

    return iterate(R0.copy(), lambda R: _gradient_and_cost(g, R, kind), step, config, ledger)


def _weighted_edge_hessians(g: MeasurementGraph, R: RotationState, kind: Distance, edges) -> np.ndarray:
    """(k, 2p, 2p) stack of kappa-weighted Hessian blocks of the listed edges."""
    I, J = g.I[edges], g.J[edges]
    return g.kappa[edges, None, None] * _edge_hessians(R.mats[I], R.mats[J], g.R_tilde[edges], kind)


def _block_index(slot_i: np.ndarray, slot_j: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices that place 2p x 2p edge blocks at vertex slots (slot_i, slot_j)."""
    dof = np.concatenate([slot_i[:, None] * p + np.arange(p), slot_j[:, None] * p + np.arange(p)], axis=1)
    return dof[:, :, None], dof[:, None, :]


def assemble_full_hessian(g: MeasurementGraph, R: RotationState, kind: Distance) -> np.ndarray:
    """Dense np x np second-derivative matrix of the total cost, summed in edge order."""
    H = np.zeros((g.n * g.p, g.n * g.p))
    np.add.at(H, _block_index(g.I, g.J, g.p), _weighted_edge_hessians(g, R, kind, slice(None)))
    return H


def _newton_schur_blocks(g, R, kind, partition) -> list[sp.csr_matrix]:
    """Per-robot separator-space contributions of the true Hessian.

    Robot a assembles the Hessian of its local edges over its interior
    plus all separators and eliminates the interior part. Used only for
    communication accounting of the second-order baseline.
    """
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
        solve = spd_factor(H[:nf, :nf], f"robot {a} local Hessian interior solve")
        out.append(schur_update(solve, H[:nf, nf:], H[nf:, nf:]))
    return out


@dataclass
class HessianReport:
    delta_empirical: float
    kernel_match: bool
    lambda2: float
    lambda_max: float
    mu: float
    lipschitz: float
    kappa: float
    gamma: float
    epsilon: float


def hessian_report(
    g: MeasurementGraph, R: RotationState, kind: Distance, epsilon: float = 0.0
) -> HessianReport:
    """Compare the projected Hessian against the surrogate Laplacian.

    delta_empirical is the tightest symmetric spectral-equivalence
    exponent between the two quadratic forms on the gauge-orthogonal
    subspace; the derived curvature bounds and the worst-case rate
    factor gamma(delta + epsilon) follow from it. Dense, so limited to
    n * p <= 3000.
    """
    n, p = g.n, g.p
    if n * p > 3000:
        raise NumericalError("problem too large for the dense curvature report")
    H = assemble_full_hessian(g, R, kind)
    L = laplacian(laplacian_weights(g, kind)).toarray()
    M = np.kron(L, np.eye(p))
    # Both forms are the identity on the gauge, which only adds p eigenvalues equal to 1.
    lam = eigh(_gauge_fixed(H, p, 1.0), _gauge_fixed(M, p, 1.0), eigvals_only=True)
    ev_L = np.linalg.eigvalsh(L)
    lambda2, lambda_max = float(ev_L[1]), float(ev_L[-1])
    if lam.min() > 1e-12 * max(abs(lam).max(), 1.0):
        delta = float(np.max(np.abs(np.log(lam))))
        mu, lip = math.exp(-delta) * lambda2, math.exp(delta) * lambda_max
        kappa, gamma = lip / mu, gamma_factor(lip / mu, delta + epsilon)
    else:
        delta = lip = kappa = gamma = float("inf")
        mu = 0.0
    return HessianReport(delta, math.isfinite(delta), lambda2, lambda_max, mu, lip, kappa, gamma, epsilon)
