"""Graph Laplacians, Schur complements and spectral sparsification.

All matrices are scipy CSR unless noted. A "Laplacian" here means a
symmetric PSD matrix with non-positive off-diagonal entries and zero row
sums; several routines check or rely on that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, eigh, null_space, subspace_angles

from .manifold import NumericalError

__all__ = [
    "WeightedGraph",
    "laplacian",
    "graph_from_laplacian",
    "schur_update",
    "schur_complement",
    "effective_resistances",
    "sparsify",
    "check_epsilon",
    "heuristic_sparsify",
    "spd_factor",
    "grounded_solver",
    "solve_grounded",
    "upper_triangle_nnz",
    "DEFAULT_OVERSAMPLING",
    "EpsilonReport",
]

# Oversampling constant in the sample-count rule of `sparsify`. The rule
# only bites once the separator system is a few hundred vertices; below
# that the input comes back verbatim, which is the conservative choice.
DEFAULT_OVERSAMPLING = 4.0

# SuperLU settings for symmetric, diagonally dominant matrices such as Laplacian blocks (X. S. Li,
# "An overview of SuperLU", ACM TOMS 2005): one minimum-degree ordering on AᵀA + A for rows and
# columns alike, and no row pivoting, which such matrices do not need for stability.
SPD_SUPERLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

_LAPLACIAN_RTOL = 1e-8  # largest row sum of a Laplacian-like matrix, relative to its largest entry
_KERNEL_TOL = 1e-10  # eigenvalues up to this times the largest are check_epsilon's kernel


@dataclass
class WeightedGraph:
    """Undirected weighted graph with positive weights, parallel edges merged."""

    n: int
    edges: np.ndarray  # (m, 2) int, each row i < j
    weights: np.ndarray  # (m,) positive floats

    @classmethod
    def from_edge_list(cls, n: int, pairs, weights) -> "WeightedGraph":
        """Merge an (m, 2) pair array with its (m,) weights into sorted unique edges.

        Parallel and reversed pairs merge by summing their weights in
        input order. Raises ValueError for the first pair that is a self
        loop, leaves 0..n-1, or has a non-positive or a NaN or +inf weight.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        w = np.asarray(weights, dtype=float)
        a, b = pairs[:, 0], pairs[:, 1]
        checks = [
            (a == b, lambda k: f"self loop at vertex {a[k]}"),
            ((a < 0) | (a >= n) | (b < 0) | (b >= n), lambda k: f"edge ({a[k]},{b[k]}) outside 0..{n - 1}"),
            (w <= 0, lambda k: f"edge ({a[k]},{b[k]}) has non-positive weight {w[k]}"),
            (~np.isfinite(w), lambda k: f"edge ({a[k]},{b[k]}) has non-finite weight {w[k]}"),
        ]
        failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if failed.size:
            k = failed[0]
            raise ValueError(next(msg for mask, msg in checks if mask[k])(k))
        keys, slot = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
        ws = np.bincount(slot, weights=w, minlength=keys.size).astype(float, copy=False)  # int if empty
        return cls(n=n, edges=np.stack([keys // n, keys % n], axis=1), weights=ws)


def laplacian(g: WeightedGraph) -> sp.csr_matrix:
    """Weighted graph Laplacian as CSR."""
    i, j, w = g.edges[:, 0], g.edges[:, 1], g.weights
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-w, -w, w, w])
    L = sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    L.sum_duplicates()
    return L


def graph_from_laplacian(L: sp.spmatrix, tol: float = 0.0) -> WeightedGraph:
    """Recover the weighted graph underlying a Laplacian-structured matrix.

    This is the one place edges come out of a Laplacian. Off-diagonal
    entries with magnitude at or below tol (relative to the largest
    entry) are treated as round-off and dropped; a genuinely positive
    off-diagonal raises, naming the first in COO order of the upper
    triangle.
    """
    C = sp.coo_matrix(sp.triu(L, k=1))
    scale = max(abs(C.data).max(), 1.0) if C.nnz else 1.0
    keep = ~(np.abs(C.data) <= tol * scale)
    a, b, v = C.row[keep], C.col[keep], C.data[keep]
    positive = np.flatnonzero(v > 0)
    if positive.size:
        k = positive[0]
        raise ValueError(f"positive off-diagonal at ({a[k]},{b[k]}): {v[k]}")
    return WeightedGraph.from_edge_list(L.shape[0], np.stack([a, b], axis=1), -v)


def _is_laplacian_like(A: sp.spmatrix) -> bool:
    rowsums = np.abs(np.asarray(A.sum(axis=1)).ravel())
    return bool(rowsums.max(initial=0.0) <= _LAPLACIAN_RTOL * (abs(A).max() if A.nnz else 0.0))


def schur_update(solve, L_fc: sp.spmatrix, L_cc: sp.spmatrix) -> sp.csr_matrix:
    """L_cc - L_fcᵀ solve(L_fc) as CSR, where solve(B) applies the eliminated block's inverse to dense B.

    The subtraction is dense on the columns L_fc touches, and that block
    is symmetrized; the rest of L_cc is copied through. Entries below
    1e-14 times the largest magnitude (at least 1) are dropped.
    """
    L_fc, L_cc = sp.csr_matrix(L_fc), sp.csr_matrix(L_cc)
    fc, cc = L_fc.tocoo(), L_cc.tocoo()
    touched = np.unique(fc.col[fc.data != 0])
    L_adj = L_fc[:, touched]
    block = L_cc[touched][:, touched].toarray() - L_adj.T @ solve(L_adj.toarray())
    block = (block + block.T) / 2.0
    in_block = np.isin(np.arange(L_cc.shape[0]), touched)
    rest = ~(in_block[cc.row] & in_block[cc.col])
    thr = 1e-14 * max(1.0, np.abs(block).max(initial=0.0), np.abs(cc.data[rest]).max(initial=0.0))
    r, c = np.nonzero(np.abs(block) >= thr)
    rest &= np.abs(cc.data) >= thr
    rows, cols = np.concatenate([touched[r], cc.row[rest]]), np.concatenate([touched[c], cc.col[rest]])
    return sp.csr_matrix((np.concatenate([block[r, c], cc.data[rest]]), (rows, cols)), shape=L_cc.shape)


def schur_complement(L: sp.spmatrix, eliminate: np.ndarray) -> sp.csr_matrix:
    """Schur complement onto the vertices not listed in `eliminate`.

    The remaining vertices keep their original relative order. Requires
    the eliminated block to be nonsingular, which for a Laplacian means
    every eliminated component touches a kept vertex.
    """
    L = sp.csr_matrix(L)
    elim = np.asarray(eliminate, dtype=int)
    keep = np.setdiff1d(np.arange(L.shape[0]), elim)
    if elim.size == 0:
        return L[keep][:, keep].tocsr()
    if _detached(L, np.isin(np.arange(L.shape[0]), elim)).size:
        raise NumericalError("eliminated block is singular (a component touches no kept vertex)")
    return schur_update(spd_factor(L[elim][:, elim], "eliminated block solve"), L[elim][:, keep], L[keep][:, keep])


def effective_resistances(L: sp.spmatrix, pairs: np.ndarray, *, labels: np.ndarray | None = None) -> np.ndarray:
    """Effective resistance across each requested vertex pair.

    Exact dense computation per connected component (grounded inverse).
    Pairs spanning two components have infinite resistance and raise.
    labels, if given, must be L's component labels from
    _component_labels_of, for a caller that needs them too.
    """
    L = sp.csr_matrix(L)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if labels is None:
        labels = _component_labels_of(L)
    la, lb = labels[pairs[:, 0]], labels[pairs[:, 1]]
    split = np.flatnonzero(la != lb)
    if split.size:
        a, b = pairs[split[0]]
        raise NumericalError(f"vertices {a} and {b} lie in different components")
    out = np.empty(pairs.shape[0])
    comps, first = np.unique(la, return_index=True)
    for comp in comps[np.argsort(first)]:  # components in order of first query
        verts = np.flatnonzero(labels == comp)
        if verts.size > 3000:
            raise NumericalError(f"component of size {verts.size} too large for dense resistances")
        if verts.size == 1:
            raise NumericalError("isolated vertex has no resistances")
        # ground the first vertex of the component; resistances are
        # differences so any ground gives the same answer
        try:
            cf = cho_factor(L[verts[1:]][:, verts[1:]].toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"component Laplacian not factorizable: {exc}") from exc
        M = np.zeros((verts.size, verts.size))  # grounded inverse, zero row and column at the ground
        M[1:, 1:] = cho_solve(cf, np.eye(verts.size - 1))
        idx = np.flatnonzero(la == comp)
        a, b = np.searchsorted(verts, pairs[idx]).T
        out[idx] = M[a, a] + M[b, b] - 2 * M[a, b]
    return out


def _component_labels_of(L: sp.spmatrix) -> np.ndarray:
    # the upper triangle only, as graph_from_laplacian reads it: a lower entry whose mirror is zero is no edge
    return csgraph.connected_components(sp.triu(L, k=1) != 0, directed=False)[1]


def _require_oversampling(oversampling: float) -> None:
    """Raise ValueError unless the sampling budget multiplier lies in (0, inf)."""
    if not 0 < oversampling < math.inf:
        raise ValueError(f"oversampling must be positive and finite, got {oversampling}")


def sparsify(
    S: sp.spmatrix,
    epsilon: float,
    rng: np.random.Generator,
    oversampling: float = DEFAULT_OVERSAMPLING,
) -> sp.csr_matrix:
    """Spectral sparsifier of a Laplacian by effective-resistance sampling.

    Draws q = ceil(oversampling * n_c * ln(max(n_c, 2)) / eps'^2) edges
    with replacement, eps' = 1 - exp(-epsilon) and n_c the number of
    non-isolated vertices, each edge with probability proportional to
    w_e * R_e. Sampled copies contribute w_e / (q p_e) and duplicates
    merge. If the budget q covers every edge (an infinite budget, from
    eps' rounding to 0 or an overflow, always does), or epsilon is 0,
    the input comes back unchanged. Connectivity of each component is
    re-checked after sampling: on a kernel change the draw is retried up
    to 10 times before falling back to the exact input. A negative or NaN
    epsilon, or an oversampling outside (0, inf), raises ValueError.
    """
    S = sp.csr_matrix(S)
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    _require_oversampling(oversampling)
    if epsilon == 0.0:
        return S.copy()
    g = graph_from_laplacian(S, tol=1e-12)
    n_c = int(np.count_nonzero(np.bincount(g.edges.ravel(), minlength=g.n)))
    eps_prime = 1.0 - math.exp(-epsilon)  # 0.0 once epsilon is below about 1.1e-16
    budget = oversampling * n_c * math.log(max(n_c, 2)) / eps_prime**2 if eps_prime else math.inf
    if budget > g.edges.shape[0] - 1:  # ceil(budget) >= the edge count, as is every infinite budget
        return S.copy()
    q = math.ceil(budget)

    labels_ref = _component_labels_of(S)
    mass = g.weights * effective_resistances(S, g.edges, labels=labels_ref)
    probs = mass / mass.sum()

    for _ in range(10):
        counts = rng.multinomial(q, probs)
        picked = np.flatnonzero(counts)
        new_w = g.weights[picked] * counts[picked] / (q * probs[picked])
        sampled = WeightedGraph(n=g.n, edges=g.edges[picked], weights=new_w)
        out = laplacian(sampled)
        if np.array_equal(_component_labels_of(out), labels_ref):
            return out
    return S.copy()


@dataclass
class EpsilonReport:
    epsilon_achieved: float
    kernel_match: bool


def check_epsilon(A, B) -> EpsilonReport:
    """Measure how far two PSD matrices are from spectral equivalence.

    Returns the smallest eps with exp(-eps) B <= A <= exp(eps) B on the
    common image, i.e. the largest |log| of the generalized eigenvalues
    after projecting out the null space. kernel_match reports whether
    the two null spaces agree (within 1e-8 radians of subspace angle);
    when they do not, epsilon_achieved is infinite.
    """
    A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
    B = np.asarray(B.toarray() if sp.issparse(B) else B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    n = A.shape[0]

    def kernel(M):
        w, V = np.linalg.eigh((M + M.T) / 2.0)
        scale = max(abs(w).max(), 1.0)
        return V[:, w <= _KERNEL_TOL * scale]

    Ka, Kb = kernel(A), kernel(B)
    if Ka.shape[1] != Kb.shape[1]:
        return EpsilonReport(float("inf"), False)
    if Ka.shape[1] > 0:
        angles = subspace_angles(Ka, Kb)
        if angles.size and angles.max() > 1e-8:
            return EpsilonReport(float("inf"), False)
    if Ka.shape[1] == n:
        return EpsilonReport(0.0, True)
    # orthonormal basis of the common image
    Q = null_space(Kb.T) if Kb.shape[1] > 0 else np.eye(n)
    Ap = Q.T @ A @ Q
    Bp = Q.T @ B @ Q
    try:
        vals = eigh(Ap, Bp, eigvals_only=True)
    except np.linalg.LinAlgError:
        return EpsilonReport(float("inf"), False)
    if np.any(vals <= 0):
        return EpsilonReport(float("inf"), False)
    return EpsilonReport(float(np.max(np.abs(np.log(vals)))), True)


def heuristic_sparsify(S: sp.spmatrix, mode: str) -> sp.csr_matrix:
    """Crude sparsity-pattern baselines, no spectral guarantee.

    mode "block_diagonal" keeps only the diagonal (Jacobi); mode "tree"
    keeps the diagonal plus the off-diagonals of a maximum-weight
    spanning tree per component.
    """
    S = sp.csr_matrix(S)
    if mode == "block_diagonal":
        return sp.csr_matrix(sp.diags(S.diagonal()))
    if mode != "tree":
        raise ValueError(f"unknown mode {mode!r}")
    g = graph_from_laplacian(S, tol=1e-12)
    if g.edges.shape[0] == 0:
        return S.copy()
    W = sp.csr_matrix(
        (g.weights, (g.edges[:, 0], g.edges[:, 1])), shape=S.shape
    )
    # minimum spanning tree of negated weights = maximum-weight tree,
    # whose entries are already the Laplacian's off-diagonal values
    tree = sp.coo_matrix(csgraph.minimum_spanning_tree(-W))
    diag = S.diagonal()
    on = np.flatnonzero(diag)  # zero diagonal entries stay unstored
    rows = np.concatenate([on, tree.row, tree.col])
    cols = np.concatenate([on, tree.col, tree.row])
    vals = np.concatenate([diag[on], tree.data, tree.data])
    return sp.csr_matrix((vals, (rows, cols)), shape=S.shape)


def _detached(L: sp.spmatrix, inside: np.ndarray) -> np.ndarray:
    """The vertices of mask `inside` whose component in L's graph touches no vertex outside it.

    Any such vertex makes L's inside block singular, yet round-off can leave its last pivot tiny
    rather than zero, so neither the factor nor the residual check of its solves would fail.
    """
    labels = _component_labels_of(L)
    touches_outside = np.bincount(labels[~inside], minlength=labels.size) > 0
    return np.flatnonzero(inside & ~touches_outside[labels])


def spd_factor(A: sp.spmatrix, what: str):
    """Factor a nonsingular symmetric diagonally dominant matrix with SPD_SUPERLU; return solve(B) for dense B.

    A failed factorization, and a solve whose residual is non-finite or above
    1e-10 (||A|| ||X|| + ||B||) in Frobenius norms, raise NumericalError naming `what`.
    """
    A = sp.csc_matrix(A)
    try:
        lu = spla.splu(A, **SPD_SUPERLU)
    except RuntimeError as exc:
        raise NumericalError(f"{what}: singular factor: {exc}") from exc
    norm_A = spla.norm(A)

    def solve(B: np.ndarray) -> np.ndarray:
        X = lu.solve(B)
        resid = np.linalg.norm(A @ X - B)
        if not np.isfinite(resid) or resid > 1e-10 * (norm_A * np.linalg.norm(X) + np.linalg.norm(B)):
            raise NumericalError(f"{what} residual {resid:.3e}")
        return X

    return solve


def _require_feasible(B: np.ndarray) -> None:
    """Raise NumericalError unless B is finite and its column sums are zero to 1e-8 max(1, ||B||): L X = B is
    infeasible otherwise."""
    if not np.isfinite(B).all():
        raise NumericalError("rhs has a non-finite entry")
    if np.linalg.norm(B.sum(axis=0)) > 1e-8 * max(1.0, np.linalg.norm(B)):
        raise NumericalError("rhs not orthogonal to the all-ones vector")


def grounded_solver(L: sp.spmatrix, what: str = "grounded solve"):
    """Factor a connected Laplacian once and return solve(B), the minimum-norm X with L X = B.

    Vertex 0 is grounded for the factorization (errors name `what`) and
    the result is shifted to zero column means, which for a connected
    Laplacian is exactly the minimum-norm representative; X has B's shape.
    B's column sums are not checked here; see _require_feasible.
    """
    if _detached(L, np.arange(L.shape[0]) > 0).size:
        raise NumericalError("grounded Laplacian is singular (graph disconnected)")
    solve_g = spd_factor(sp.csr_matrix(L)[1:, 1:], what) if L.shape[0] > 1 else np.zeros_like

    def solve(B: np.ndarray) -> np.ndarray:
        B = np.asarray(B, dtype=float)
        X = np.zeros_like(B)
        X[1:] = solve_g(B[1:])  # row 0 of L X - B is minus B's column sums
        return X - X.mean(axis=0, keepdims=True)

    return solve


def solve_grounded(L: sp.spmatrix, B: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of the singular system L X = B, whose column sums must be zero; see grounded_solver."""
    _require_feasible(np.asarray(B, dtype=float))
    return grounded_solver(L)(B)


def upper_triangle_nnz(A: sp.spmatrix) -> int:
    """Number of structurally nonzero entries on or above the diagonal."""
    A = sp.csr_matrix(A).copy()
    A.eliminate_zeros()
    return int(sp.triu(A, k=0).nnz)

