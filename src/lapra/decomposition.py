"""Split Laplacian solves between robots and a server.

The vertex set is partitioned into per-robot interiors plus a shared
separator set. Robots eliminate their interiors locally and upload a
(possibly sparsified) separator-space contribution once, then per solve
upload a reduced right-hand side. The server solves the separator system
and broadcasts it back for local back-substitution. Downloads are free.
split_setup runs the one-time phase of a solve stage, keeping an earlier
stage's robot side when the inputs match, and is the one place that
meters the stage's uploads in a CommsLedger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .laplacians import (
    WeightedGraph,
    _detached,
    _is_laplacian_like,
    _require_feasible,
    _require_oversampling,
    graph_from_laplacian,
    grounded_solver,
    heuristic_sparsify,
    laplacian,
    schur_update,
    spd_factor,
    sparsify,
    upper_triangle_nnz,
    DEFAULT_OVERSAMPLING,
)
from .manifold import NumericalError
from .pose_graph import MeasurementGraph, Partition

__all__ = [
    "CommsLedger",
    "LedgerEvent",
    "RobotBlock",
    "ServerState",
    "Split",
    "build_blocks",
    "separator_rows_by_owner",
    "sparsified_schur",
    "solve",
    "split_setup",
    "SCHUR_MODES",
]

BYTES_PER_SCALAR = 8
SCHUR_MODES = ("spectral", "block_diagonal", "tree")


@dataclass
class LedgerEvent:
    round: int
    robot: int
    kind: str  # "schur" | "rhs" | "partial_grad"
    scalars: int

    @property
    def bytes(self) -> int:
        return BYTES_PER_SCALAR * self.scalars


@dataclass
class CommsLedger:
    """Append-only record of robot-to-server uploads."""

    events: list[LedgerEvent] = field(default_factory=list)
    current_round: int = 0

    def record(self, robot: int, kind: str, scalars: int) -> None:
        """Log an upload in the current round (0 until the first begin_round)."""
        if kind not in ("schur", "rhs", "partial_grad"):
            raise ValueError(f"unknown event kind {kind!r}")
        self.events.append(LedgerEvent(self.current_round, robot, kind, int(scalars)))

    def begin_round(self) -> None:
        self.current_round += 1

    def total_scalars(self) -> int:
        return sum(e.scalars for e in self.events)

    def total_bytes(self) -> int:
        return BYTES_PER_SCALAR * self.total_scalars()

    def bytes_by_kind(self, kind: str) -> int:
        return BYTES_PER_SCALAR * sum(e.scalars for e in self.events if e.kind == kind)


@dataclass
class RobotBlock:
    """One robot's share of the Laplacian system.

    interior holds global vertex ids. The blocks are range slices of the
    Laplacian of the edges with both ends this robot's, over its interior
    and then every separator in the global order: L_aa on the interior,
    L_ac from interior rows to the separators (L_acT, its transpose and
    the separator rows' slice, is for the solves) and Lcc_local on the
    separators, so that the per-robot pieces plus the server's cross-edge
    block add up to the full reduced matrix. adj_sep flags the separators
    the interior touches. factor is spd_factor's solve for L_aa,
    grounded_solver's when one robot holds the whole Laplacian, or
    np.zeros_like for an empty interior.

    coupling is Z_a = L_aa⁻¹ L_ac[:, adj_sep], dense n_a × t_a for the
    t_a separators the interior touches. schur_contribution keeps it from
    the one interior solve the elimination makes, and solve's
    back-substitution applies it as a dense product, so each split solve
    makes one interior solve per robot. S_tilde is the compressed
    elimination result that sparsified_schur sums. Neither is a
    constructor input: build_blocks sets both on every block it returns.
    """

    interior: np.ndarray
    L_ac: sp.csr_matrix
    L_acT: sp.csr_matrix
    Lcc_local: sp.csr_matrix
    adj_sep: np.ndarray
    factor: object
    S_tilde: sp.csr_matrix = field(init=False)
    coupling: np.ndarray = field(init=False)

    def interior_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor(rhs)

    def schur_contribution(self) -> sp.csr_matrix:
        """Exact separator-space contribution after eliminating the interior; keeps the solve's output as coupling."""
        def solve_and_keep(L_adj: np.ndarray) -> np.ndarray:
            self.coupling = self.interior_solve(L_adj)
            return self.coupling

        return schur_update(solve_and_keep, self.L_ac, self.Lcc_local)


@dataclass
class ServerState:
    separators: np.ndarray  # global ids, ascending
    L_Gc: sp.csr_matrix  # the separator block of the cross-robot edges' Laplacian
    n: int  # size of the whole system
    S_tilde: sp.csr_matrix | None = None
    _solve: object | None = None

    def set_reduced(self, S: sp.csr_matrix) -> None:
        """Factor S with grounded_solver if it is Laplacian-like (it must then be connected), else with spd_factor."""
        self.S_tilde = sp.csr_matrix(S)
        if self.S_tilde.shape[0] == 0:  # one robot: nothing to solve
            self._solve = np.zeros_like
        elif _is_laplacian_like(self.S_tilde):
            self._solve = grounded_solver(self.S_tilde, "reduced solve")
        else:
            factor = spd_factor(self.S_tilde, "reduced solve")
            self._solve = lambda U: (X := factor(U)) - X.mean(axis=0, keepdims=True)

    def reduced_solve(self, U: np.ndarray) -> np.ndarray:
        """Solve the separator system; result has zero column means."""
        return self._solve(U)


def build_blocks(L: sp.spmatrix, partition: Partition, epsilon: float = 0.0, seed: int = 0, mode: str = "spectral",
                 oversampling: float = DEFAULT_OVERSAMPLING) -> tuple[list[RobotBlock], ServerState]:
    """Robot side of the one-time phase: split a connected Laplacian into per-robot blocks plus server state.

    An edge of L is held by the robot owning both its ends, or else by the
    server; each holder's blocks are range slices of its own edges'
    Laplacian in its own numbering (see RobotBlock). Robots are set up one
    after another, in two passes. Each factors its interior once, for
    every later solve; then each eliminates its interior and compresses
    the result as S_tilde for sparsified_schur to upload, following
    `mode`: spectral sampling at quality epsilon, robot a drawing from the
    a-th generator spawned from np.random.default_rng(seed), or one of the
    heuristic patterns. The defaults keep the exact elimination. With a
    single robot the interior is every vertex and there are no separators,
    so its block is the whole singular Laplacian and takes a grounded
    factorization; with several robots every interior component must touch
    a separator. An unknown mode, an oversampling outside (0, inf) in any
    mode, a vertex with a negative robot id, or a cross-robot edge with an
    endpoint outside the separators raises ValueError before any robot
    factors.
    """
    if mode not in SCHUR_MODES:
        raise ValueError(f"mode must be one of {SCHUR_MODES}")
    _require_oversampling(oversampling)
    L = sp.csr_matrix(L)
    n = L.shape[0]
    if partition.owner.shape[0] != n:
        raise ValueError("partition size does not match matrix")
    C, owner, m, is_sep = partition.separators, partition.owner, partition.m, partition.is_separator
    negative = np.flatnonzero(owner < 0)
    if negative.size:
        raise ValueError(f"vertex {negative[0]} has negative robot id {owner[negative[0]]}")
    g = graph_from_laplacian(L)
    u, v = g.edges.T
    holder = np.where(owner[u] == owner[v], owner[u], m)  # robot h's own edges, or the server's (h = m) cross edges
    stray = np.flatnonzero((holder == m) & ~(is_sep[u] & is_sep[v]))
    if stray.size:
        raise ValueError(f"cross-robot edge ({u[stray[0]]},{v[stray[0]]}) has an endpoint that is not a separator")
    if m > 1:
        detached = _detached(g, ~is_sep)
        if detached.size:
            a = owner[detached].min()
            raise NumericalError(f"robot {a} interior block is singular (a component touches no separator)")
    order = np.argsort(holder, kind="stable")  # each holder's edges, in L's order
    bounds = np.concatenate([[0], np.cumsum(np.bincount(holder, minlength=m + 1))])
    pos = np.empty(n, dtype=np.intp)  # a vertex's place in its robot's interior, or in C
    pos[C] = np.arange(C.size)
    for F in partition.interiors:
        pos[F] = np.arange(F.size)

    def held(h: int, k: int) -> sp.csr_matrix:
        """Laplacian of holder h's edges over its k interior vertices, then C, in L's edge orientation:
        a diagonal entry of up to 8 edges then sums in L's order."""
        mine = order[bounds[h]:bounds[h + 1]]
        edges = g.edges[mine]
        return laplacian(WeightedGraph(k + C.size, pos[edges] + k * is_sep[edges], g.weights[mine]))

    L_Gc = held(m, 0)
    blocks = []
    for a, F in enumerate(partition.interiors):
        k = F.size
        L_a = held(a, k)
        L_aa, L_ac = L_a[:k, :k], L_a[:k, k:]
        L_aa = sp.csc_matrix((L_aa.data, L_aa.indices, L_aa.indptr), shape=L_aa.shape)  # symmetric, so CSR = CSC
        adj = np.zeros(C.size, dtype=bool)
        adj[L_ac.indices] = True
        if m == 1:  # the only robot with no separator to ground against
            factor = grounded_solver(L_aa)
        else:
            factor = spd_factor(L_aa, f"robot {a} interior solve") if k > 0 else np.zeros_like
        blocks.append(RobotBlock(interior=F, L_ac=L_ac, L_acT=L_a[k:, :k], Lcc_local=L_a[k:, k:], adj_sep=adj,
                                 factor=factor))
    # every interior is factored before any is eliminated: interleaving the two
    # raised a rotation-planar solve's peak RSS by about 3 MB
    for blk, robot_rng in zip(blocks, np.random.default_rng(seed).spawn(m)):
        S = blk.schur_contribution()
        blk.S_tilde = (sparsify(S, epsilon, robot_rng, oversampling=oversampling) if mode == "spectral"
                       else heuristic_sparsify(S, mode))

    server = ServerState(separators=C, L_Gc=L_Gc, n=n)
    return blocks, server


def sparsified_schur(blocks: list[RobotBlock], server: ServerState) -> None:
    """Server side of the one-time phase: add the robots' compressed blocks (see build_blocks) to
    the cross-edge block and factor the sum for reuse across later solves. A server that already
    holds its reduced system, as a reused split's does, keeps it and its factor."""
    if server.S_tilde is None:
        server.set_reduced(sum((blk.S_tilde for blk in blocks), server.L_Gc))


def solve(
    blocks: list[RobotBlock],
    server: ServerState,
    B: np.ndarray,
) -> np.ndarray:
    """Solve L X = B through the robot/server split.

    B is (n,) or (n, k), with every column orthogonal to the all-ones
    vector (the system is singular and anything else is infeasible).
    Robots upload reduced right-hand sides (separator-adjacent rows only);
    the server solves the separator system and robots back-substitute.
    Per solve each robot makes one interior solve, Y = L_aa⁻¹ B_a, and
    one dense product with the coupling its elimination kept,
    X_a = Y - Z_a X_c[adj_sep]; the blocks hold n_a × t_a doubles each
    for it. Every application of L_aa⁻¹ is a residual-checked solve: Z_a
    is one such solve's own output, so its bound carries over to Z_a x.
    Returns the full X, shaped like B, with the separator rows normalized
    to zero column means; a single robot has no separators and returns
    its grounded, zero-mean solve.
    """
    B = np.asarray(B, dtype=float)
    if B.shape[0] != server.n:
        raise ValueError("rhs size does not match system")
    _require_feasible(B)

    C = server.separators
    if server.S_tilde is None:
        raise RuntimeError("call sparsified_schur before solve")

    U = np.take(B, C, axis=0)
    Ys = []
    for blk in blocks:
        Y = blk.interior_solve(np.take(B, blk.interior, axis=0))
        Ys.append(Y)
        U -= blk.L_acT @ Y

    X_c = server.reduced_solve(U)

    X = np.zeros(B.shape)
    X[C] = X_c
    for blk, Y in zip(blocks, Ys):
        X[blk.interior] = Y - blk.coupling @ X_c[blk.adj_sep]
    return X


@dataclass
class Split:
    """The robots and server of a one-time phase, and everything they were computed from.

    blocks hold each robot's slices of L, its interior factor, its
    coupling and its compressed S_tilde; server is the ServerState build_blocks made, which
    the first stage's sparsified_schur sums and factors once for every stage. inputs is
    (epsilon, seed, schur mode, oversampling), build_blocks' arguments after L and partition.
    """

    L: sp.csr_matrix
    partition: Partition
    inputs: tuple
    blocks: list
    server: ServerState

    def built_from(self, L: sp.csr_matrix, partition: Partition, inputs: tuple) -> bool:
        """Whether L (entry for entry), the partition and the inputs are the ones this split was built from."""
        def same(a, b, keys):
            return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in keys)

        return (self.inputs == inputs and self.L.shape == L.shape and same(self.L, L, ("indptr", "indices", "data"))
                and same(self.partition, partition, ("owner", "is_separator")))


def separator_rows_by_owner(g: MeasurementGraph, partition: Partition) -> np.ndarray:
    """Number of separator rows each robot uploads gradient partials for.

    An edge is held by the robot owning its first endpoint; every
    separator endpoint of a held edge needs that robot's partial sum.
    """
    holder = np.tile(partition.owner[g.I], 2)
    v = np.concatenate([g.I, g.J])
    sep = partition.is_separator[v]
    touched = np.unique(holder[sep] * g.n + v[sep])  # distinct (robot, separator) pairs
    return np.bincount(touched // g.n, minlength=partition.m)


def split_setup(L, partition: Partition, epsilon: float, seed: int, schur_mode: str,
                oversampling: float, upload_rows: np.ndarray, prior: list[Split] | None = None):
    """Split L across the robots; the one place a split stage's uploads are metered.

    Returns (solve, ledger, split). prior, if given, is a list holding an
    earlier stage's split. When that split was built from the same L,
    partition, epsilon, seed, schur mode and oversampling, split is it:
    the robots keep its blocks, interior factors, couplings and compressed blocks,
    and the server its reduced system and factor, which a new set-up would
    repeat bit for bit. Otherwise prior is emptied, so the old split can be
    freed, and build_blocks sets the robots up anew from these inputs:
    each eliminates and compresses, sampling from a generator seeded with
    seed. Each robot's block is metered as "schur" in round 0 of a fresh
    ledger in every stage, and sparsified_schur sums and factors the
    blocks once per split. solve(E) meters, in the round its caller
    opened, robot a's "partial_grad" of upload_rows[a] rows and then each
    robot's "rhs" of one row per separator its interior touches, per
    column of E; it then takes E's column sums, zero up to round-off, off
    its row 0 in place and solves L X = E through the split.
    """
    L = sp.csr_matrix(L)
    inputs = (epsilon, seed, schur_mode, oversampling)
    if prior and prior[0].built_from(L, partition, inputs):
        split = prior[0]
    else:
        if prior:
            prior.clear()
        blocks, server = build_blocks(L, partition, *inputs)
        split = Split(L, partition, inputs, blocks, server)
    blocks, server = split.blocks, split.server
    ledger = CommsLedger()
    for a, blk in enumerate(blocks):
        ledger.record(a, "schur", upper_triangle_nnz(blk.S_tilde))
    sparsified_schur(blocks, server)

    def metered_solve(E: np.ndarray) -> np.ndarray:
        k = E.shape[1]
        for a, rows in enumerate(upload_rows):
            ledger.record(a, "partial_grad", int(rows) * k)
        for a, blk in enumerate(blocks):
            ledger.record(a, "rhs", int(blk.adj_sep.sum()) * k)
        E[0] -= E.sum(axis=0)
        return solve(blocks, server, E)

    return metered_solve, ledger, split
