"""Measurement graphs for multi-robot pose estimation.

A measurement graph holds relative rotation and translation measurements
between vertices, with scalar confidence weights per edge. This module
also covers g2o file IO, contiguous-by-id partitioning into robot blocks,
and seeded synthetic grid problems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .manifold import (
    _ROTATION_TOL,
    RotationState,
    _off_group,
    exp_map_batch,
    random_rotation,
    row_norms,
    tangent_dim,
)

__all__ = [
    "GraphError",
    "MeasurementGraph",
    "scatter_edge_rows",
    "Partition",
    "SyntheticSpec",
    "load_g2o",
    "write_g2o",
    "partition_contiguous",
    "generate_grid",
    "grid_positions",
    "spanning_tree_init",
]


class GraphError(ValueError):
    """Malformed input: bad file contents or an invalid graph."""


@dataclass(eq=False)
class MeasurementGraph:
    """Relative measurements between n vertices, one array row per edge.

    Row k measures vertex J[k] from vertex I[k]: R_tilde[k] is the
    rotation of frame J[k] expressed in frame I[k], t_tilde[k] the
    position of J[k] in frame I[k], and kappa[k] and tau[k] are the
    rotation and translation confidence weights. The arrays have shapes
    (m,), (m,), (m, d, d), (m, d), (m,) and (m,); construction coerces
    their dtypes and raises GraphError on a shape mismatch. Omitting
    them gives the edge-free graph.
    """

    d: int
    n: int
    I: np.ndarray = ()
    J: np.ndarray = ()
    R_tilde: np.ndarray = ()
    t_tilde: np.ndarray = ()
    kappa: np.ndarray = ()
    tau: np.ndarray = ()

    def __post_init__(self):
        for name, dtype, row in self._fields():
            a = np.asarray(getattr(self, name), dtype=dtype)
            setattr(self, name, a.reshape((0, *row)) if a.size == 0 else a)
        self._check_shapes()

    def _fields(self) -> tuple:
        """(name, dtype, shape of one row) of each edge array."""
        d = self.d
        return (("I", np.intp, ()), ("J", np.intp, ()), ("R_tilde", float, (d, d)),
                ("t_tilde", float, (d,)), ("kappa", float, ()), ("tau", float, ()))

    def _check_shapes(self) -> None:
        for name, _, row in self._fields():
            shape, expected = getattr(self, name).shape, (self.m, *row)
            if shape != expected:
                raise GraphError(f"{name} has shape {shape}, expected {expected}")

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.I.size

    @property
    def p(self) -> int:
        return tangent_dim(self.d)

    @property
    def pairs(self) -> np.ndarray:
        """(m, 2) array of the endpoints (I[k], J[k])."""
        return np.stack([self.I, self.J], axis=1)

    def check_rotations(self, R: RotationState) -> None:
        """Raise GraphError unless R holds one d x d rotation per vertex of this graph, each finite and on the
        group by RotationState.check_valid's rule; the error names the first vertex that is not."""
        if (R.n, R.d) != (self.n, self.d):
            raise GraphError(f"{R.n} rotations in {R.d}D do not match the graph's {self.n} vertices in {self.d}D")
        bad = np.flatnonzero(_off_group(R.mats))
        if bad.size:
            raise GraphError(f"vertex {bad[0]} rotation is non-finite or not a rotation within tol {_ROTATION_TOL}")

    def check_partition(self, partition: "Partition") -> None:
        """Raise GraphError unless partition assigns every vertex of this graph and its separators are the
        endpoints of this graph's cross-robot edges."""
        if partition.owner.shape != (self.n,):
            raise GraphError(f"a partition of {partition.owner.size} vertices does not match the graph's "
                             f"{self.n} vertices")
        if not np.array_equal(partition.is_separator, Partition.from_owner(partition.owner, self.pairs).is_separator):
            raise GraphError("the partition's separators are not the endpoints of the graph's cross-robot edges")

    def validate(self) -> None:
        """Check array shapes, index ranges, rotation validity, duplicates and connectivity.

        A misshapen array is reported first. Otherwise errors name the
        first offending edge, and for that edge the first failing check in
        the order: self loop, index range, duplicate, non-finite value,
        orthonormality, weights.
        """
        self._check_shapes()
        m, I, J = self.m, self.I, self.J
        if m == 0:
            return
        lo, hi = np.minimum(I, J), np.maximum(I, J)
        # keys of distinct in-range pairs differ; a pair that collides is out of range and fails that check first
        _, first, inverse = np.unique(lo * self.n + hi, return_index=True, return_inverse=True)
        R = self.R_tilde
        finite = (np.isfinite(R).all(axis=(1, 2)) & np.isfinite(self.t_tilde).all(axis=1)
                  & np.isfinite(self.kappa) & np.isfinite(self.tau))
        not_rotation = _off_group(R)  # a non-finite rotation gets its own message below
        checks = [
            (I == J, lambda k: f"edge {k} is a self loop at vertex {I[k]}"),
            ((I < 0) | (I >= self.n) | (J < 0) | (J >= self.n),
             lambda k: f"edge {k} touches a vertex outside 0..{self.n - 1}"),
            (first[inverse] != np.arange(m),
             lambda k: f"duplicate measurement between {lo[k]} and {hi[k]}"),
            (~finite, lambda k: f"edge {k} has a non-finite rotation, translation or weight"),
            (not_rotation, lambda k: f"edge {k} rotation is not orthonormal within {_ROTATION_TOL}"),
            ((self.kappa <= 0) | (self.tau <= 0), lambda k: f"edge {k} has non-positive weight"),
        ]
        failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if failed.size:
            k = failed[0]
            message = next(msg for mask, msg in checks if mask[k])
            raise GraphError(message(k))
        adj = coo_matrix((np.ones(m), (I, J)), shape=(self.n, self.n))
        if connected_components(adj, directed=False, return_labels=False) != 1:
            raise GraphError("measurement graph is not connected")


def scatter_edge_rows(n: int, I: np.ndarray, J: np.ndarray, X_i: np.ndarray, X_j: np.ndarray) -> np.ndarray:
    """Sum row k of X_i into row I[k] and of X_j into row J[k] of an (n, c) array.

    Rows are added in edge order, i before j within an edge, which is
    the order a loop over the edges would add them.
    """
    idx = np.stack([I, J], axis=1).ravel()
    vals = np.stack([X_i, X_j], axis=1).reshape(idx.size, X_i.shape[1])
    return np.stack([np.bincount(idx, weights=vals[:, c], minlength=n) for c in range(vals.shape[1])], axis=1)


# ---------------------------------------------------------------------------
# g2o IO

class _Record(NamedTuple):
    """Layout of the fields that follow one g2o tag.

    `ids` vertex ids, then `floats` numbers: d translation components, the
    rotation in columns `rot` (an angle or an (x, y, z, w) quaternion) and,
    for an edge, the row-major upper triangle of the information matrix,
    whose slots `t_info` and `r_info` are its translational and rotational
    diagonal.
    """

    d: int
    ids: int
    floats: int
    rot: slice
    t_info: tuple = ()
    r_info: tuple = ()


# each dimension's vertex tag comes before its edge tag
_G2O = {
    "VERTEX_SE2": _Record(2, 1, 3, slice(2, 3)),
    "EDGE_SE2": _Record(2, 2, 3 + 6, slice(2, 3), (0, 3), (5,)),
    "VERTEX_SE3:QUAT": _Record(3, 1, 7, slice(3, 7)),
    "EDGE_SE3:QUAT": _Record(3, 2, 7 + 21, slice(3, 7), (0, 6, 11), (15, 18, 20)),
}


def _quats_to_rots(Q: np.ndarray, lines: list[int] | None = None) -> np.ndarray:
    """Rotation matrices from the (x, y, z, w) quaternion rows of a (k, 4) array.

    Raises GraphError on a zero quaternion, naming its line when the line
    number of each row is given.
    """
    Q = np.ascontiguousarray(Q, dtype=float)
    nrm = row_norms(Q)
    zero = np.flatnonzero(nrm == 0)
    if zero.size:
        raise GraphError(("" if lines is None else f"line {lines[zero[0]]}: ") + "zero quaternion")
    x, y, z, w = (Q / nrm[:, None]).T
    return np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
                     2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
                     2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], axis=1).reshape(-1, 3, 3)


def _rots_to_quats(R: np.ndarray) -> np.ndarray:
    """(x, y, z, w) quaternions with non-negative w of a (k, 3, 3) rotation stack.

    Each row pivots on w when the trace is positive and otherwise on the
    component of its largest diagonal entry, so the pivot's square root
    is taken of a quantity of at least 1.
    """
    R = np.asarray(R, dtype=float)
    rows = np.arange(len(R))
    diag = np.diagonal(R, axis1=1, axis2=2)
    t = np.trace(R, axis1=1, axis2=2)
    pivot = np.where(t > 0, 3, np.argmax(diag, axis=1))  # component index; 3 is w
    k = np.minimum(pivot, 2)
    a, b = np.array([[1, 0, 0], [2, 2, 1]])[:, k]  # the other two diagonal slots, ascending
    s = np.sqrt(np.where(pivot == 3, t + 1.0, 1.0 + diag[rows, k] - diag[rows, a] - diag[rows, b])) * 2
    # 4 q_c q_k for component c and pivot k, in (x, y, z, w) order
    x_w, y_w, z_w = R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]
    x_y, x_z, y_z = R[:, 0, 1] + R[:, 1, 0], R[:, 0, 2] + R[:, 2, 0], R[:, 1, 2] + R[:, 2, 1]
    zero = np.zeros(len(R))
    products = np.array([[zero, x_y, x_z, x_w],
                         [x_y, zero, y_z, y_w],
                         [x_z, y_z, zero, z_w],
                         [x_w, y_w, z_w, zero]])
    q = products[:, pivot, rows].T / s[:, None]
    q[rows, pivot] = 0.25 * s
    q = np.where(q[:, 3:] < 0, -q, q)
    return q / row_norms(q)[:, None]


def _equalish_row_means(A: np.ndarray) -> np.ndarray:
    """Mean of each row of A, or exactly its first entry where the row's entries are all equal."""
    # keeps the exact value of an isotropic information matrix
    return np.where((A == A[:, :1]).all(axis=1), A[:, 0], A.mean(axis=1))


def _convert_records(rec: _Record, X: np.ndarray, lines: list[int]) -> tuple:
    """(rotations, translations), and for an edge tag (kappa, tau), of one tag's (k, rec.floats) numbers."""
    R = exp_map_batch(X[:, rec.rot]) if rec.d == 2 else _quats_to_rots(X[:, rec.rot], lines)
    info = X[:, rec.rot.stop:]
    weights = [_equalish_row_means(info[:, slots]) for slots in (rec.r_info, rec.t_info) if slots]
    return R, X[:, :rec.d].copy(), *weights


def _read_block(rec: _Record, rows: list[str]) -> tuple | None:
    """(ids, numbers) of one tag's record payloads in one numpy read, or None where the reader refuses them.

    On ASCII text the reader splits where str.split does and takes a subset
    of Python's int and float syntax, to the same values, but skips a blank
    payload. Its integer parser reads out of bounds on some non-ASCII text.
    """
    dtype = [("ids", np.intp, (rec.ids,)), ("vals", float, (rec.floats,))]
    if not all(map(str.isascii, rows)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x warns, and goes on, when it takes 1.0 as an id
            X = np.loadtxt(rows, dtype, comments=None, ndmin=1) if rows else np.zeros(0, dtype)
    except (ValueError, Warning):
        return None
    return (X["ids"], X["vals"]) if X.shape == (len(rows),) else None


def _read_tokens(tables: list[tuple]) -> list[tuple]:
    """(ids, numbers) of each (layout, payloads, line numbers) table by Python's int and float, in line order.

    Raises GraphError at the first bad line. An id beyond intp becomes -1: neither is contiguous from 0.
    """
    out = [([], []) for _ in tables]
    for ln, t, row in sorted((ln, t, row) for t, (_, rows, lines) in enumerate(tables) for ln, row in zip(lines, rows)):
        rec, parts = tables[t][0], row.split()
        try:
            ids = [int(parts[k]) for k in range(rec.ids)]
            vals = [float(s) for s in parts[rec.ids:]]
            if len(vals) != rec.floats:
                raise ValueError("field count")
        except (ValueError, IndexError) as exc:
            raise GraphError(f"line {ln}: {exc}") from exc
        out[t][0].append([v if 0 <= v <= np.iinfo(np.intp).max else -1 for v in ids])
        out[t][1].append(vals)
    return [(np.array(ids, dtype=np.intp).reshape(-1, rec.ids), np.array(vals).reshape(-1, rec.floats))
            for (rec, _, _), (ids, vals) in zip(tables, out)]


def load_g2o(path: str) -> tuple[MeasurementGraph, tuple[RotationState, np.ndarray] | None]:
    """Parse a g2o file with SE(2) or SE(3) records.

    Returns the measurement graph and, when every vertex had a VERTEX
    record, the stored poses as (rotations, translations); of repeated
    records for one vertex the last wins. Numbers follow Python's int and
    float syntax. Raises GraphError on malformed lines (with the line
    number of the first), mixed dimensions, duplicate edges or a
    disconnected graph.
    """
    # per tag: its layout, and the payload (the text after the tag) and line number of each record
    records = {tag: (rec, [], []) for tag, rec in _G2O.items()}
    dim, stop = None, None  # stop ends the scan: a line that is no record of the file's dimension, or undecodable text
    with open(path) as fh:
        try:
            for ln, line in enumerate(fh, start=1):
                head = line.split(None, 1)
                if not head or head[0].startswith("#"):
                    continue
                rec, rows, lines = records.get(head[0], (None, None, None))
                if rec is None or rec.d != (dim or rec.d):
                    problem = f"unknown record {head[0]}" if rec is None else "mixes 2D and 3D records"
                    stop = GraphError(f"line {ln}: {problem}")
                    break
                dim = rec.d
                rows.append(head[1] if len(head) > 1 else "")
                lines.append(ln)
        except UnicodeDecodeError as exc:  # the lines before it were read, so their bad records come first
            stop = exc
    tables = [r for r in records.values() if r[0].d == dim]  # the vertex tag, then the edge tag
    blocks = [None] if stop else [_read_block(rec, rows) for rec, rows, _ in tables]
    if None in blocks:
        blocks = _read_tokens(tables)
    if stop is not None:
        raise stop
    if dim is None:
        raise GraphError("file contains no vertices or edges")
    (vertex_ids, _), (edge_ids, _) = blocks
    (vertex_R, vertex_t), (R_tilde, t_tilde, kappa, tau) = (
        _convert_records(rec, X, lines) for (rec, _, lines), (_, X) in zip(tables, blocks))
    ids = np.unique(np.concatenate([vertex_ids.ravel(), edge_ids.ravel()]))
    n = int(ids[-1]) + 1
    if ids[0] != 0 or ids.size != n:
        raise GraphError("vertex ids are not contiguous from 0")
    g = MeasurementGraph(dim, n, *np.ascontiguousarray(edge_ids.T), R_tilde, t_tilde, kappa, tau)
    g.validate()
    seen, first = np.unique(vertex_ids[::-1, 0], return_index=True)  # a repeated vertex id keeps its last record
    last = len(vertex_ids) - 1 - first
    return g, ((RotationState(vertex_R[last]), vertex_t[last]) if seen.size == n else None)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rotation_fields(R: np.ndarray) -> np.ndarray:
    """The planar angles or the (x, y, z, w) quaternions that g2o records store for a (k, d, d) stack."""
    return np.arctan2(R[:, 1, 0], R[:, 0, 0])[:, None] if R.shape[1] == 2 else _rots_to_quats(R)


def write_g2o(path: str, g: MeasurementGraph, poses: tuple[RotationState, np.ndarray] | None = None) -> None:
    """Write the graph (and optional vertex poses) as a g2o file.

    Information matrices are emitted isotropic from the scalar weights,
    so a load of the written file reproduces kappa and tau exactly.
    """
    (vertex, _), (edge, rec) = ((tag, rec) for tag, rec in _G2O.items() if rec.d == g.d)
    lines = []
    if poses is not None:
        rots, ts = poses
        for i, (t, r) in enumerate(zip(ts, _rotation_fields(rots.mats))):
            fields = [_fmt(v) for v in (*t, *r)]
            lines.append(f"{vertex} {i} " + " ".join(fields))
    info = np.zeros((g.m, rec.floats - rec.rot.stop))
    info[:, rec.t_info] = g.tau[:, None]
    info[:, rec.r_info] = g.kappa[:, None]
    for i, j, t_tilde, r, upper in zip(g.I, g.J, g.t_tilde, _rotation_fields(g.R_tilde), info):
        fields = [_fmt(v) for v in (*t_tilde, *r, *upper)]
        lines.append(f"{edge} {i} {j} " + " ".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Partitioning

@dataclass
class Partition:
    """Assignment of vertices to m robots with separator bookkeeping.

    Separators are vertices incident to at least one cross-robot edge.
    interiors[a] lists robot a's non-separator vertices in ascending
    order; separators is the ascending global list.
    """

    m: int
    owner: np.ndarray
    is_separator: np.ndarray
    interiors: list[np.ndarray]
    separators: np.ndarray

    @classmethod
    def from_owner(cls, owner: np.ndarray, pairs: np.ndarray) -> "Partition":
        """Build the separator bookkeeping for a given ownership map.

        pairs is an (m, 2) array of vertex index pairs; endpoints of pairs
        crossing robots become separators.
        """
        owner = np.asarray(owner, dtype=int)
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        m = int(owner.max()) + 1 if owner.size else 0
        is_sep = np.zeros(owner.size, dtype=bool)
        is_sep[pairs[owner[pairs[:, 0]] != owner[pairs[:, 1]]]] = True
        interiors = [np.flatnonzero((owner == a) & ~is_sep) for a in range(m)]
        return cls(
            m=m,
            owner=owner,
            is_separator=is_sep,
            interiors=interiors,
            separators=np.flatnonzero(is_sep),
        )


def partition_contiguous(g: MeasurementGraph, m: int) -> Partition:
    """Split vertices into m contiguous id blocks, remainder spread first.

    With n = q*m + r the first r robots get q+1 vertices each. Every
    vertex belongs to exactly one robot; vertices touching cross-robot
    edges become separators.
    """
    if not (1 <= m <= g.n):
        raise GraphError(f"robot count {m} out of range for n={g.n}")
    q, r = divmod(g.n, m)
    owner = np.repeat(np.arange(m), q + (np.arange(m) < r))
    return Partition.from_owner(owner, g.pairs)


# ---------------------------------------------------------------------------
# Synthetic problems

@dataclass
class SyntheticSpec:
    """Parameters of a seeded cube-grid problem."""

    side: int = 5
    d: int = 3
    sigma_rot: float = 0.0  # radians, tangent-space noise scale
    edge_prob: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.side < 2:
            raise GraphError("side must be at least 2")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise GraphError("edge_prob must lie in [0, 1]")
        if not 0 <= self.sigma_rot < float("inf"):
            raise GraphError("sigma_rot must be non-negative and finite")
        if self.d not in (2, 3):
            raise GraphError("d must be 2 or 3")


def grid_positions(side: int, d: int = 3) -> np.ndarray:
    """Lattice coordinates of the grid vertices, indexed consistently with generate_grid."""
    axes = [np.arange(side)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def generate_grid(spec: SyntheticSpec) -> tuple[MeasurementGraph, RotationState]:
    """Seeded cube-grid problem with noisy relative rotations.

    Vertices form a side^d lattice. A deterministic lattice spanning tree
    is always included; each remaining lattice-adjacent pair joins with
    probability edge_prob. Measurements follow the right-multiplied noise
    model R_tilde = Rbar_i^T Rbar_j Exp(eps), with unit weights kappa and
    tau. Translation measurements are exact given the ground-truth poses,
    so translation error reflects only rotation error.
    """
    rng = np.random.default_rng(spec.seed)
    side, d = spec.side, spec.d
    pos = grid_positions(side, d)
    n = pos.shape[0]

    truth = np.stack([random_rotation(d, rng) for _ in range(n)])

    # candidates join each vertex to its lattice successor along each axis, in (vertex, axis) order.
    # The spanning tree links each vertex to its predecessor along its last nonzero axis (a
    # deterministic comb through the lattice), so a candidate is a tree edge iff the coordinates
    # after its axis, the low digits of its vertex id, are all zero; every other one draws once.
    I, axis = np.nonzero(pos + 1 < side)
    stride = side ** (d - 1 - axis)
    keep = I % stride == 0
    keep[~keep] = rng.random(np.count_nonzero(~keep)) < spec.edge_prob
    I, J, axis = I[keep], (I + stride)[keep], axis[keep]

    noise = np.eye(d)  # Exp(v) with v drawn from an isotropic Gaussian of scale sigma_rot
    if spec.sigma_rot > 0:
        noise = exp_map_batch(spec.sigma_rot * rng.standard_normal((I.size, tangent_dim(d))))
    R_tilde = np.swapaxes(truth[I], 1, 2) @ truth[J] @ noise
    t_tilde = truth[I, axis]  # Rbar_iᵀ times the unit step along the axis
    ones = np.ones(I.size)
    g = MeasurementGraph(d, n, I, J, R_tilde, t_tilde, ones, ones)
    g.validate()
    return g, RotationState(truth)


def spanning_tree_init(g: MeasurementGraph) -> RotationState:
    """Initial rotations by chaining measurements along a BFS tree from vertex 0.

    The search takes each vertex's edges in edge order and chains a whole
    BFS level at once, giving the tree and products of a queue walk.
    """
    # slot 2k is edge k seen from I[k]; slot 2k + 1 is edge k seen from J[k], run backward
    ends = np.stack([g.I, g.J], axis=1).ravel()
    slots = np.argsort(ends, kind="stable")  # each vertex's slots in edge order
    heads = ends[slots ^ 1]
    adj = csr_matrix((np.ones(slots.size), heads, np.searchsorted(ends[slots], np.arange(g.n + 1))), shape=(g.n, g.n))
    order, pred = breadth_first_order(adj, 0, directed=True, return_predecessors=True)
    if order.size < g.n:
        raise GraphError("measurement graph is not connected")
    hits = np.flatnonzero(pred[heads] == ends[slots])
    _, first = np.unique(heads[hits], return_index=True)  # vertices 1..n-1, each by its parent's first slot to it
    reach = np.concatenate([[-1], slots[hits[first]]])
    parent_pos = np.argsort(order)[pred[order[1:]]]  # non-decreasing: BFS queues children in their parents' order
    mats = np.broadcast_to(np.eye(g.d), (g.n, g.d, g.d)).copy()
    start, stop = 0, 1
    while stop < g.n:
        start, stop = stop, 1 + np.searchsorted(parent_pos, stop)
        level = order[start:stop]
        for backward in (0, 1):
            w = level[reach[level] & 1 == backward]
            R = g.R_tilde[reach[w] >> 1]
            mats[w] = mats[pred[w]] @ (np.swapaxes(R, 1, 2) if backward else R)
    return RotationState(mats)
