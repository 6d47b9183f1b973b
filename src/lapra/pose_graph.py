"""Measurement graphs for multi-robot pose estimation.

A measurement graph holds relative rotation and translation measurements
between vertices, with scalar confidence weights per edge. This module
also covers g2o file IO, contiguous-by-id partitioning into robot blocks,
and seeded synthetic grid problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .manifold import RotationState, exp_map, log_map, random_rotation, tangent_dim

__all__ = [
    "GraphError",
    "Edge",
    "EdgeArrays",
    "MeasurementGraph",
    "edge_arrays",
    "scatter_edge_rows",
    "Partition",
    "SyntheticSpec",
    "load_g2o",
    "write_g2o",
    "partition_contiguous",
    "generate_grid",
    "grid_positions",
    "sample_rotation_noise",
    "spanning_tree_init",
    "quat_to_rot",
    "rot_to_quat",
]


class GraphError(ValueError):
    """Malformed input: bad file contents or an invalid graph."""


@dataclass
class Edge:
    """One relative measurement from vertex i to vertex j.

    R_tilde is the measured rotation of frame j expressed in frame i,
    t_tilde the measured position of j in frame i. kappa and tau are the
    rotation and translation confidence weights.
    """

    i: int
    j: int
    R_tilde: np.ndarray
    t_tilde: np.ndarray
    kappa: float = 1.0
    tau: float = 1.0


@dataclass
class MeasurementGraph:
    d: int
    n: int
    edges: list[Edge] = field(default_factory=list)

    @property
    def p(self) -> int:
        return tangent_dim(self.d)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists (undirected)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        return adj

    def validate(self, rot_tol: float = 1e-9) -> None:
        """Check index ranges, rotation validity, duplicates and connectivity.

        Errors name the first offending edge, and for that edge the first
        failing check in the order: self loop, index range, duplicate,
        rotation shape, orthonormality, weights.
        """
        m = len(self.edges)
        if m == 0:
            return
        I = np.array([e.i for e in self.edges])
        J = np.array([e.j for e in self.edges])
        lo, hi = np.minimum(I, J), np.maximum(I, J)
        _, first, inverse = np.unique(np.stack([lo, hi], axis=1), axis=0,
                                      return_index=True, return_inverse=True)
        good_shape = np.array([e.R_tilde.shape == (self.d, self.d) for e in self.edges])
        not_rotation = np.zeros(m, dtype=bool)
        if good_shape.any():
            R = np.stack([e.R_tilde for e, ok in zip(self.edges, good_shape) if ok])
            G = np.swapaxes(R, 1, 2) @ R - np.eye(self.d)
            not_rotation[good_shape] = (np.sqrt(np.einsum("kij,kij->k", G, G)) > rot_tol) | (
                np.linalg.det(R) < 0
            )
        weights = np.array([(e.kappa, e.tau) for e in self.edges], dtype=float)
        checks = [
            (I == J, lambda k: f"edge {k} is a self loop at vertex {I[k]}"),
            ((I < 0) | (I >= self.n) | (J < 0) | (J >= self.n),
             lambda k: f"edge {k} touches a vertex outside 0..{self.n - 1}"),
            (first[inverse.ravel()] != np.arange(m),
             lambda k: f"duplicate measurement between {lo[k]} and {hi[k]}"),
            (~good_shape, lambda k: f"edge {k} rotation has shape {self.edges[k].R_tilde.shape}"),
            (not_rotation, lambda k: f"edge {k} rotation is not orthonormal within {rot_tol}"),
            ((weights <= 0).any(axis=1), lambda k: f"edge {k} has non-positive weight"),
        ]
        failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if failed.size:
            k = failed[0]
            message = next(msg for mask, msg in checks if mask[k])
            raise GraphError(message(k))
        if not self.is_connected():
            raise GraphError("measurement graph is not connected")

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        I = np.array([e.i for e in self.edges], dtype=int)
        J = np.array([e.j for e in self.edges], dtype=int)
        adj = coo_matrix((np.ones(I.size), (I, J)), shape=(self.n, self.n))
        return connected_components(adj, directed=False, return_labels=False) == 1


class EdgeArrays(NamedTuple):
    """The edges of a MeasurementGraph as arrays, one row per edge in list order."""

    I: np.ndarray  # (m,) first endpoints
    J: np.ndarray  # (m,) second endpoints
    R_tilde: np.ndarray  # (m, d, d)
    t_tilde: np.ndarray  # (m, d)
    kappa: np.ndarray  # (m,)
    tau: np.ndarray  # (m,)


def edge_arrays(g: MeasurementGraph) -> EdgeArrays:
    """Pack the edge list into arrays for the batched per-edge kernels.

    This copies: later changes to the Edge objects are not seen, so pack
    again after editing a graph.
    """
    m, d = len(g.edges), g.d
    return EdgeArrays(
        I=np.array([e.i for e in g.edges], dtype=np.intp),
        J=np.array([e.j for e in g.edges], dtype=np.intp),
        R_tilde=np.array([e.R_tilde for e in g.edges], dtype=float).reshape(m, d, d),
        t_tilde=np.array([e.t_tilde for e in g.edges], dtype=float).reshape(m, d),
        kappa=np.array([e.kappa for e in g.edges], dtype=float),
        tau=np.array([e.tau for e in g.edges], dtype=float),
    )


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

def quat_to_rot(qx: float, qy: float, qz: float, qw: float) -> np.ndarray:
    """Rotation matrix from a quaternion given in (x, y, z, w) order."""
    q = np.array([qx, qy, qz, qw], dtype=float)
    nrm = np.linalg.norm(q)
    if nrm == 0:
        raise GraphError("zero quaternion")
    x, y, z, w = q / nrm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Quaternion (x, y, z, w) with non-negative w from a rotation matrix."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    else:
        k = int(np.argmax(np.diag(R)))
        if k == 0:
            s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
            w = (R[2, 1] - R[1, 2]) / s
            x = 0.25 * s
            y = (R[0, 1] + R[1, 0]) / s
            z = (R[0, 2] + R[2, 0]) / s
        elif k == 1:
            s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
            w = (R[0, 2] - R[2, 0]) / s
            x = (R[0, 1] + R[1, 0]) / s
            y = 0.25 * s
            z = (R[1, 2] + R[2, 1]) / s
        else:
            s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
            w = (R[1, 0] - R[0, 1]) / s
            x = (R[0, 2] + R[2, 0]) / s
            y = (R[1, 2] + R[2, 1]) / s
            z = 0.25 * s
    q = np.array([x, y, z, w])
    if w < 0:
        q = -q
    return q / np.linalg.norm(q)


def _unpack_upper(vals: list[float], k: int) -> np.ndarray:
    """Row-major upper triangle (k*(k+1)/2 values) to a full symmetric matrix."""
    M = np.zeros((k, k))
    it = iter(vals)
    for r in range(k):
        for c in range(r, k):
            v = next(it)
            M[r, c] = v
            M[c, r] = v
    return M


def _mean_of_equalish(vals: np.ndarray) -> float:
    # preserves the exact value for isotropic information matrices
    if np.all(vals == vals[0]):
        return float(vals[0])
    return float(np.mean(vals))


def load_g2o(path: str) -> tuple[MeasurementGraph, tuple[RotationState, np.ndarray] | None]:
    """Parse a g2o file with SE(2) or SE(3) records.

    Returns the measurement graph and, when every vertex had a VERTEX
    record, the stored poses as (rotations, translations). Raises
    GraphError on malformed lines (with the line number), mixed
    dimensions, duplicate edges or a disconnected graph.
    """
    vertices: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    raw_edges: list[Edge] = []
    dim: int | None = None

    def want_dim(d: int, ln: int):
        nonlocal dim
        if dim is None:
            dim = d
        elif dim != d:
            raise GraphError(f"line {ln}: mixes 2D and 3D records")

    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            try:
                if tag == "VERTEX_SE2":
                    want_dim(2, ln)
                    vid = int(parts[1])
                    x, y, th = (float(s) for s in parts[2:5])
                    if len(parts) != 5:
                        raise ValueError("field count")
                    vertices[vid] = (exp_map(np.array([th])), np.array([x, y]))
                elif tag == "VERTEX_SE3:QUAT":
                    want_dim(3, ln)
                    vid = int(parts[1])
                    vals = [float(s) for s in parts[2:9]]
                    if len(parts) != 9:
                        raise ValueError("field count")
                    x, y, z, qx, qy, qz, qw = vals
                    vertices[vid] = (quat_to_rot(qx, qy, qz, qw), np.array([x, y, z]))
                elif tag == "EDGE_SE2":
                    want_dim(2, ln)
                    i, j = int(parts[1]), int(parts[2])
                    vals = [float(s) for s in parts[3:]]
                    if len(vals) != 3 + 6:
                        raise ValueError("field count")
                    dx, dy, dth = vals[:3]
                    info = _unpack_upper(vals[3:], 3)
                    raw_edges.append(
                        Edge(
                            i,
                            j,
                            exp_map(np.array([dth])),
                            np.array([dx, dy]),
                            kappa=_mean_of_equalish(np.diag(info)[2:3]),
                            tau=_mean_of_equalish(np.diag(info)[:2]),
                        )
                    )
                elif tag == "EDGE_SE3:QUAT":
                    want_dim(3, ln)
                    i, j = int(parts[1]), int(parts[2])
                    vals = [float(s) for s in parts[3:]]
                    if len(vals) != 7 + 21:
                        raise ValueError("field count")
                    dx, dy, dz, qx, qy, qz, qw = vals[:7]
                    info = _unpack_upper(vals[7:], 6)
                    raw_edges.append(
                        Edge(
                            i,
                            j,
                            quat_to_rot(qx, qy, qz, qw),
                            np.array([dx, dy, dz]),
                            kappa=_mean_of_equalish(np.diag(info)[3:]),
                            tau=_mean_of_equalish(np.diag(info)[:3]),
                        )
                    )
                else:
                    raise ValueError(f"unknown record {tag}")
            except GraphError:
                raise
            except Exception as exc:
                raise GraphError(f"line {ln}: {exc}") from exc

    if not raw_edges and not vertices:
        raise GraphError("file contains no vertices or edges")
    ids = set(vertices)
    for e in raw_edges:
        ids.add(e.i)
        ids.add(e.j)
    n = max(ids) + 1
    if ids != set(range(n)):
        raise GraphError("vertex ids are not contiguous from 0")
    g = MeasurementGraph(d=dim, n=n, edges=raw_edges)
    g.validate()
    poses = None
    if len(vertices) == n:
        mats = np.stack([vertices[i][0] for i in range(n)])
        ts = np.stack([vertices[i][1] for i in range(n)])
        poses = (RotationState(mats), ts)
    return g, poses


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_g2o(path: str, g: MeasurementGraph, poses: tuple[RotationState, np.ndarray] | None = None) -> None:
    """Write the graph (and optional vertex poses) as a g2o file.

    Information matrices are emitted isotropic from the scalar weights,
    so a load of the written file reproduces kappa and tau exactly.
    """
    lines = []
    if poses is not None:
        rots, ts = poses
        for i in range(g.n):
            if g.d == 2:
                th = log_map(rots.mats[i])[0]
                lines.append(f"VERTEX_SE2 {i} {_fmt(ts[i][0])} {_fmt(ts[i][1])} {_fmt(th)}")
            else:
                q = rot_to_quat(rots.mats[i])
                fields = [_fmt(v) for v in (*ts[i], *q)]
                lines.append(f"VERTEX_SE3:QUAT {i} " + " ".join(fields))
    for e in g.edges:
        if g.d == 2:
            dth = log_map(e.R_tilde)[0]
            info = [e.tau, 0.0, 0.0, e.tau, 0.0, e.kappa]
            fields = [_fmt(v) for v in (*e.t_tilde, dth, *info)]
            lines.append(f"EDGE_SE2 {e.i} {e.j} " + " ".join(fields))
        else:
            q = rot_to_quat(e.R_tilde)
            info = np.zeros((6, 6))
            info[:3, :3] = e.tau * np.eye(3)
            info[3:, 3:] = e.kappa * np.eye(3)
            upper = [info[r, c] for r in range(6) for c in range(r, 6)]
            fields = [_fmt(v) for v in (*e.t_tilde, *q, *upper)]
            lines.append(f"EDGE_SE3:QUAT {e.i} {e.j} " + " ".join(fields))
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
    def from_owner(cls, owner: np.ndarray, pairs) -> "Partition":
        """Build the separator bookkeeping for a given ownership map.

        pairs is any iterable of (i, j) vertex index pairs; endpoints of
        pairs crossing robots become separators.
        """
        owner = np.asarray(owner, dtype=int)
        m = int(owner.max()) + 1 if owner.size else 0
        is_sep = np.zeros(owner.size, dtype=bool)
        for i, j in pairs:
            if owner[i] != owner[j]:
                is_sep[i] = True
                is_sep[j] = True
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
    owner = np.empty(g.n, dtype=int)
    q, r = divmod(g.n, m)
    start = 0
    for a in range(m):
        size = q + (1 if a < r else 0)
        owner[start : start + size] = a
        start += size
    return Partition.from_owner(owner, ((e.i, e.j) for e in g.edges))


# ---------------------------------------------------------------------------
# Synthetic problems

@dataclass
class SyntheticSpec:
    """Parameters of a seeded cube-grid problem."""

    side: int = 5
    d: int = 3
    sigma_rot: float = 0.0  # radians, tangent-space noise scale
    edge_prob: float = 0.3
    kappa: float = 1.0
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.side < 2:
            raise GraphError("side must be at least 2")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise GraphError("edge_prob must lie in [0, 1]")
        if self.sigma_rot < 0:
            raise GraphError("sigma_rot must be non-negative")
        if self.d not in (2, 3):
            raise GraphError("d must be 2 or 3")


def sample_rotation_noise(sigma: float, rng: np.random.Generator, d: int = 3) -> np.ndarray:
    """Random rotation Exp(v) with v drawn from an isotropic Gaussian of scale sigma."""
    p = tangent_dim(d)
    if sigma == 0.0:
        return np.eye(d)
    return exp_map(sigma * rng.standard_normal(p))


def grid_positions(side: int, d: int = 3) -> np.ndarray:
    """Lattice coordinates of the grid vertices, indexed consistently with generate_grid."""
    axes = [np.arange(side)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def generate_grid(spec: SyntheticSpec) -> tuple[MeasurementGraph, RotationState]:
    """Seeded cube-grid problem with noisy relative rotations.

    Vertices form a side^d lattice. A deterministic lattice spanning tree
    is always included; each remaining lattice-adjacent pair joins with
    probability edge_prob. Measurements follow the right-multiplied
    noise model R_tilde = Rbar_i^T Rbar_j Exp(eps). Translation
    measurements are exact given the ground-truth poses, so translation
    error reflects only rotation error.
    """
    rng = np.random.default_rng(spec.seed)
    side, d = spec.side, spec.d
    pos = grid_positions(side, d)
    n = pos.shape[0]

    def vid(coord) -> int:
        out = 0
        for c in coord:
            out = out * side + int(c)
        return out

    truth = np.stack([random_rotation(d, rng) for _ in range(n)])

    # spanning tree: link each vertex to its predecessor along the last
    # nonzero axis (a deterministic comb through the lattice)
    tree_pairs = set()
    for v in range(n):
        coord = pos[v].astype(int)
        for ax in range(d - 1, -1, -1):
            if coord[ax] > 0:
                pc = coord.copy()
                pc[ax] -= 1
                tree_pairs.add((min(vid(pc), v), max(vid(pc), v)))
                break

    candidates = []
    for v in range(n):
        coord = pos[v].astype(int)
        for ax in range(d):
            if coord[ax] + 1 < side:
                nc = coord.copy()
                nc[ax] += 1
                candidates.append((v, vid(nc)))
    chosen = []
    for (a, b) in candidates:
        key = (min(a, b), max(a, b))
        if key in tree_pairs or rng.random() < spec.edge_prob:
            chosen.append((a, b))

    edges = []
    for (i, j) in chosen:
        noise = sample_rotation_noise(spec.sigma_rot, rng, d)
        R_tilde = truth[i].T @ truth[j] @ noise
        t_tilde = truth[i].T @ (pos[j] - pos[i])
        edges.append(Edge(i, j, R_tilde, t_tilde, kappa=spec.kappa, tau=spec.tau))

    g = MeasurementGraph(d=d, n=n, edges=edges)
    g.validate()
    return g, RotationState(truth)


def spanning_tree_init(g: MeasurementGraph) -> RotationState:
    """Initial rotations by chaining measurements along a BFS tree from vertex 0."""
    by_pair: dict[tuple[int, int], Edge] = {}
    for e in g.edges:
        by_pair[(e.i, e.j)] = e
    adj = g.adjacency()
    mats = np.zeros((g.n, g.d, g.d))
    mats[0] = np.eye(g.d)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if seen[w]:
                continue
            e = by_pair.get((v, w))
            if e is not None:
                mats[w] = mats[v] @ e.R_tilde
            else:
                e = by_pair[(w, v)]
                mats[w] = mats[v] @ e.R_tilde.T
            seen[w] = True
            queue.append(w)
    if not seen.all():
        raise GraphError("measurement graph is not connected")
    return RotationState(mats)
