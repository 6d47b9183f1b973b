"""Primitives for working with 2D and 3D rotation matrices.

Everything here operates on plain numpy arrays. Rotations are d x d
orthogonal matrices with determinant +1 (d = 2 or 3), and tangent
vectors live in R^p with p = d*(d-1)/2, so p = 1 for the plane and
p = 3 in space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "hat_batch",
    "exp_map",
    "log_map",
    "exp_map_batch",
    "log_map_batch",
    "geodesic_dist",
    "orthonormality_drift",
    "row_norms",
    "stack_matmul",
    "project_to_rotation",
    "tangent_dim",
    "random_rotation",
    "RotationState",
]


class NumericalError(RuntimeError):
    """Raised when a computation leaves its supported numerical range."""


def tangent_dim(d: int) -> int:
    """Dimension of the tangent space of the rotation group in dimension d."""
    if d not in (2, 3):
        raise ValueError(f"only d=2 and d=3 are supported, got {d}")
    return d * (d - 1) // 2


def exp_map(v: np.ndarray) -> np.ndarray:
    """Exponential map from a tangent vector to a rotation matrix.

    Uses the closed form in both dimensions (a plane rotation for p = 1,
    Rodrigues' formula for p = 3) with a series fallback for tiny angles.
    The one-row case of exp_map_batch.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape not in ((1,), (3,)):
        raise ValueError(f"tangent vector must have length 1 or 3, got shape {v.shape}")
    return exp_map_batch(v[None])[0]


# Angle beyond which log_map switches to the symmetric-part extraction,
# which stays accurate as sin(theta) collapses toward zero.
_NEAR_PI_SWITCH = 2.9
_PI_GUARD = 1e-6


def log_map(R: np.ndarray) -> np.ndarray:
    """Logarithm map from a rotation matrix to a tangent vector.

    The one-row case of log_map_batch.

    Parameters
    ----------
    R : ndarray
        Rotation matrix, 2x2 or 3x3.

    Returns
    -------
    ndarray
        Tangent vector v with exp_map(v) == R, of length 1 or 3. The
        rotation angle ||v|| lies in [0, pi) (signed in (-pi, pi) for
        the planar case).

    Raises
    ------
    NumericalError
        If the rotation angle is within 1e-6 of pi, where the logarithm
        is not uniquely defined.
    """
    R = np.asarray(R, dtype=float)
    if R.shape not in ((2, 2), (3, 3)):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {R.shape}")
    return log_map_batch(R[None])[0]


def hat_batch(V: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of each row: (k, p) tangent vectors to (k, d, d) matrices.

    For p = 1 each row is an angle rate and gives a 2x2 matrix; for
    p = 3 each gives the usual 3x3 cross-product matrix.
    """
    k, p = V.shape
    if p == 1:
        K = np.zeros((k, 2, 2))
        K[:, 0, 1] = -V[:, 0]
        K[:, 1, 0] = V[:, 0]
        return K
    K = np.zeros((k, 3, 3))
    K[:, 0, 1] = -V[:, 2]
    K[:, 0, 2] = V[:, 1]
    K[:, 1, 0] = V[:, 2]
    K[:, 1, 2] = -V[:, 0]
    K[:, 2, 0] = -V[:, 1]
    K[:, 2, 1] = V[:, 0]
    return K


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, n) array.

    Taken from a per-row matmul, which gives bit for bit what
    np.linalg.norm gives for one row; einsum and norm(axis=1) sum in
    another order and can differ in the last bit.
    """
    return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])


def stack_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for a (k, d, d) stack A and a (k, d, e) stack B, d <= 3.

    numpy's matmul pays a fixed cost per matrix of a stack, which dominates 2 x 2 and 3 x 1 products.
    Here each output entry is d multiply-adds over length-k entry planes, without fused multiply-adds,
    so it can differ from matmul's in the last bit. Returns a C-contiguous (k, d, e) array.
    """
    k, d, _ = A.shape
    e = B.shape[2]
    a, b = A.reshape(k, d * d).T, B.reshape(k, d * e).T
    out = np.empty((k, d, e))
    for r, c in np.ndindex(d, e):
        acc = a[r * d] * b[c]
        for s in range(1, d):
            acc += a[r * d + s] * b[s * e + c]
        out[:, r, c] = acc
    return out


def _raise_near_pi(theta: np.ndarray) -> None:
    bad = np.flatnonzero(np.abs(theta) > np.pi - _PI_GUARD)
    if bad.size:
        raise NumericalError(f"rotation angle {theta[bad[0]]:.9f} too close to pi for log_map")


def exp_map_batch(V: np.ndarray) -> np.ndarray:
    """exp_map of every row of a (k, p) array, returned as a (k, d, d) stack."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] not in (1, 3):
        raise ValueError(f"expected shape (k, 1) or (k, 3), got {V.shape}")
    if V.shape[1] == 1:
        c, s = np.cos(V[:, 0]), np.sin(V[:, 0])
        return np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    theta = row_norms(V)
    K = hat_batch(V)
    KK = K @ K
    small = theta < 1e-8
    t = np.where(small, 1.0, theta)
    # second order series below 1e-8, exact to machine precision at that scale
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    return np.eye(3) + a[:, None, None] * K + b[:, None, None] * KK


def log_map_batch(R: np.ndarray) -> np.ndarray:
    """log_map of every matrix in a (k, d, d) stack, returned as (k, p) rows.

    Raises NumericalError naming the first angle within 1e-6 of pi.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1:] not in ((2, 2), (3, 3)):
        raise ValueError(f"expected shape (k, 2, 2) or (k, 3, 3), got {R.shape}")
    if R.shape[1] == 2:
        theta = np.arctan2(R[:, 1, 0], R[:, 0, 0])
        _raise_near_pi(theta)
        return theta[:, None]

    r = R.reshape(-1, 9).T  # entry planes: r[3 * row + col] is R[:, row, col]
    w = np.empty((len(R), 3))  # sin(theta) * axis, the antisymmetric part of each R
    for c, (hi, lo) in enumerate(((7, 5), (2, 6), (3, 1))):
        w[:, c] = (r[hi] - r[lo]) / 2.0
    cos_theta = (r[0] + r[4] + r[8] - 1.0) / 2.0
    sin_theta = row_norms(w)
    theta = np.arctan2(sin_theta, cos_theta)
    _raise_near_pi(theta)

    small = theta < 1e-4
    t2 = theta * theta
    # v = (theta / sin theta) * w, with the ratio expanded in series for small angles
    series = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    scale = np.where(small, series, theta / np.where(small, 1.0, sin_theta))
    V = scale[:, None] * w
    near = np.flatnonzero(theta >= _NEAR_PI_SWITCH)
    if near.size:
        V[near] = theta[near, None] * _near_pi_axes(R[near], cos_theta[near], w[near])
    return V


def _near_pi_axes(R: np.ndarray, cos_theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit rotation axes of a (k, 3, 3) stack near pi, from the symmetric part.

    There the antisymmetric part w = sin(theta) * axis has lost most of
    its magnitude and serves only to fix the sign of each axis.
    """
    A = (R + np.swapaxes(R, 1, 2)) / 2.0 - cos_theta[:, None, None] * np.eye(3)
    one_minus_cos = 1.0 - cos_theta
    rows = np.arange(len(R))
    k = np.argmax(np.diagonal(A, axis1=1, axis2=2), axis=1)
    uk = np.sqrt(np.maximum(A[rows, k, k] / one_minus_cos, 0.0))
    if (uk == 0.0).any():
        raise NumericalError("degenerate axis extraction near pi")
    u = A[rows, :, k] / (one_minus_cos * uk)[:, None]
    u = u / row_norms(u)[:, None]
    return np.where((u[:, None, :] @ w[:, :, None])[:, 0] < 0.0, -u, u)


def geodesic_dist(R1: np.ndarray, R2: np.ndarray) -> float:
    """Rotation angle of R1^T R2, i.e. the geodesic distance on the group."""
    return float(np.linalg.norm(log_map(np.asarray(R1).T @ np.asarray(R2))))


def project_to_rotation(M: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection)."""
    M = np.asarray(M, dtype=float)
    U, _, Vt = np.linalg.svd(M)
    D = np.eye(M.shape[0])
    D[-1, -1] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation uniformly (Haar) in dimension d."""
    if d == 2:
        return exp_map(rng.uniform(-np.pi, np.pi, size=1))
    # QR of a Gaussian matrix with sign-fixed diagonal is Haar on O(3);
    # flip a column if the determinant came out negative.
    A = rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def orthonormality_drift(R: np.ndarray) -> np.ndarray:
    """Frobenius norm of R^T R - I for each matrix of a (k, d, d) stack, from its entry planes."""
    k, d, _ = R.shape
    a = R.reshape(k, d * d).T
    sq = np.zeros(k)
    for i, j in zip(*np.triu_indices(d)):  # the upper triangle of R^T R, off-diagonal entries twice
        G = a[i] * a[j]
        for s in range(1, d):
            G += a[s * d + i] * a[s * d + j]
        sq += (G - 1.0) ** 2 if i == j else 2.0 * G**2
    return np.sqrt(sq)


_ORTHO_DRIFT_TOL = 1e-12
_ROTATION_TOL = 1e-9  # largest orthonormality drift that validity checks accept


def _off_group(R: np.ndarray) -> np.ndarray:
    """Mask of the blocks of a (k, d, d) stack that are non-finite, further than 1e-9 from orthonormal, or
    reflections. A non-finite entry makes the drift non-finite, which fails the drift test. The determinant
    comes from entry planes; its sign is all that counts, and it is +-1 within round-off for every block that
    passes the drift test."""
    k, d, _ = R.shape
    a = R.reshape(k, d * d).T
    with np.errstate(invalid="ignore", over="ignore"):
        if d == 2:
            det = a[0] * a[3] - a[1] * a[2]
        else:
            det = (a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
                   + a[2] * (a[3] * a[7] - a[4] * a[6]))
        return ~(orthonormality_drift(R) <= _ROTATION_TOL) | (det < 0)


@dataclass
class RotationState:
    """A stack of n rotation estimates, one d x d matrix per vertex."""

    mats: np.ndarray  # shape (n, d, d)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ValueError(f"expected shape (n, d, d), got {self.mats.shape}")
        if self.mats.shape[1] not in (2, 3):
            raise ValueError("only d=2 and d=3 are supported")

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def d(self) -> int:
        return self.mats.shape[1]

    @property
    def p(self) -> int:
        return tangent_dim(self.d)

    def copy(self) -> "RotationState":
        return RotationState(self.mats.copy())

    @classmethod
    def identity(cls, n: int, d: int) -> "RotationState":
        return cls(np.tile(np.eye(d), (n, 1, 1)))

    def check_valid(self) -> None:
        """Raise naming the first block that is non-finite or off the rotation group."""
        bad = _off_group(self.mats)
        if bad.any():
            raise NumericalError(f"matrix {np.argmax(bad)} is not a rotation within tol {_ROTATION_TOL}")

    def renormalize(self) -> None:
        """Snap blocks back onto the group when round-off has accumulated.

        Cheap to call every iteration: blocks within 1e-12 of orthonormal
        are left untouched.
        """
        for i in np.flatnonzero(orthonormality_drift(self.mats) > _ORTHO_DRIFT_TOL):
            self.mats[i] = project_to_rotation(self.mats[i])
