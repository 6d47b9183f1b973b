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
    "hat",
    "vee",
    "exp_map",
    "log_map",
    "exp_map_batch",
    "log_map_batch",
    "geodesic_dist",
    "chordal_sq",
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


def hat(v: np.ndarray) -> np.ndarray:
    """Map a tangent vector to the corresponding skew-symmetric matrix.

    For p = 1 the input is a single angle rate and the output is 2x2;
    for p = 3 the output is the usual 3x3 cross-product matrix.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape == (1,):
        return np.array([[0.0, -v[0]], [v[0], 0.0]])
    if v.shape == (3,):
        return np.array(
            [
                [0.0, -v[2], v[1]],
                [v[2], 0.0, -v[0]],
                [-v[1], v[0], 0.0],
            ]
        )
    raise ValueError(f"tangent vector must have length 1 or 3, got shape {v.shape}")


def vee(A: np.ndarray) -> np.ndarray:
    """Inverse of hat: extract the tangent vector from a skew-symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        return np.array([A[1, 0]])
    if A.shape == (3, 3):
        return np.array([A[2, 1], A[0, 2], A[1, 0]])
    raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {A.shape}")


def exp_map(v: np.ndarray) -> np.ndarray:
    """Exponential map from a tangent vector to a rotation matrix.

    Uses the closed form in both dimensions (a plane rotation for p = 1,
    Rodrigues' formula for p = 3) with a series fallback for tiny angles.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape == (1,):
        c, s = np.cos(v[0]), np.sin(v[0])
        return np.array([[c, -s], [s, c]])
    if v.shape != (3,):
        raise ValueError(f"tangent vector must have length 1 or 3, got shape {v.shape}")
    theta = np.linalg.norm(v)
    K = hat(v)
    if theta < 1e-8:
        # second order series, exact to machine precision at this scale
        return np.eye(3) + K + 0.5 * (K @ K)
    return np.eye(3) + (np.sin(theta) / theta) * K + ((1.0 - np.cos(theta)) / theta**2) * (K @ K)


# Angle beyond which log_map switches to the symmetric-part extraction,
# which stays accurate as sin(theta) collapses toward zero.
_NEAR_PI_SWITCH = 2.9
_PI_GUARD = 1e-6


def log_map(R: np.ndarray) -> np.ndarray:
    """Logarithm map from a rotation matrix to a tangent vector.

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
    if R.shape == (2, 2):
        theta = np.arctan2(R[1, 0], R[0, 0])
        if abs(theta) > np.pi - _PI_GUARD:
            raise NumericalError(f"rotation angle {theta:.9f} too close to pi for log_map")
        return np.array([theta])
    if R.shape != (3, 3):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {R.shape}")

    w = vee((R - R.T) / 2.0)  # equals sin(theta) * axis
    cos_theta = (np.trace(R) - 1.0) / 2.0
    sin_theta = np.linalg.norm(w)
    theta = np.arctan2(sin_theta, cos_theta)

    if theta > np.pi - _PI_GUARD:
        raise NumericalError(f"rotation angle {theta:.9f} too close to pi for log_map")
    if theta < 1e-4:
        # v = (theta / sin theta) * w, with the ratio expanded in series
        t2 = theta * theta
        return (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0) * w
    if theta < _NEAR_PI_SWITCH:
        return (theta / sin_theta) * w
    # Near pi: recover the axis from the symmetric part, where the
    # antisymmetric part has lost most of its magnitude.
    A = (R + R.T) / 2.0 - cos_theta * np.eye(3)
    one_minus_cos = 1.0 - cos_theta
    k = int(np.argmax(np.diag(A)))
    u = A[:, k].copy()
    u[k] = A[k, k]
    uk = np.sqrt(max(A[k, k] / one_minus_cos, 0.0))
    if uk == 0.0:
        raise NumericalError("degenerate axis extraction near pi")
    u = u / (one_minus_cos * uk)
    u = u / np.linalg.norm(u)
    if np.dot(u, w) < 0.0:
        u = -u
    return theta * u


def _hat_batch(V: np.ndarray) -> np.ndarray:
    """hat applied row by row: (k, p) tangent vectors to (k, d, d) matrices."""
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


def _raise_near_pi(theta: np.ndarray) -> None:
    bad = np.flatnonzero(np.abs(theta) > np.pi - _PI_GUARD)
    if bad.size:
        raise NumericalError(f"rotation angle {theta[bad[0]]:.9f} too close to pi for log_map")


def exp_map_batch(V: np.ndarray) -> np.ndarray:
    """exp_map of every row of a (k, p) array, returned as a (k, d, d) stack.

    Takes the same branches as exp_map, row by row.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] not in (1, 3):
        raise ValueError(f"expected shape (k, 1) or (k, 3), got {V.shape}")
    if V.shape[1] == 1:
        c, s = np.cos(V[:, 0]), np.sin(V[:, 0])
        return np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    theta = np.sqrt(np.einsum("ki,ki->k", V, V))
    K = _hat_batch(V)
    KK = K @ K
    small = theta < 1e-8
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    return np.eye(3) + a[:, None, None] * K + b[:, None, None] * KK


def log_map_batch(R: np.ndarray) -> np.ndarray:
    """log_map of every matrix in a (k, d, d) stack, returned as (k, p) rows.

    Takes the same branches as log_map; the rare rows beyond the near-pi
    switch go through log_map itself. Raises NumericalError if any angle
    is within 1e-6 of pi.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1:] not in ((2, 2), (3, 3)):
        raise ValueError(f"expected shape (k, 2, 2) or (k, 3, 3), got {R.shape}")
    if R.shape[1] == 2:
        theta = np.arctan2(R[:, 1, 0], R[:, 0, 0])
        _raise_near_pi(theta)
        return theta[:, None]

    A = (R - np.swapaxes(R, 1, 2)) / 2.0
    w = np.stack([A[:, 2, 1], A[:, 0, 2], A[:, 1, 0]], axis=1)  # sin(theta) * axis
    cos_theta = (np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0
    sin_theta = np.sqrt(np.einsum("ki,ki->k", w, w))
    theta = np.arctan2(sin_theta, cos_theta)
    _raise_near_pi(theta)

    small = theta < 1e-4
    t2 = theta * theta
    series = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    scale = np.where(small, series, theta / np.where(small, 1.0, sin_theta))
    V = scale[:, None] * w
    for k in np.flatnonzero(theta >= _NEAR_PI_SWITCH):
        V[k] = log_map(R[k])
    return V


def geodesic_dist(R1: np.ndarray, R2: np.ndarray) -> float:
    """Rotation angle of R1^T R2, i.e. the geodesic distance on the group."""
    return float(np.linalg.norm(log_map(np.asarray(R1).T @ np.asarray(R2))))


def chordal_sq(R1: np.ndarray, R2: np.ndarray) -> float:
    """Squared Frobenius distance ||R1 - R2||_F^2."""
    diff = np.asarray(R1, dtype=float) - np.asarray(R2, dtype=float)
    return float(np.sum(diff * diff))


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


_ORTHO_DRIFT_TOL = 1e-12


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

    def check_valid(self, tol: float = 1e-9) -> None:
        """Raise if any block drifted away from the rotation group."""
        for i, R in enumerate(self.mats):
            if np.linalg.norm(R.T @ R - np.eye(self.d)) > tol or np.linalg.det(R) < 0:
                raise NumericalError(f"matrix {i} is not a rotation within tol {tol}")

    def renormalize(self) -> None:
        """Snap blocks back onto the group when round-off has accumulated.

        Cheap to call every iteration: blocks within 1e-12 of orthonormal
        are left untouched.
        """
        G = np.swapaxes(self.mats, 1, 2) @ self.mats - np.eye(self.d)
        drift = np.sqrt(np.einsum("kij,kij->k", G, G))
        for i in np.flatnonzero(drift > _ORTHO_DRIFT_TOL):
            self.mats[i] = project_to_rotation(self.mats[i])
