"""Error bounds, alignment metrics and convergence-rate estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import RotationState, project_to_rotation

__all__ = [
    "c_epsilon",
    "gamma_factor",
    "RotationRMSE",
    "rotation_rmse",
    "translation_rmse",
    "RateEstimate",
    "rate_estimate",
]

_RATE_TAIL = 5  # ratios the tail rate of rate_estimate averages


def c_epsilon(eps: float) -> float:
    """Energy-norm amplification factor of an eps-quality approximate solve.

    c(0) = 0 and the factor crosses 1 at eps = ln(2)/3, so only rather
    accurate approximations contract in a single application.
    """
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    return math.sqrt(1.0 + math.exp(2.0 * eps) - 2.0 * math.exp(-eps))


def gamma_factor(kappa_h: float, x: float) -> float:
    """Worst-case linear rate factor 2 sqrt(kappa_h) c(x) of the outer iteration."""
    if not kappa_h >= 1.0:
        raise ValueError("condition number must be at least 1")
    return 2.0 * math.sqrt(kappa_h) * c_epsilon(x)


def _mats(R) -> np.ndarray:
    return R.mats if isinstance(R, RotationState) else np.asarray(R, dtype=float)


@dataclass
class RotationRMSE:
    degrees: float  # sqrt(mean squared per-vertex angle), after alignment
    frobenius: float  # sqrt(mean squared Frobenius distance), after alignment
    alignment: np.ndarray  # the aligning global rotation


def rotation_rmse(R_a, R_b) -> RotationRMSE:
    """Gauge-aligned rotation error between two sets of estimates.

    Finds the global rotation S minimizing sum ||S R_a_i - R_b_i||_F^2
    (SVD projection with determinant correction), then reports both the
    Frobenius aggregate and the root-mean-square per-vertex angle in
    degrees.
    """
    A, B = _mats(R_a), _mats(R_b)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    n, d = A.shape[0], A.shape[1]
    S = project_to_rotation(np.einsum("nij,nkj->ik", B, A))  # nearest rotation to sum_i B_i A_i^T

    SA = S @ A
    frob_sq = np.sum((SA - B) ** 2)
    cos = (np.trace(SA @ np.swapaxes(B, 1, 2), axis1=1, axis2=2) - (d - 2)) / 2.0
    ang_sq = np.sum(np.arccos(np.clip(cos, -1.0, 1.0)) ** 2)
    return RotationRMSE(
        degrees=math.degrees(math.sqrt(ang_sq / n)),
        frobenius=math.sqrt(frob_sq / n),
        alignment=S,
    )


def translation_rmse(t_a: np.ndarray, t_b: np.ndarray) -> float:
    """RMSE between translation sets after removing each set's mean."""
    A = np.asarray(t_a, dtype=float)
    B = np.asarray(t_b, dtype=float)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    A = A - A.mean(axis=0, keepdims=True)
    B = B - B.mean(axis=0, keepdims=True)
    return math.sqrt(np.sum((A - B) ** 2) / A.shape[0])


@dataclass
class RateEstimate:
    ratios: np.ndarray
    tail_rate: float  # geometric mean of the last few ratios


def rate_estimate(values) -> RateEstimate:
    """Per-step contraction ratios of a decaying positive sequence.

    The tail rate is the geometric mean of the last five well-defined
    ratios; steps where the sequence has already hit zero are skipped.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d sequence of at least two values")
    ratios = np.full(v.size - 1, np.nan)
    mask = v[:-1] > 0
    ratios[mask] = v[1:][mask] / v[:-1][mask]
    finite = ratios[np.isfinite(ratios) & (ratios > 0)]
    if finite.size == 0:
        return RateEstimate(ratios=ratios, tail_rate=float("nan"))
    tail_vals = finite[-_RATE_TAIL:]
    return RateEstimate(ratios=ratios, tail_rate=float(np.exp(np.mean(np.log(tail_vals)))))
