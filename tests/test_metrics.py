import math

import numpy as np
import pytest

from lapra.manifold import RotationState, exp_map, random_rotation
from lapra.metrics import (
    c_epsilon,
    gamma_factor,
    rate_estimate,
    rotation_rmse,
    translation_rmse,
)

# frozen against an independent evaluation of sqrt(1 + e^{2x} - 2 e^{-x})
C_TABLE = {
    0.1: 0.6416602855781637,
    0.25: 1.0445667544763801,
    0.5: 1.5827888390539586,
    1.0: 2.76645932856201,
    1.5: 4.543047061487566,
}


def test_c_epsilon_frozen_values():
    assert c_epsilon(0.0) == 0.0
    for x, want in C_TABLE.items():
        assert c_epsilon(x) == pytest.approx(want, rel=0, abs=1e-15)


def test_c_epsilon_crosses_one_at_third_of_ln2():
    x_star = math.log(2.0) / 3.0
    assert x_star == pytest.approx(0.23104906018664842)
    assert c_epsilon(x_star) == pytest.approx(1.0, abs=1e-12)
    assert c_epsilon(x_star - 1e-6) < 1.0 < c_epsilon(x_star + 1e-6)


def test_c_epsilon_monotone_and_rejects_negative():
    xs = np.linspace(0.0, 3.0, 40)
    cs = [c_epsilon(float(x)) for x in xs]
    assert all(b > a for a, b in zip(cs, cs[1:]))
    with pytest.raises(ValueError):
        c_epsilon(-0.1)


def test_gamma_factor():
    assert gamma_factor(4.0, 0.1) == pytest.approx(2.5666411423126547, rel=0, abs=1e-15)
    assert gamma_factor(1.0, 0.25) == pytest.approx(2.0 * C_TABLE[0.25])
    for kappa in (0.5, math.nan):
        with pytest.raises(ValueError, match=r"^condition number must be at least 1$"):
            gamma_factor(kappa, 0.1)


@pytest.mark.parametrize("eps", [-0.1, math.nan])
def test_c_epsilon_and_gamma_factor_reject_a_negative_or_nan_eps(eps):
    with pytest.raises(ValueError, match=r"^eps must be non-negative$"):
        c_epsilon(eps)
    with pytest.raises(ValueError, match=r"^eps must be non-negative$"):
        gamma_factor(4.0, eps)


def test_rotation_rmse_zero_for_global_rotation():
    rng = np.random.default_rng(0)
    mats = np.stack([random_rotation(3, rng) for _ in range(12)])
    S = random_rotation(3, rng)
    rotated = np.stack([S @ R for R in mats])
    err = rotation_rmse(rotated, mats)
    assert err.degrees < 1e-6
    assert err.frobenius < 1e-8
    # alignment maps the first argument onto the second
    assert np.abs(err.alignment - S.T).max() < 1e-10


def test_rotation_rmse_known_single_angle():
    rng = np.random.default_rng(1)
    n = 8
    mats = np.stack([random_rotation(3, rng) for _ in range(n)])
    ang = np.deg2rad(3.0)
    axis = np.array([0.0, 0.0, 1.0])
    # same tangent perturbation on every vertex is itself a global
    # rotation, so perturb only one vertex to create real error
    pert = mats.copy()
    pert[0] = exp_map(ang * axis) @ pert[0]
    err = rotation_rmse(pert, mats)
    # the optimal alignment spreads the error, so the rmse is bounded by
    # the single-vertex value and is strictly positive
    assert 0.1 < err.degrees <= math.degrees(ang) / math.sqrt(n) + 0.5


def test_rotation_rmse_accepts_states_and_checks_shapes():
    a = RotationState.identity(4, 3)
    b = RotationState.identity(4, 3)
    assert rotation_rmse(a, b).degrees == 0.0
    with pytest.raises(ValueError):
        rotation_rmse(np.zeros((3, 3, 3)), np.zeros((4, 3, 3)))


def test_translation_rmse_shift_invariant():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 3))
    assert translation_rmse(A, A + 7.5) < 1e-12
    B = A.copy()
    B[0] += np.array([1.0, 0.0, 0.0])
    # one displaced point of ten: mean shift is removed, so the rmse is
    # |1 - 1/10| adjusted across the set
    want = math.sqrt((0.9**2 + 9 * 0.1**2) / 10.0)
    assert translation_rmse(B, A) == pytest.approx(want)
    with pytest.raises(ValueError):
        translation_rmse(np.zeros((3, 2)), np.zeros((4, 2)))


def test_rate_estimate_geometric_sequence():
    v = 3.0 * 0.5 ** np.arange(10)
    est = rate_estimate(v)
    assert est.tail_rate == pytest.approx(0.5)
    assert np.allclose(est.ratios, 0.5)


def test_rate_estimate_handles_zeros_and_bad_input():
    est = rate_estimate([1.0, 0.5, 0.0, 0.0])
    assert est.tail_rate == pytest.approx(0.5)
    assert math.isnan(est.ratios[-1])
    with pytest.raises(ValueError):
        rate_estimate([1.0])
    assert math.isnan(rate_estimate([0.0, 0.0]).tail_rate)
