import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapra.manifold import (
    NumericalError,
    RotationState,
    exp_map,
    exp_map_batch,
    geodesic_dist,
    hat_batch,
    log_map,
    orthonormality_drift,
    project_to_rotation,
    random_rotation,
    stack_matmul,
    tangent_dim,
)


def test_tangent_dim():
    assert tangent_dim(2) == 1
    assert tangent_dim(3) == 3


def test_hat_vee_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(3)
        A = hat_batch(v[None])[0]
        assert np.allclose(A, -A.T)
        assert np.array_equal([A[2, 1], A[0, 2], A[1, 0]], v)
    v1 = rng.standard_normal(1)
    A = hat_batch(v1[None])[0]
    assert np.array_equal(A, [[0.0, -v1[0]], [v1[0], 0.0]])


def test_hat_cross_product_identity():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(hat_batch(a[None])[0] @ b, np.cross(a, b))


def test_exp_known_rotation():
    # rotation by 0.3 rad about the z axis
    R = exp_map(np.array([0.0, 0.0, 0.3]))
    c, s = math.cos(0.3), math.sin(0.3)
    expected = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(R, expected, atol=1e-15)


def test_exp_matches_power_series():
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = rng.standard_normal(3) * rng.uniform(0, 2)
        A = hat_batch(v[None])[0]
        S = np.eye(3)
        term = np.eye(3)
        for k in range(1, 30):
            term = term @ A / k
            S = S + term
        assert np.linalg.norm(exp_map(v) - S) < 1e-13


def test_log_exp_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.uniform(1e-10, 3.0)
        w = log_map(exp_map(v))
        assert np.linalg.norm(w - v) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_log_small_angle_series_branch():
    # tiny angles go through the series; compare against the closed form
    for theta in (1e-9, 1e-7, 1e-5):
        v = np.array([theta, 0.0, 0.0])
        w = log_map(exp_map(v))
        assert np.linalg.norm(w - v) <= 1e-12 * max(theta, 1e-12) + 1e-18


def test_log_near_pi():
    rng = np.random.default_rng(4)
    for _ in range(20):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = math.pi - 1e-4
        v = theta * axis
        w = log_map(exp_map(v))
        assert np.linalg.norm(w - v) < 1e-8


def test_log_rejects_pi():
    R = np.diag([1.0, -1.0, -1.0])  # rotation by pi about x
    with pytest.raises(NumericalError):
        log_map(R)


def test_geodesic_and_chordal_relation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        R1 = random_rotation(3, rng)
        R2 = random_rotation(3, rng)
        th = geodesic_dist(R1, R2)
        # ||R1 - R2||_F^2 = 4 - 4 cos(theta) in 3D reduces per-axis; use trace identity
        assert abs(np.sum((R1 - R2) ** 2) - (6.0 - 2.0 * (1.0 + 2.0 * math.cos(th)))) < 1e-10


def test_project_to_rotation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        R = random_rotation(3, rng)
        M = R + 0.05 * rng.standard_normal((3, 3))
        P = project_to_rotation(M)
        assert np.allclose(P.T @ P, np.eye(3), atol=1e-12)
        assert np.linalg.det(P) > 0
        # projecting an exact rotation returns it
        assert np.linalg.norm(project_to_rotation(R) - R) < 1e-12


def test_random_rotation_is_uniformish():
    rng = np.random.default_rng(7)
    mats = [random_rotation(3, rng) for _ in range(200)]
    for R in mats[:10]:
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
    # column means should be near zero for a Haar sample
    assert np.abs(np.mean([R[:, 0] for R in mats], axis=0)).max() < 0.15


def test_rotation_state_identity_and_checks():
    S = RotationState.identity(4, 3)
    assert S.n == 4 and S.d == 3 and S.p == 3
    S.check_valid()
    bad = S.copy()
    bad.mats[1, 0, 0] = 2.0
    with pytest.raises(NumericalError):
        bad.check_valid()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_check_valid_rejects_non_finite_blocks(value):
    S = RotationState.identity(4, 3)
    S.mats[2, 1, 0] = value
    S.mats[3] = np.nan
    with pytest.raises(NumericalError, match=r"^matrix 2 is not a rotation within tol 1e-09$"):
        S.check_valid()
    with pytest.raises(NumericalError, match=r"^matrix 0 "):
        RotationState(np.full((2, 2, 2), value)).check_valid()


def test_rotation_state_renormalize():
    rng = np.random.default_rng(8)
    S = RotationState(np.stack([random_rotation(3, rng) for _ in range(5)]))
    S.mats += 1e-10 * rng.standard_normal(S.mats.shape)
    S.renormalize()
    S.check_valid()


def test_d2_rotations():
    th = 0.7
    R = exp_map(np.array([th]))
    expected = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    assert np.allclose(R, expected)
    assert abs(log_map(R)[0] - th) < 1e-14
    assert abs(geodesic_dist(np.eye(2), R) - th) < 1e-14


def _stack(rng, k, shape, layout, scale=1.0):
    """k random matrices of the given shape: contiguous, a swapaxes view, or every second one of 2k."""
    if layout == "swapaxes":
        return np.swapaxes(scale * rng.standard_normal((k, shape[1], shape[0])), 1, 2)
    if layout == "every-second":
        return (scale * rng.standard_normal((2 * k, *shape)))[::2]
    return scale * rng.standard_normal((k, *shape))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 50), d=st.sampled_from([2, 3]), square=st.booleans(),
       layouts=st.tuples(*[st.sampled_from(["contiguous", "swapaxes", "every-second"])] * 2),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_stack_matmul_matches_matmul(k, d, square, layouts, seed, scale):
    rng = np.random.default_rng(seed)
    e = d if square else 1
    A = _stack(rng, k, (d, d), layouts[0], scale)
    B = _stack(rng, k, (d, e), layouts[1])
    out = stack_matmul(A, B)
    ref = np.matmul(A, B)
    assert out.shape == (k, d, e) and out.flags.c_contiguous
    entry_scale = np.abs(A).max(initial=0.0) * np.abs(B).max(initial=0.0)
    assert np.abs(out - ref).max(initial=0.0) <= 1e-14 * entry_scale


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_stack_matmul_of_no_matrices_is_empty(d, e):
    out = stack_matmul(np.zeros((0, d, d)), np.zeros((0, d, e)))
    assert out.shape == (0, d, e) and out.dtype == float


@pytest.mark.parametrize("d", [2, 3])
def test_orthonormality_drift_matches_the_gram_norm(d):
    """Within 1e-15 absolute up to unit drift, and relative to the drift above it."""
    rng = np.random.default_rng(9)
    near = np.stack([random_rotation(d, rng) for _ in range(400)])
    near += 10.0 ** rng.uniform(-13, -2, size=(400, 1, 1)) * rng.standard_normal(near.shape)
    for R in (near, rng.uniform(-1.0, 1.0, size=(400, d, d))):
        ref = np.array([np.linalg.norm(M.T @ M - np.eye(d)) for M in R])
        assert np.all(np.abs(orthonormality_drift(R) - ref) <= 1e-15 * np.maximum(1.0, ref))


@pytest.mark.parametrize("d", [2, 3])
def test_renormalize_snaps_drifted_blocks_and_keeps_fresh_products(d):
    rng = np.random.default_rng(10)
    R = np.stack([random_rotation(d, rng) for _ in range(6)])
    V = rng.uniform(-3.0, 3.0, size=(6, d * (d - 1) // 2))
    S = RotationState(stack_matmul(exp_map_batch(V), R))
    fresh = S.mats.copy()
    S.mats[2] *= 1.0 + 5e-11  # drift of about 1e-10 * sqrt(d)
    drifted = S.mats[2].copy()
    assert 1e-10 < orthonormality_drift(S.mats)[2] < 2e-10
    S.renormalize()
    assert np.array_equal(S.mats[2], project_to_rotation(drifted))
    assert orthonormality_drift(S.mats[2:3])[0] < 1e-12
    keep = np.arange(6) != 2
    assert np.array_equal(S.mats[keep], fresh[keep])


@pytest.mark.parametrize("d", [2, 3])
def test_check_valid_rejects_non_finite_and_reflected_blocks(d):
    for i, bad in enumerate([np.nan, np.inf, "reflection"]):
        S = RotationState.identity(3, d)
        if bad == "reflection":
            S.mats[1, 0, 0] = -1.0  # orthonormal, determinant -1
            assert orthonormality_drift(S.mats)[1] == 0.0
        else:
            S.mats[1, d - 1, 0] = bad
        with pytest.raises(NumericalError, match=r"^matrix 1 is not a rotation"):
            S.check_valid()
