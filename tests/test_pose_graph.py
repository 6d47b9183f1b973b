import math

import numpy as np
import pytest

from lapra.manifold import RotationState, exp_map, random_rotation
from lapra.pose_graph import (
    GraphError,
    MeasurementGraph,
    Partition,
    SyntheticSpec,
    _quats_to_rots,
    _rots_to_quats,
    generate_grid,
    grid_positions,
    load_g2o,
    partition_contiguous,
    spanning_tree_init,
    write_g2o,
)


def _random_graph(rng, n=12, d=3, extra=8):
    mats = np.stack([random_rotation(d, rng) for _ in range(n)])
    pos = rng.standard_normal((n, d))
    pairs = [(i - 1, i) for i in range(1, n)]
    while len(pairs) < n - 1 + extra:
        i, j = sorted(rng.integers(0, n, size=2))
        if i != j and (i, j) not in pairs:
            pairs.append((int(i), int(j)))
    I, J = np.array(pairs).T
    R_tilde = [mats[i].T @ mats[j] for i, j in pairs]
    t_tilde = [mats[i].T @ (pos[j] - pos[i]) for i, j in pairs]
    kappa, tau = rng.uniform(0.5, 2.0, size=(len(pairs), 2)).T  # drawn per edge, kappa first
    return MeasurementGraph(d, n, I, J, R_tilde, t_tilde, kappa, tau), RotationState(mats), pos


def _edges(d, n, pairs, R=None, kappa=1.0):
    """Graph over the given pairs with identity (or R) rotations and zero translations."""
    m = len(pairs)
    I, J = np.array(pairs).reshape(m, 2).T
    R_tilde = np.stack([np.eye(d) if R is None else R] * m)
    return MeasurementGraph(d, n, I, J, R_tilde, np.zeros((m, d)), np.full(m, kappa), np.ones(m))


def test_quaternion_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        R = random_rotation(3, rng)
        q = _rots_to_quats(R[None])[0]
        assert q[3] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.linalg.norm(_quats_to_rots(q[None])[0] - R) < 1e-12


def test_quat_known_value():
    # 90 degrees about x
    s = math.sqrt(0.5)
    R = _quats_to_rots(np.array([[s, 0.0, 0.0, s]]))[0]
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(R, expected, atol=1e-15)


def test_validate_catches_bad_edges():
    with pytest.raises(GraphError):
        _edges(3, 2, [(0, 0)]).validate()
    with pytest.raises(GraphError):
        _edges(3, 2, [(0, 5)]).validate()
    with pytest.raises(GraphError):
        _edges(3, 2, [(0, 1), (1, 0)]).validate()
    with pytest.raises(GraphError):
        _edges(3, 2, [(0, 1)], R=2.0 * np.eye(3)).validate()
    with pytest.raises(GraphError):
        _edges(3, 2, [(0, 1)], kappa=0.0).validate()
    with pytest.raises(GraphError):
        _edges(3, 3, [(0, 1)]).validate()  # vertex 2 unreachable


@pytest.mark.parametrize("field, entry", [("R_tilde", (0, 2)), ("t_tilde", (2,)), ("kappa", ()), ("tau", ())])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_values(field, entry, value):
    g = _edges(3, 4, [(0, 1), (1, 2), (2, 3)])
    for k in (1, 2):
        getattr(g, field)[(k, *entry)] = value
    with pytest.raises(GraphError, match="edge 1 has a non-finite rotation, translation or weight"):
        g.validate()


def test_g2o_roundtrip_preserves_scalars(tmp_path):
    rng = np.random.default_rng(1)
    g, R, pos = _random_graph(rng)
    path = tmp_path / "g.g2o"
    write_g2o(str(path), g, poses=(R, pos))
    g2, poses2 = load_g2o(str(path))
    assert poses2 is not None
    assert g2.n == g.n and g2.m == g.m
    assert np.array_equal(g.I, g2.I) and np.array_equal(g.J, g2.J)
    # translations and weights are stored directly and survive bit for bit
    assert np.array_equal(g.t_tilde, g2.t_tilde)
    assert np.array_equal(g.kappa, g2.kappa) and np.array_equal(g.tau, g2.tau)
    # rotations pass through a quaternion, so allow tiny drift
    for a, b in zip(g.R_tilde, g2.R_tilde):
        assert np.linalg.norm(a - b) < 1e-14
    assert np.abs(poses2[1] - pos).max() == 0.0


def test_g2o_vertex_only_file(tmp_path):
    rng = np.random.default_rng(2)
    mats = np.stack([random_rotation(3, rng) for _ in range(4)])
    pos = rng.standard_normal((4, 3))
    path = tmp_path / "poses.g2o"
    write_g2o(str(path), MeasurementGraph(3, 4), poses=(RotationState(mats), pos))
    g, poses = load_g2o(str(path))
    assert g.n == 4 and g.m == 0
    assert poses is not None


def test_g2o_parse_errors(tmp_path):
    p = tmp_path / "bad.g2o"
    p.write_text("EDGE_SE3:QUAT 0 1 oops\n")
    with pytest.raises(GraphError):
        load_g2o(str(p))
    p.write_text("")
    with pytest.raises(GraphError):
        load_g2o(str(p))
    # ids must be dense from zero
    p.write_text(
        "EDGE_SE2 0 2 0.0 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0\n"
    )
    with pytest.raises(GraphError):
        load_g2o(str(p))
    # a huge id is rejected without enumerating every id below it
    p.write_text("VERTEX_SE2 1000000000000 0.0 0.0 0.0\n")
    with pytest.raises(GraphError, match="not contiguous"):
        load_g2o(str(p))


@pytest.mark.parametrize("record", [
    "VERTEX_SE3:QUAT 1 0 0 0 0 0 0 0",
    "EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 0 " + " ".join(["1 0 0 0 0 0", "1 0 0 0 0", "1 0 0 0", "1 0 0", "1 0", "1"]),
])
def test_g2o_zero_quaternion_names_its_line(tmp_path, record):
    p = tmp_path / "zero.g2o"
    p.write_text("# two poses\nVERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n" + record + "\nVERTEX_SE3:QUAT 2 0 0 0 0 0 0 1\n")
    with pytest.raises(GraphError, match=r"^line 3: zero quaternion$"):
        load_g2o(str(p))


def test_g2o_last_record_of_a_vertex_wins(tmp_path):
    p = tmp_path / "repeat.g2o"
    p.write_text(
        "VERTEX_SE2 1 5.0 6.0 0.5\n"
        "VERTEX_SE2 0 1.0 2.0 0.1\n"
        "VERTEX_SE2 1 3.0 4.0 0.2\n"
    )
    _, (rots, ts) = load_g2o(str(p))
    assert ts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert rots.mats[1].tolist() == exp_map(np.array([0.2])).tolist()


def test_g2o_2d_records(tmp_path):
    p = tmp_path / "planar.g2o"
    p.write_text(
        "VERTEX_SE2 0 0.0 0.0 0.0\n"
        "VERTEX_SE2 1 1.0 0.0 0.3\n"
        "EDGE_SE2 0 1 1.0 0.0 0.3 2.0 0.0 0.0 2.0 0.0 4.0\n"
    )
    g, poses = load_g2o(str(p))
    assert g.d == 2 and g.n == 2 and g.m == 1
    assert abs(g.kappa[0] - 4.0) < 1e-15  # rotation information block
    assert abs(g.tau[0] - 2.0) < 1e-15  # translation information block
    th = 0.3
    assert np.allclose(
        g.R_tilde[0], [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    )
    assert poses is not None


def test_g2o_planar_rotation_of_angle_pi_round_trips(tmp_path):
    # the planar angle is always defined, so writing must not go through the near-pi guard of log_map
    p, q = tmp_path / "pi.g2o", tmp_path / "pi2.g2o"
    p.write_text("EDGE_SE2 0 1 1.0 0.0 3.141592653589793 2.0 0.0 0.0 2.0 0.0 4.0\n")
    g, _ = load_g2o(str(p))
    write_g2o(str(q), g)
    g2, _ = load_g2o(str(q))
    for name in ("I", "J", "R_tilde", "t_tilde", "kappa", "tau"):
        assert getattr(g2, name).tobytes() == getattr(g, name).tobytes(), name


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    g, R, pos = _random_graph(rng)
    p1, p2 = tmp_path / "a.g2o", tmp_path / "b.g2o"
    write_g2o(str(p1), g, poses=(R, pos))
    write_g2o(str(p2), g, poses=(R, pos))
    assert p1.read_bytes() == p2.read_bytes()


def test_partition_contiguous_bookkeeping():
    rng = np.random.default_rng(4)
    g, _, _ = _random_graph(rng, n=20)
    part = partition_contiguous(g, 3)
    assert part.m == 3
    sizes = [np.sum(part.owner == a) for a in range(3)]
    assert sum(sizes) == 20 and max(sizes) - min(sizes) <= 1
    for i, j in zip(g.I, g.J):
        if part.owner[i] != part.owner[j]:
            assert part.is_separator[i] and part.is_separator[j]
    for a in range(3):
        assert not np.any(part.is_separator[part.interiors[a]])
        assert np.all(part.owner[part.interiors[a]] == a)
    both = np.concatenate(part.interiors + [part.separators])
    assert np.array_equal(np.sort(both), np.arange(20))


def test_partition_single_robot():
    rng = np.random.default_rng(5)
    g, _, _ = _random_graph(rng, n=8)
    part = partition_contiguous(g, 1)
    assert part.separators.size == 0
    assert part.interiors[0].size == 8


def test_partition_from_owner_matches_contiguous():
    rng = np.random.default_rng(6)
    g, _, _ = _random_graph(rng, n=15)
    part = partition_contiguous(g, 4)
    rebuilt = Partition.from_owner(part.owner, g.pairs)
    assert np.array_equal(rebuilt.separators, part.separators)
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.interiors, part.interiors))


def test_synthetic_spec_validation():
    with pytest.raises(GraphError):
        SyntheticSpec(side=1)
    with pytest.raises(GraphError):
        SyntheticSpec(side=4, edge_prob=1.5)
    with pytest.raises(GraphError):
        SyntheticSpec(side=4, sigma_rot=-0.1)


@pytest.mark.parametrize("sigma_rot", [float("nan"), float("inf")])
def test_synthetic_spec_rejects_non_finite_noise(sigma_rot):
    with pytest.raises(GraphError, match="sigma_rot must be"):
        SyntheticSpec(side=4, sigma_rot=sigma_rot)


def test_generate_grid_shape_and_determinism():
    spec = SyntheticSpec(side=3, d=3, sigma_rot=0.05, edge_prob=0.4, seed=11)
    g1, truth1 = generate_grid(spec)
    g2, truth2 = generate_grid(spec)
    assert g1.n == 27
    assert g1.m >= 26  # at least the spanning tree
    assert g1.m == g2.m
    assert np.array_equal(truth1.mats, truth2.mats)
    assert np.array_equal(g1.I, g2.I) and np.array_equal(g1.J, g2.J)
    assert np.array_equal(g1.R_tilde, g2.R_tilde)
    g1.validate()


def test_generate_grid_edges_link_neighbors():
    spec = SyntheticSpec(side=3, d=3, sigma_rot=0.0, edge_prob=0.2, seed=1)
    g, _ = generate_grid(spec)
    pos = grid_positions(3, 3)
    for i, j in zip(g.I, g.J):
        assert np.abs(pos[i] - pos[j]).sum() == 1.0  # unit grid steps


def test_zero_noise_measurements_are_consistent():
    spec = SyntheticSpec(side=3, d=3, sigma_rot=0.0, edge_prob=0.3, seed=2)
    g, truth = generate_grid(spec)
    for i, j, R_tilde in zip(g.I, g.J, g.R_tilde):
        assert (
            np.linalg.norm(truth.mats[i].T @ truth.mats[j] - R_tilde) < 1e-12
        )


def test_spanning_tree_init_zero_noise_recovers_truth():
    spec = SyntheticSpec(side=3, d=3, sigma_rot=0.0, edge_prob=0.3, seed=3)
    g, truth = generate_grid(spec)
    R0 = spanning_tree_init(g)
    # both are anchored differently; compare relative rotations
    G = truth.mats[0] @ R0.mats[0].T
    for i in range(g.n):
        assert np.linalg.norm(G @ R0.mats[i] - truth.mats[i]) < 1e-10


def test_spanning_tree_init_noisy_is_valid():
    spec = SyntheticSpec(side=3, d=3, sigma_rot=0.2, edge_prob=0.5, seed=4)
    g, _ = generate_grid(spec)
    R0 = spanning_tree_init(g)
    R0.check_valid()
