import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from lapra import decomposition as dd
from lapra.decomposition import (
    BYTES_PER_SCALAR,
    CommsLedger,
    LedgerEvent,
    build_blocks,
    separator_rows_by_owner,
    solve as split_solve,
    sparsified_schur,
    split_setup,
)
from lapra.laplacians import (
    DEFAULT_OVERSAMPLING,
    WeightedGraph,
    check_epsilon,
    laplacian,
    schur_complement,
    solve_grounded,
    sparsify,
    upper_triangle_nnz,
)
from lapra.manifold import NumericalError, RotationState
from lapra.pose_graph import (
    MeasurementGraph,
    Partition,
    SyntheticSpec,
    generate_grid,
    partition_contiguous,
    spanning_tree_init,
)
from lapra.rotation import SolverConfig, collaborative_solve
from lapra.translation import assemble_translation_rhs, collaborative_translation_solve, translation_weights


def _instance(rng, n=40, m=3, p_edge=0.3):
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p_edge
    pairs |= {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
    pairs = sorted(pairs)
    g = WeightedGraph.from_edge_list(n, pairs, rng.uniform(0.5, 2.0, size=len(pairs)))
    owner = np.minimum(np.arange(n) * m // n, m - 1)
    part = Partition.from_owner(owner, pairs)
    return laplacian(g), part


def _feasible_rhs(rng, n, k=3):
    B = rng.standard_normal((n, k))
    return B - B.mean(axis=0)


def test_ledger_accounting():
    led = CommsLedger()
    led.record(0, "schur", 10)
    led.record(1, "schur", 5)
    led.begin_round()
    led.record(0, "rhs", 7)
    assert led.total_scalars() == 22
    assert led.total_bytes() == 22 * BYTES_PER_SCALAR
    assert led.bytes_by_kind("schur") == 15 * BYTES_PER_SCALAR
    assert led.events == [LedgerEvent(0, 0, "schur", 10), LedgerEvent(0, 1, "schur", 5), LedgerEvent(1, 0, "rhs", 7)]


def test_ledger_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=r"^unknown event kind 'dot'$"):
        CommsLedger().record(0, "dot", 1)


def test_build_blocks_shapes():
    rng = np.random.default_rng(0)
    L, part = _instance(rng)
    blocks, server = build_blocks(L, part)
    assert len(blocks) == part.m
    nc = part.separators.size
    for b in blocks:
        assert b.L_ac.shape == (b.interior.size, nc)
    assert server.L_Gc.shape == (nc, nc)


def test_schur_split_identity():
    # robot contributions plus the cross-edge part recover the full
    # complement onto the separators
    rng = np.random.default_rng(1)
    for _ in range(10):
        L, part = _instance(rng, n=30, m=int(rng.choice([2, 3, 5])))
        blocks, server = build_blocks(L, part)
        S = server.L_Gc.toarray().copy()
        for b in blocks:
            S += b.schur_contribution().toarray()
        interior_all = np.concatenate([b.interior for b in blocks])
        S_direct = schur_complement(L, interior_all).toarray()
        denom = max(1.0, np.abs(S_direct).max())
        assert np.abs(S - S_direct).max() / denom < 1e-9


def test_split_solve_exact_matches_grounded():
    rng = np.random.default_rng(2)
    L, part = _instance(rng)
    blocks, server = build_blocks(L, part)
    sparsified_schur(blocks, server)
    B = _feasible_rhs(rng, L.shape[0])
    X = split_solve(blocks, server, B)
    X_ref = solve_grounded(L, B)
    # both satisfy the singular system; difference is a constant shift
    D = X - X_ref
    assert np.abs(D - D.mean(axis=0)).max() < 1e-9
    assert np.abs(L @ X - B).max() < 1e-9


def test_split_solve_single_robot():
    rng = np.random.default_rng(3)
    L, part = _instance(rng, m=1)
    assert part.separators.size == 0
    solve, ledger, _ = split_setup(L, part, 0.5, 0, "spectral", DEFAULT_OVERSAMPLING, np.zeros(1, dtype=int))
    B = _feasible_rhs(rng, L.shape[0])
    ledger.begin_round()
    X = solve(B.copy())
    assert np.abs(X - solve_grounded(L, B)).max() < 1e-10
    # nothing leaves the single robot: one zero-byte row per kind
    assert [(e.round, e.kind, e.scalars) for e in ledger.events] == [(0, "schur", 0), (1, "partial_grad", 0),
                                                                      (1, "rhs", 0)]


@pytest.mark.parametrize("big", [1e3, 1e4])
def test_widely_weighted_path_solves_through_both_paths(big):
    # weights alternating 1/big and big: cond(L) ~ big^2, yet both solves
    # are backward stable, so the residual checks must let them through
    n = 16
    pairs = [(i, i + 1) for i in range(n - 1)]
    g = WeightedGraph.from_edge_list(n, pairs, np.where(np.arange(n - 1) % 2 == 0, 1.0 / big, big))
    L = laplacian(g)
    B = _feasible_rhs(np.random.default_rng(0), n)
    X = solve_grounded(L, B)
    blocks, server = build_blocks(L, Partition.from_owner(np.arange(n) * 2 // n, pairs))
    sparsified_schur(blocks, server)
    Y = split_solve(blocks, server, B)
    Y -= Y.mean(axis=0)  # split_solve centres only the separator rows
    norm_L = np.linalg.norm(L.toarray())
    for Z in (X, Y):
        assert np.linalg.norm(L @ Z - B) <= 1e-14 * (norm_L * np.linalg.norm(Z) + np.linalg.norm(B))
    assert np.abs(Y - X).max() <= 1e-5 * np.abs(X).max()


def test_split_solve_rejects_infeasible():
    rng = np.random.default_rng(4)
    L, part = _instance(rng)
    blocks, server = build_blocks(L, part)
    sparsified_schur(blocks, server)
    with pytest.raises(NumericalError):
        split_solve(blocks, server, np.ones((L.shape[0], 1)))


def test_build_blocks_rejects_a_partition_of_another_size():
    rng = np.random.default_rng(4)
    L, _ = _instance(rng, n=30)
    _, part = _instance(rng, n=40)
    with pytest.raises(ValueError, match=r"^partition size does not match matrix$"):
        build_blocks(L, part)


def test_split_solve_rejects_a_wrong_row_count_and_an_unfactored_server():
    rng = np.random.default_rng(4)
    L, part = _instance(rng)
    blocks, server = build_blocks(L, part)
    B = _feasible_rhs(rng, L.shape[0])
    with pytest.raises(RuntimeError, match=r"^call sparsified_schur before solve$"):
        split_solve(blocks, server, B)
    sparsified_schur(blocks, server)
    with pytest.raises(ValueError, match=r"^rhs size does not match system$"):
        split_solve(blocks, server, B[1:] - B[1:].mean(axis=0))


@pytest.mark.parametrize("robots", [1, 3, 40])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_split_solve_takes_a_1d_rhs_as_its_column(robots, epsilon):
    """A 1-D b gives a 1-D x equal bit for bit to the solve of b as one column."""
    rng = np.random.default_rng(robots)
    L, part = _instance(rng, m=robots)
    blocks, server = build_blocks(L, part, epsilon, oversampling=0.5)
    sparsified_schur(blocks, server)
    b = _feasible_rhs(rng, L.shape[0], k=1)[:, 0]
    x = split_solve(blocks, server, b)
    assert x.shape == b.shape
    assert x.tobytes() == split_solve(blocks, server, b[:, None])[:, 0].tobytes()


def test_detached_interior_raises():
    # robot 0 owns a component that never touches its separator set
    pairs = [(0, 1), (2, 3), (3, 4), (2, 4)]
    g = WeightedGraph.from_edge_list(5, pairs, np.ones(4))
    owner = np.array([0, 0, 1, 1, 1])
    part = Partition.from_owner(owner, pairs)
    with pytest.raises(NumericalError):
        build_blocks(laplacian(g), part)


def test_partition_edge_cases_raise_before_any_solve():
    # one robot of two owning every vertex leaves no separators, so its
    # interior has nothing to ground against
    rng = np.random.default_rng(5)
    L, _ = _instance(rng, m=1)
    n = L.shape[0]
    pairs = np.argwhere(sp.triu(L, k=1).toarray() != 0)
    owned_by_one = Partition.from_owner(np.ones(n, dtype=int), pairs)
    assert owned_by_one.m == 2 and owned_by_one.separators.size == 0
    with pytest.raises(NumericalError, match=r"^robot 1 interior block is singular"):
        build_blocks(L, owned_by_one)
    # a single robot on a disconnected Laplacian
    L2 = sp.block_diag([L, L], format="csr")
    single = Partition.from_owner(np.zeros(2 * n, dtype=int), np.concatenate([pairs, pairs + n]))
    with pytest.raises(NumericalError, match=r"^grounded Laplacian is singular \(graph disconnected\)$"):
        build_blocks(L2, single)


# two disjoint copies of a 6-vertex path with chords (0, 2) and (1, 4)
_PATH = [(i, i + 1) for i in range(5)] + [(0, 2), (1, 4)]
_TWO_PATHS = np.array(_PATH + [(a + 6, b + 6) for a, b in _PATH])
_OWNERS = {1: [0] * 12, 2: [0, 0, 0, 1, 1, 1] * 2, 3: [0, 0, 1, 1, 2, 2] * 2}


@pytest.mark.parametrize("robots", [1, 2, 3])
def test_disconnected_graph_fails_on_every_partition(robots):
    # with several robots the reduced system is disconnected too; on this weight draw its grounded
    # factor does not fail, and without the connectivity check the split solve returned an X whose
    # residual L X - B was as large as B
    rng = np.random.default_rng(0)
    w = 10.0 ** rng.uniform(-3, 3, len(_TWO_PATHS))
    L = laplacian(WeightedGraph.from_edge_list(12, _TWO_PATHS, w))
    B = _feasible_rhs(rng, 12, k=2)
    part = Partition.from_owner(np.array(_OWNERS[robots]), _TWO_PATHS)
    with pytest.raises(NumericalError, match=r"^grounded Laplacian is singular \(graph disconnected\)$"):
        blocks, server = build_blocks(L, part)
        sparsified_schur(blocks, server)
        split_solve(blocks, server, B)
    m = len(_TWO_PATHS)
    g = MeasurementGraph(2, 12, *_TWO_PATHS.T, np.broadcast_to(np.eye(2), (m, 2, 2)), rng.standard_normal((m, 2)),
                         np.ones(m), w)
    R_hat = RotationState(np.broadcast_to(np.eye(2), (12, 2, 2)).copy())
    with pytest.raises(NumericalError, match=r"^grounded Laplacian is singular \(graph disconnected\)$"):
        collaborative_translation_solve(g, part, R_hat, SolverConfig(grad_tol=1e-10, max_iters=20))


def test_separator_rows_by_owner_counts():
    # path 0-1-2-3 split in the middle: edge (1,2) crosses, vertices 1 and 2
    # are separators. Robot 0 holds edges (0,1) and (1,2), robot 1 holds (2,3).
    eye = np.stack([np.eye(3)] * 3)
    g = MeasurementGraph(3, 4, [0, 1, 2], [1, 2, 3], eye, np.zeros((3, 3)), np.ones(3), np.ones(3))
    part = partition_contiguous(g, 2)
    counts = separator_rows_by_owner(g, part)
    assert counts.tolist() == [2, 1]


def test_split_setup_meters_schur_uploads():
    rng = np.random.default_rng(5)
    L, part = _instance(rng, n=60, m=3, p_edge=0.5)
    _, ledger, split = split_setup(L, part, 0.0, 0, "spectral", DEFAULT_OVERSAMPLING, np.zeros(part.m, dtype=int))
    expect = sum(upper_triangle_nnz(b.S_tilde) for b in split.blocks)
    assert expect > 0
    assert ledger.total_scalars() == expect
    assert all(ev.kind == "schur" and ev.round == 0 for ev in ledger.events)
    assert ledger.total_bytes() == expect * BYTES_PER_SCALAR


def test_split_setup_solve_meters_rhs_per_adjacent_separator():
    rng = np.random.default_rng(6)
    L, part = _instance(rng, n=60, m=3, p_edge=0.08)
    solve, ledger, split = split_setup(L, part, 0.0, 0, "spectral", DEFAULT_OVERSAMPLING, np.zeros(part.m, dtype=int))
    ledger.begin_round()
    solve(_feasible_rhs(rng, L.shape[0], k=2))
    # each robot uploads one reduced right-hand-side row per separator its
    # interior touches, for each of the k=2 columns
    expect = []
    for b in split.blocks:
        touched = np.unique(sp.csc_matrix(b.L_ac).nonzero()[1])
        assert int(b.adj_sep.sum()) == touched.size
        expect.append(touched.size * 2)
    assert sum(expect) > 0
    assert [(e.round, e.robot, e.scalars) for e in ledger.events if e.kind == "rhs"] == [
        (1, a, s) for a, s in enumerate(expect)
    ]


def _flip_every_other_edge(g):
    """The same problem with every other edge measured from its other end, so those edges have I > J."""
    flip = np.arange(len(g.I)) % 2 == 1
    Rt = np.swapaxes(g.R_tilde, 1, 2)
    return dataclasses.replace(
        g, I=np.where(flip, g.J, g.I), J=np.where(flip, g.I, g.J),
        R_tilde=np.where(flip[:, None, None], Rt, g.R_tilde),
        t_tilde=np.where(flip[:, None], -(Rt @ g.t_tilde[:, :, None])[:, :, 0], g.t_tilde),
    )


def _held_separator_rows(g, part):
    """Per robot, the separators that the edges it holds (those whose I end it owns) touch, by a loop."""
    pairs = {(part.owner[i], v) for i, j in zip(g.I, g.J) for v in (i, j) if part.is_separator[v]}
    return [sum(r == a for r, _ in pairs) for a in range(part.m)]


@pytest.mark.parametrize("robots", [1, 3, "n"])
@pytest.mark.parametrize("stage", ["rotation", "translation"])
def test_split_stage_rounds_meter_schur_then_partial_grad_then_rhs(stage, robots):
    """Round 0 holds each robot's schur block; every later round each robot's partials, then each one's rhs."""
    g0, truth = generate_grid(SyntheticSpec(side=3, sigma_rot=np.deg2rad(5.0), edge_prob=0.5, seed=4))
    g = _flip_every_other_edge(g0)
    part = partition_contiguous(g, g.n if robots == "n" else robots)
    rows = _held_separator_rows(g, part)
    if part.m > 1:  # held rows depend on edge orientation, and the flipped graph has cross edges with I > J
        assert np.any((part.owner[g.I] != part.owner[g.J]) & (g.I > g.J))
        assert rows != _held_separator_rows(g0, part)
    config = SolverConfig(epsilon=0.5, max_iters=4, grad_tol=0.0)
    if stage == "rotation":
        _, trace = collaborative_solve(g, part, spanning_tree_init(g), config, oversampling=0.2)
        k = g.p
    else:
        _, trace = collaborative_translation_solve(g, part, truth, config, oversampling=0.2)
        k = g.d
    ledger, blocks = trace.ledger, trace.split.blocks
    assert ledger.current_round == trace.iterations == 4
    events = [[(e.kind, e.robot, e.scalars) for e in ledger.events if e.round == r] for r in range(5)]
    assert events[0] == [("schur", a, upper_triangle_nnz(b.S_tilde)) for a, b in enumerate(blocks)]
    step = ([("partial_grad", a, rows[a] * k) for a in range(part.m)]
            + [("rhs", a, int(b.adj_sep.sum()) * k) for a, b in enumerate(blocks)])
    assert events[1:] == [step] * 4


def test_build_blocks_draws_robot_a_from_the_a_th_spawned_generator():
    """Each robot's compressed block depends only on its own spawned generator, so robot order cannot move it."""
    rng = np.random.default_rng(7)
    L, part = _instance(rng, n=70, m=4, p_edge=0.6)
    blocks, _ = build_blocks(L, part, 1.0, 9, oversampling=0.5)
    sampled = 0
    for blk, robot_rng in zip(blocks, np.random.default_rng(9).spawn(part.m)):
        S = blk.schur_contribution()
        expect = sparsify(S, 1.0, robot_rng, oversampling=0.5)
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(blk.S_tilde, key), getattr(expect, key))
        sampled += upper_triangle_nnz(expect) < upper_triangle_nnz(S)
    assert sampled > 0  # at least one robot really sampled, so the generators mattered


def test_sparsified_schur_heuristic_modes_run():
    rng = np.random.default_rng(8)
    L, part = _instance(rng, n=40, m=3, p_edge=0.5)
    B = _feasible_rhs(rng, 40)
    for mode in ("block_diagonal", "tree"):
        blocks, server = build_blocks(L, part, 0.5, mode=mode)
        sparsified_schur(blocks, server)
        X = split_solve(blocks, server, B)
        assert np.all(np.isfinite(X))


@pytest.mark.parametrize("robots", [1, 3])
def test_build_blocks_rejects_an_unknown_mode_before_any_factorization(monkeypatch, robots):
    L, part = _instance(np.random.default_rng(8), n=40, m=robots, p_edge=0.5)

    def no_factor(*args):
        raise AssertionError("factored before the mode check")

    monkeypatch.setattr(dd, "spd_factor", no_factor)
    monkeypatch.setattr(dd, "grounded_solver", no_factor)
    with pytest.raises(ValueError, match=r"^mode must be one of \('spectral', 'block_diagonal', 'tree'\)$"):
        build_blocks(L, part, 0.5, mode="bogus")


@pytest.mark.parametrize("robots", [1, 3, 70])
@pytest.mark.parametrize("epsilon, mode", [(0.0, "spectral"), (0.5, "spectral"), (0.5, "block_diagonal"),
                                           (0.5, "tree")])
def test_a_fresh_split_is_build_blocks_of_its_inputs(robots, epsilon, mode):
    """split_setup's fresh robot side is build_blocks(L, partition, *inputs), bit for bit."""
    L, part = _instance(np.random.default_rng(7), n=70, m=robots, p_edge=0.6)
    _, _, split = split_setup(L, part, epsilon, 9, mode, 0.2, np.zeros(robots, dtype=int))
    assert split.inputs == (epsilon, 9, mode, 0.2)
    blocks, _ = build_blocks(L, part, *split.inputs)
    assert len(split.blocks) == len(blocks) == robots
    for got, want in zip(split.blocks, blocks):
        for key in ("indptr", "indices", "data"):
            assert getattr(got.S_tilde, key).tobytes() == getattr(want.S_tilde, key).tobytes()
        assert got.coupling.shape == want.coupling.shape
        assert got.coupling.tobytes() == want.coupling.tobytes()
    if (robots, epsilon, mode) == (3, 0.5, "spectral"):  # every robot really sampled, so the seed mattered
        assert all(upper_triangle_nnz(b.S_tilde) < upper_triangle_nnz(b.schur_contribution()) for b in blocks)


def test_compressed_reduced_system_quality():
    rng = np.random.default_rng(9)
    L, part = _instance(rng, n=90, m=3, p_edge=0.8)
    blocks, server = build_blocks(L, part, 1.0, 2, oversampling=0.7)
    sparsified_schur(blocks, server)
    interior_all = np.concatenate([b.interior for b in blocks])
    S_exact = schur_complement(L, interior_all)
    rep = check_epsilon(server.S_tilde, S_exact)
    assert rep.kernel_match


@pytest.mark.parametrize("robots", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_split_solve_rejects_a_non_finite_rhs_before_any_solve(monkeypatch, robots, bad):
    # a NaN row used to reach the interior solves and fail as "robot 0 interior solve residual nan"
    rng = np.random.default_rng(11)
    L, part = _instance(rng, n=40, m=robots)
    blocks, server = build_blocks(L, part)
    sparsified_schur(blocks, server)
    B = _feasible_rhs(rng, L.shape[0])
    B[0, 0] = bad

    def no_solve(*args):
        raise AssertionError("solved with a non-finite rhs")

    for blk in blocks:
        monkeypatch.setattr(blk, "interior_solve", no_solve)
    monkeypatch.setattr(server, "reduced_solve", no_solve)
    with pytest.raises(NumericalError, match=r"^rhs has a non-finite entry$"):
        split_solve(blocks, server, B)


def test_uniform_shift_in_separator_solution_propagates(monkeypatch):
    # L_aa 1 + L_ac 1 = 0, so each robot's coupling maps the all-ones
    # separator vector to -1: shifting the reduced solution by a constant
    # shifts every interior's back-substitution by the same constant
    rng = np.random.default_rng(10)
    L, part = _instance(rng, n=60, m=2, p_edge=0.08)
    blocks, server = build_blocks(L, part)
    sparsified_schur(blocks, server)
    assert all(b.interior.size > 0 for b in blocks)
    for b in blocks:
        assert np.abs(b.coupling @ np.ones(b.coupling.shape[1]) + 1.0).max() < 1e-9
    B = _feasible_rhs(rng, L.shape[0])
    X1 = split_solve(blocks, server, B)
    reduced_solve = server.reduced_solve
    monkeypatch.setattr(server, "reduced_solve", lambda U: reduced_solve(U) + 5.0)
    X2 = split_solve(blocks, server, B)
    assert np.abs((X2 - X1) - 5.0).max() < 1e-9


def _two_solve_reference(blocks, server, B):
    """The split solve with a second interior solve for the back-substitution, X_a = Y - L_aa⁻¹ L_ac X_c."""
    C = server.separators
    Ys = [b.interior_solve(B[b.interior]) for b in blocks]
    X_c = server.reduced_solve(B[C] - sum(b.L_acT @ Y for b, Y in zip(blocks, Ys)))
    X = np.zeros(B.shape)
    X[C] = X_c
    for b, Y in zip(blocks, Ys):
        X[b.interior] = Y - b.interior_solve(b.L_ac @ X_c)
    return X


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("robots", [1, 3, "n"])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_back_substitution_through_the_coupling_matches_a_second_interior_solve(d, robots, epsilon):
    """X_a = Y - Z_a X_c[adj_sep] equals Y - L_aa⁻¹ (L_ac X_c), and the interior rows of L X = B hold."""
    g, truth = generate_grid(SyntheticSpec(side=5, d=d, sigma_rot=0.1, edge_prob=0.3, seed=d))
    part = partition_contiguous(g, g.n if robots == "n" else robots)
    L = laplacian(translation_weights(g))
    B = assemble_translation_rhs(g, truth)
    blocks, server = build_blocks(L, part, epsilon, oversampling=0.5)
    sparsified_schur(blocks, server)
    X = split_solve(blocks, server, B)
    X_ref = _two_solve_reference(blocks, server, B)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
    R = L @ X - B
    interior = np.concatenate([b.interior for b in blocks])
    assert np.linalg.norm(R[interior]) <= 1e-9 * np.linalg.norm(B)
    if epsilon == 0.0:  # the exact reduced system solves every row
        assert np.linalg.norm(R) <= 1e-9 * np.linalg.norm(B)


@pytest.mark.parametrize("robots", [1, 3, "n"])
def test_split_solve_makes_one_interior_solve_per_robot(monkeypatch, robots):
    """The back-substitution reuses the elimination's coupling instead of solving the interior again."""
    g, truth = generate_grid(SyntheticSpec(side=4, sigma_rot=0.1, seed=2))
    part = partition_contiguous(g, g.n if robots == "n" else robots)
    blocks, server = build_blocks(laplacian(translation_weights(g)), part, 0.5, oversampling=0.5)
    sparsified_schur(blocks, server)
    calls = [0] * len(blocks)
    interior_solve = dd.RobotBlock.interior_solve

    def spy(blk, rhs):
        calls[next(a for a, b in enumerate(blocks) if b is blk)] += 1
        return interior_solve(blk, rhs)

    monkeypatch.setattr(dd.RobotBlock, "interior_solve", spy)
    split_solve(blocks, server, assemble_translation_rhs(g, truth))
    assert calls == [1] * len(blocks)
