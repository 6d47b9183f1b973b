import csv
import gc
import json
import weakref

import numpy as np
import pytest

from lapra import cli, decomposition
from lapra.cli import main
from lapra.manifold import RotationState
from lapra.pose_graph import MeasurementGraph, load_g2o, partition_contiguous, spanning_tree_init, write_g2o
from lapra.rotation import SolverConfig, collaborative_solve
from lapra.translation import collaborative_translation_solve


def _synth(tmp_path, name="prob", side=4, sigma=5.0, seed=9, edge_prob=0.3):
    prefix = str(tmp_path / name)
    rc = main(
        [
            "synth",
            "--side",
            str(side),
            "--sigma-deg",
            str(sigma),
            "--edge-prob",
            str(edge_prob),
            "--seed",
            str(seed),
            "--out",
            prefix,
        ]
    )
    assert rc == 0
    return prefix + ".g2o", prefix + "_truth.g2o"


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def test_synth_is_deterministic_and_well_formed(tmp_path):
    a_graph, a_truth = _synth(tmp_path, "a")
    b_graph, b_truth = _synth(tmp_path, "b")
    assert open(a_graph).read() == open(b_graph).read()
    assert open(a_truth).read() == open(b_truth).read()
    g, poses = load_g2o(a_graph)
    assert (g.n, g.m) == (64, 93)
    assert poses is None
    gt, truth_poses = load_g2o(a_truth)
    assert gt.n == 64 and gt.m == 0
    assert truth_poses is not None
    assert truth_poses[0].n == 64
    assert truth_poses[1].shape == (64, 3)


def test_solve_rotation_report_and_artifacts(tmp_path):
    graph, truth = _synth(tmp_path)
    report = tmp_path / "rot.json"
    trace = tmp_path / "rot_trace.csv"
    ledger = tmp_path / "rot_ledger.csv"
    rc = main(
        [
            "solve-rotation",
            "--input",
            graph,
            "--robots",
            "3",
            "--epsilon",
            "0.5",
            "--seed",
            "0",
            "--truth",
            truth,
            "--report",
            str(report),
            "--trace",
            str(trace),
            "--ledger",
            str(ledger),
        ]
    )
    assert rc == 0
    rep = _report(report)
    assert rep["command"] == "solve-rotation"
    final = rep["final"]
    assert final["converged"] is True
    assert final["grad_norm"] <= 1e-5
    assert 0.0 < final["rotation_rmse_deg"] < 15.0
    assert final["total_upload_bytes"] == rep["trace"][-1]["cum_upload_bytes"]
    assert len(rep["trace"]) == final["iterations"] + 1
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,grad_norm,cost,cum_upload_bytes"
    assert len(lines) == len(rep["trace"]) + 1
    led = ledger.read_text().strip().split("\n")
    assert led[0] == "round,robot,kind,scalars,bytes"
    assert len(led) > 1


def test_reports_deterministic_modulo_wall_time(tmp_path):
    graph, _ = _synth(tmp_path)
    reps = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        rc = main(
            ["solve-rotation", "--input", graph, "--robots", "3",
             "--epsilon", "0.5", "--seed", "0", "--report", str(path)]
        )
        assert rc == 0
        rep = _report(path)
        rep["final"].pop("wall_time_sec")
        reps.append(rep)
    assert reps[0] == reps[1]


def test_translation_flow_through_saved_rotations(tmp_path):
    graph, truth = _synth(tmp_path)
    rots = tmp_path / "rots.g2o"
    rc = main(
        ["solve-rotation", "--input", graph, "--robots", "2", "--seed", "0",
         "--save-rotations", str(rots), "--report", str(tmp_path / "unused.json")]
    )
    assert rc == 0
    report = tmp_path / "tr.json"
    rc = main(
        [
            "solve-translation",
            "--input",
            graph,
            "--rotations",
            str(rots),
            "--robots",
            "2",
            "--epsilon",
            "0",
            "--seed",
            "0",
            "--truth",
            truth,
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    rep = _report(report)
    final = rep["final"]
    assert final["converged"] is True
    # exact reduced system solves the linear problem in a single sweep
    assert final["iterations"] == 1
    assert "translation_rmse" in final
    assert final["total_upload_bytes"] > 0


def test_translation_without_rotation_source_fails(tmp_path):
    graph, _ = _synth(tmp_path)
    rc = main(["solve-translation", "--input", graph, "--report", str(tmp_path / "x.json")])
    assert rc == 2


def test_translation_reads_rotations_from_the_input_vertices(tmp_path):
    """Without --rotations, a g2o file holding vertices and edges solves against its own vertices."""
    graph, truth = _synth(tmp_path, side=3)
    both = tmp_path / "both.g2o"
    both.write_text(open(truth).read() + open(graph).read())
    finals = []
    for name, args in (("given", ["--input", graph, "--rotations", truth]), ("own", ["--input", str(both)])):
        report, ledger = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        rc = main(["solve-translation", *args, "--robots", "2", "--epsilon", "0.5", "--truth", truth,
                   "--report", str(report), "--ledger", str(ledger)])
        assert rc == 0
        rep = _report(report)
        rep["final"].pop("wall_time_sec")
        assert (rep["config"].pop("input"), rep["config"].pop("rotations")) == (
            (graph, truth) if name == "given" else (str(both), None))
        finals.append((rep, ledger.read_text()))
    assert finals[0] == finals[1]


@pytest.mark.parametrize("flag, message", [("--input", "file has no measurement edges"),
                                           ("--rotations", "file has no complete vertex set")])
def test_exit_code_on_a_file_without_the_records_its_flag_needs(tmp_path, capsys, flag, message):
    """The truth file has vertices and no edges; the measurement file has edges and no vertices."""
    graph, truth = _synth(tmp_path, side=3)
    bad = truth if flag == "--input" else graph
    files = {"--input": graph, "--rotations": truth, flag: bad}
    capsys.readouterr()
    rc = main(["solve-translation", "--input", files["--input"], "--rotations", files["--rotations"]])
    assert rc == 2
    assert capsys.readouterr().err == f"lapra: error: {bad}: {message}\n"


def test_pipeline_zero_noise_recovers_reference(tmp_path):
    graph, truth = _synth(tmp_path, "exact", sigma=0.0)
    report = tmp_path / "pipe.json"
    poses = tmp_path / "poses.g2o"
    rc = main(
        [
            "pipeline",
            "--input",
            graph,
            "--robots",
            "3",
            "--seed",
            "0",
            "--reference",
            truth,
            "--report",
            str(report),
            "--save-poses",
            str(poses),
        ]
    )
    assert rc == 0
    rep = _report(report)
    final = rep["final"]
    # exact measurements: the spanning-tree initialization is already optimal
    assert final["rotation_iterations"] == 0
    assert final["rotation_rmse_deg"] < 1e-5
    assert final["translation_rmse"] < 1e-9
    assert final["translation_converged"] is True
    _, saved = load_g2o(str(poses))
    assert saved is not None and saved[0].n == 64


def test_pipeline_writes_staged_trace_and_ledger(tmp_path):
    graph, _ = _synth(tmp_path, side=3)
    report, trace, ledger = (tmp_path / f for f in ("pipe.json", "trace.csv", "ledger.csv"))
    rc = main(["pipeline", "--input", graph, "--robots", "2", "--seed", "0", "--report", str(report),
               "--trace", str(trace), "--ledger", str(ledger)])
    assert rc == 0
    final = _report(report)["final"]
    with open(trace) as fh:
        trace_rows = list(csv.DictReader(fh))
    with open(ledger) as fh:
        ledger_rows = list(csv.DictReader(fh))
    assert list(trace_rows[0]) == ["stage", "iter", "grad_norm", "cost", "cum_upload_bytes"]
    assert list(ledger_rows[0]) == ["stage", "round", "robot", "kind", "scalars", "bytes"]
    for stage in ("rotation", "translation"):
        rows = [r for r in trace_rows if r["stage"] == stage]
        assert len(rows) == final[f"{stage}_iterations"] + 1
        assert [int(r["iter"]) for r in rows] == list(range(len(rows)))
    assert {r["stage"] for r in ledger_rows} == {"rotation", "translation"}
    assert sum(int(r["bytes"]) for r in ledger_rows) == final["total_upload_bytes"]


@pytest.mark.parametrize(
    "command, save_flag",
    [("solve-rotation", "--save-rotations"), ("solve-translation", "--save-positions"), ("pipeline", "--save-poses")],
)
def test_solve_command_artifacts_match_the_report_and_the_solve(tmp_path, command, save_flag):
    """One-stage CSVs have no stage column and the pipeline's lead with one; --save-* holds the solved poses."""
    graph, truth = _synth(tmp_path, side=3)
    report, trace, ledger, saved = (tmp_path / f for f in ("rep.json", "trace.csv", "ledger.csv", "saved.g2o"))
    rotations = ["--rotations", truth] if command == "solve-translation" else []
    rc = main([command, "--input", graph, *rotations, "--robots", "2", "--epsilon", "0.5", "--seed", "0",
               "--report", str(report), "--trace", str(trace), "--ledger", str(ledger), save_flag, str(saved)])
    assert rc == 0
    rep = _report(report)
    # only the pipeline has a split to hand on; geodesic unit weights make its two Laplacians equal
    assert rep["final"].get("translation_split_reused") is (True if command == "pipeline" else None)
    stages = ["rotation", "translation"] if command == "pipeline" else [command.removeprefix("solve-")]
    staged = ["stage"] if command == "pipeline" else []
    with open(trace) as fh:
        reader = csv.DictReader(fh)
        trace_rows = list(reader)
    assert reader.fieldnames == staged + ["iter", "grad_norm", "cost", "cum_upload_bytes"]
    with open(ledger) as fh:
        reader = csv.DictReader(fh)
        ledger_rows = list(reader)
    assert reader.fieldnames == staged + ["round", "robot", "kind", "scalars", "bytes"]
    assert sum(int(r["bytes"]) for r in ledger_rows) == rep["final"]["total_upload_bytes"] > 0
    for stage in stages:
        rows = [r for r in trace_rows if r.get("stage", stage) == stage]
        parsed = [{"iter": int(r["iter"]), "grad_norm": float(r["grad_norm"]), "cost": float(r["cost"]),
                   "cum_upload_bytes": int(r["cum_upload_bytes"])} for r in rows]
        assert parsed == rep[f"{stage}_trace" if staged else "trace"]

    g, _ = load_g2o(graph)
    _, (R, _) = load_g2o(truth)
    t = np.zeros((g.n, g.d))
    partition = partition_contiguous(g, 2)
    if "rotation" in stages:
        R, _ = collaborative_solve(g, partition, spanning_tree_init(g), SolverConfig(epsilon=0.5))
    if "translation" in stages:
        t, _ = collaborative_translation_solve(g, partition, R, SolverConfig(epsilon=0.5, grad_tol=1e-10))
    _, (R_saved, t_saved) = load_g2o(str(saved))
    np.testing.assert_allclose(R_saved.mats, R.mats, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t_saved, t, rtol=0, atol=1e-12)


@pytest.mark.parametrize("command", ["solve-rotation", "solve-translation", "pipeline"])
def test_solve_command_csv_text_is_the_report_trace_and_the_metered_bytes(tmp_path, command):
    """Each trace field is repr of the report's trace row; each ledger row's bytes are 8 per scalar, and each
    stage's add up to what its trace uploaded. Lines end in a bare newline and nothing is quoted."""
    graph, truth = _synth(tmp_path, side=3)
    report, trace, ledger = (tmp_path / f for f in ("rep.json", "trace.csv", "ledger.csv"))
    rotations = ["--rotations", truth] if command == "solve-translation" else []
    rc = main([command, "--input", graph, *rotations, "--robots", "3", "--epsilon", "0.5", "--oversampling", "0.05",
               "--seed", "0", "--report", str(report), "--trace", str(trace), "--ledger", str(ledger)])
    assert rc == 0
    rep = _report(report)
    staged = command == "pipeline"
    stages = ["rotation", "translation"] if staged else [command.removeprefix("solve-")]
    traces = {stage: rep[f"{stage}_trace" if staged else "trace"] for stage in stages}
    lead = (lambda stage: [stage]) if staged else (lambda stage: [])
    fields = ["iter", "grad_norm", "cost", "cum_upload_bytes"]
    lines = [lead("stage") + fields]
    lines += [lead(stage) + [repr(row[f]) for f in fields] for stage in stages for row in traces[stage]]
    assert trace.read_bytes() == "".join(",".join(line) + "\n" for line in lines).encode()

    with open(ledger, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert ledger.read_bytes() == "".join(",".join(line) + "\n" for line in [header, *rows]).encode()
    assert header == lead("stage") + ["round", "robot", "kind", "scalars", "bytes"]
    assert rows and all(int(r[-1]) == 8 * int(r[-2]) for r in rows)
    for stage in stages:
        stage_bytes = sum(int(r[-1]) for r in rows if r[:len(lead(stage))] == lead(stage))
        assert stage_bytes == traces[stage][-1]["cum_upload_bytes"] > 0
    assert sum(int(r[-1]) for r in rows) == rep["final"]["total_upload_bytes"]


@pytest.mark.parametrize("flags", [["--distance", "chordal"], ["--method", "block-tree"], ["--method", "newton"]])
def test_pipeline_sets_up_translation_anew_when_the_split_differs(tmp_path, flags):
    """Chordal weights double the rotation Laplacian, block-tree compresses differently and Newton has no split."""
    graph, _ = _synth(tmp_path, side=3)
    report = tmp_path / "pipe.json"
    rc = main(["pipeline", "--input", graph, "--robots", "2", "--epsilon", "0.5", *flags, "--report", str(report)])
    assert rc == 0
    assert _report(report)["final"]["translation_split_reused"] is False


@pytest.mark.parametrize("distance, reused", [("chordal", False), ("geodesic", True)])
def test_pipeline_lets_go_of_a_rotation_split_it_cannot_reuse(tmp_path, monkeypatch, distance, reused):
    """Chordal weights make the translation stage set up anew, and by then the rotation split is freed."""
    graph, _ = _synth(tmp_path, side=3)
    refs, alive_at_build = [], []

    def rotation_stage(*args, **kwargs):
        R, trace = collaborative_solve(*args, **kwargs)
        refs.extend([weakref.ref(trace.split), weakref.ref(trace.split.blocks[0])])
        return R, trace

    def build_blocks(*args, _original=decomposition.build_blocks, **kwargs):
        alive_at_build.append([ref() is not None for ref in refs])
        return _original(*args, **kwargs)

    monkeypatch.setattr(cli, "collaborative_solve", rotation_stage)
    monkeypatch.setattr(decomposition, "build_blocks", build_blocks)
    report = tmp_path / "pipe.json"
    gc.disable()  # the split must die by reference counting, not wait for a collection
    try:
        rc = main(["pipeline", "--input", graph, "--robots", "2", "--epsilon", "0.5", "--distance", distance,
                   "--report", str(report)])
    finally:
        gc.enable()
    assert rc == 0
    assert _report(report)["final"]["translation_split_reused"] is reused
    assert alive_at_build == ([[]] if reused else [[], [False, False]])


def test_pipeline_ignores_threads(tmp_path):
    """--threads is accepted and changes nothing: robots are set up one after another either way."""
    graph, _ = _synth(tmp_path, side=4)
    outputs = {}
    for name, flags in (("two", ["--threads", "2"]), ("none", [])):
        paths = [tmp_path / f"{name}.{ext}" for ext in ("json", "trace.csv", "ledger.csv")]
        rc = main(["pipeline", "--input", graph, "--robots", "3", "--epsilon", "0.5", "--oversampling", "0.05",
                   *flags, "--report", str(paths[0]), "--trace", str(paths[1]), "--ledger", str(paths[2])])
        assert rc == 0
        report = _report(paths[0])
        assert "threads" not in report["config"]
        del report["final"]["wall_time_sec"]
        outputs[name] = [report] + [p.read_text() for p in paths[1:]]
    assert outputs["two"] == outputs["none"]


def test_pipeline_rejects_truth(tmp_path, capsys):
    """The pipeline compares against --reference; --truth belongs to the one-stage commands."""
    graph, truth = _synth(tmp_path, side=3)
    report = tmp_path / "pipe.json"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", graph, "--truth", truth, "--report", str(report)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --truth" in capsys.readouterr().err
    assert not report.exists()


def test_newton_method(tmp_path):
    graph, _ = _synth(tmp_path, side=3)
    report = tmp_path / "newton.json"
    rc = main(
        ["solve-rotation", "--input", graph, "--robots", "2", "--method", "newton",
         "--seed", "0", "--report", str(report)]
    )
    assert rc == 0
    rep = _report(report)
    assert rep["final"]["converged"] is True
    assert rep["final"]["total_upload_bytes"] > 0
    assert rep["config"]["method"] == "newton"


def test_newton_single_robot_uploads_nothing(tmp_path):
    graph, _ = _synth(tmp_path, side=3)
    report, ledger = tmp_path / "newton.json", tmp_path / "newton_ledger.csv"
    rc = main(
        ["solve-rotation", "--input", graph, "--robots", "1", "--method", "newton",
         "--report", str(report), "--ledger", str(ledger)]
    )
    assert rc == 0
    final = _report(report)["final"]
    assert final["converged"] is True
    assert final["total_upload_bytes"] == 0
    assert ledger.read_text() == "round,robot,kind,scalars,bytes\n"


def test_heuristic_methods_run(tmp_path):
    graph, _ = _synth(tmp_path, side=3)
    for method in ("block-diagonal", "block-tree"):
        report = tmp_path / f"{method}.json"
        rc = main(
            ["solve-rotation", "--input", graph, "--robots", "2", "--method", method,
             "--epsilon", "0.5", "--seed", "0", "--max-iters", "200",
             "--grad-tol", "1e-3", "--report", str(report)]
        )
        assert rc == 0
        assert _report(report)["final"]["converged"] is True


def test_validate_hessian_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["validate-hessian", "--side", "3", "--sigma-deg", "0", "5",
         "--seeds", "1", "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sigma_deg,seed,delta,lambda2,lambda_max,kappa,gamma"
    assert len(lines) == 3
    zero_noise = lines[1].split(",")
    assert float(zero_noise[0]) == 0.0
    assert float(zero_noise[2]) <= 1e-8


def test_validate_hessian_stdout_is_the_out_file(tmp_path, capsys):
    flags = ["validate-hessian", "--side", "3", "--sigma-deg", "0", "5", "--seeds", "1", "--seed", "0"]
    out = tmp_path / "sweep.csv"
    assert main(flags + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("LAPRA_SEED", "7")
    a, _ = _synth(tmp_path, "env")  # helper passes --seed 9, env must lose
    monkeypatch.delenv("LAPRA_SEED")

    monkeypatch.setenv("LAPRA_SEED", "9")
    prefix = str(tmp_path / "envonly")
    rc = main(["synth", "--side", "4", "--sigma-deg", "5.0", "--edge-prob", "0.3",
               "--out", prefix])
    assert rc == 0
    assert open(a).read() == open(prefix + ".g2o").read()

    monkeypatch.setenv("LAPRA_SEED", "not-a-number")
    rc = main(["synth", "--side", "4", "--out", str(tmp_path / "bad")])
    assert rc == 2

    monkeypatch.setenv("LAPRA_SEED", "-3")
    rc = main(["solve-rotation", "--input", a, "--report", str(tmp_path / "neg.json")])
    assert rc == 2
    assert not (tmp_path / "neg.json").exists()


@pytest.mark.parametrize("flags", [["--epsilon", "1e-17", "--oversampling", "0.05"],
                                   ["--epsilon", "5e-324", "--oversampling", "0.05"],
                                   ["--epsilon", "0.5", "--oversampling", "1e308"]])
def test_infinite_sampling_budget_uploads_the_exact_schur_blocks(tmp_path, flags):
    graph, _ = _synth(tmp_path, side=4)
    schur = {}
    for name, run_flags in (("exact", ["--epsilon", "0"]), ("given", flags)):
        ledger = tmp_path / f"{name}.csv"
        rc = main(["solve-rotation", "--input", graph, "--robots", "2", *run_flags, "--ledger", str(ledger),
                   "--report", str(tmp_path / f"{name}.json")])
        assert rc == 0
        with open(ledger) as fh:
            schur[name] = [(r["robot"], r["bytes"]) for r in csv.DictReader(fh) if r["kind"] == "schur"]
    assert schur["given"] == schur["exact"]


def test_exit_code_on_numerical_failure(tmp_path, capsys):
    """Side 13 has n p = 6,591 unknowns, above the dense Newton step's limit of 6,000.

    The noise keeps the start off the optimum, so Newton takes a step.
    """
    graph, _ = _synth(tmp_path, side=13)
    capsys.readouterr()
    rc = main(["solve-rotation", "--input", graph, "--robots", "2", "--method", "newton"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "lapra: numerical failure: problem too large for the dense second-order step\n")


def test_exit_code_on_missing_file(tmp_path):
    rc = main(["solve-rotation", "--input", str(tmp_path / "nope.g2o"),
               "--report", str(tmp_path / "x.json")])
    assert rc == 2


def test_exit_code_on_malformed_file(tmp_path):
    bad = tmp_path / "bad.g2o"
    bad.write_text("EDGE_SE3:QUAT 0 1 not numbers at all\n")
    rc = main(["solve-rotation", "--input", str(bad)])
    assert rc == 2


def test_exit_code_on_disconnected_graph(tmp_path):
    q = "0 0 0 1"
    info = " ".join(["1 0 0 0 0 0", "1 0 0 0 0", "1 0 0 0", "1 0 0", "1 0", "1"])
    lines = [
        f"EDGE_SE3:QUAT 0 1 0 0 0 {q} {info}",
        f"EDGE_SE3:QUAT 2 3 0 0 0 {q} {info}",
    ]
    path = tmp_path / "disc.g2o"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["solve-rotation", "--input", str(path)])
    assert rc == 2


@pytest.mark.parametrize("command", ["solve-rotation", "solve-translation", "pipeline"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--robots", "3", "--max-iters", "-1"], "--max-iters must be non-negative"),
        (["--robots", "3", "--epsilon", "-1", "--oversampling", "0.05"], "--epsilon must be non-negative"),
        (["--robots", "1", "--epsilon", "-1"], "--epsilon must be non-negative"),
        (["--robots", "3", "--oversampling", "0"], "--oversampling must be positive"),
        (["--robots", "3", "--epsilon", "0.5", "--oversampling", "inf"], "--oversampling must be positive"),
        (["--robots", "3", "--seed", "-1"], "--seed must be non-negative"),
    ],
    ids=["max-iters", "epsilon-sampled", "epsilon-one-robot", "oversampling", "oversampling-inf", "seed"],
)
def test_exit_code_on_invalid_solver_flags(tmp_path, capsys, command, flags, message):
    graph, truth = _synth(tmp_path, side=3)
    rotations = ["--rotations", truth] if command == "solve-translation" else []
    report = tmp_path / "x.json"
    rc = main([command, "--input", graph, *rotations, *flags, "--report", str(report)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve-rotation", "--grad-tol"),
        ("solve-translation", "--resid-tol"),
        ("pipeline", "--grad-tol"),
        ("pipeline", "--resid-tol"),
    ],
)
@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize("robots", ["1", "2"])
def test_exit_code_on_invalid_tolerance(tmp_path, capsys, command, flag, value, robots):
    graph, truth = _synth(tmp_path, side=3)
    rotations = ["--rotations", truth] if command == "solve-translation" else []
    report = tmp_path / "x.json"
    rc = main([command, "--input", graph, *rotations, "--robots", robots, flag, value,
               "--report", str(report)])
    assert rc == 2
    assert f"{flag} must be non-negative" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flag", ["--max-iters", "--epsilon", "--grad-tol", "--resid-tol"])
def test_pipeline_rejects_a_bad_flag_of_either_stage_before_any_set_up(tmp_path, capsys, monkeypatch, flag):
    graph, _ = _synth(tmp_path, side=3)

    def no_set_up(*args, **kwargs):
        raise AssertionError("set up before the flags were checked")

    monkeypatch.setattr(decomposition, "build_blocks", no_set_up)
    capsys.readouterr()
    rc = main(["pipeline", "--input", graph, "--robots", "3", flag, "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"lapra: error: {flag} must be non-negative")


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_validate_hessian_rejects_invalid_epsilon(tmp_path, capsys, value):
    out = tmp_path / "sweep.csv"
    rc = main(["validate-hessian", "--side", "3", "--seeds", "1", "--sigma-deg", "5",
               "--epsilon", value, "--out", str(out)])
    assert rc == 2
    assert "--epsilon must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve-translation", "--rotations"),
        ("solve-rotation", "--truth"),
        ("solve-translation", "--truth"),
        ("pipeline", "--reference"),
    ],
)
@pytest.mark.parametrize("wrong", ["dimension", "count"])
def test_exit_code_on_poses_that_do_not_fit_the_graph(tmp_path, capsys, command, flag, wrong):
    graph, truth = _synth(tmp_path, side=3)
    if wrong == "dimension":  # planar poses, one per vertex of the 3D graph
        poses = str(tmp_path / "planar.g2o")
        write_g2o(poses, MeasurementGraph(2, 27), poses=(RotationState.identity(27, 2), np.zeros((27, 2))))
    else:  # the 8 poses of a side-2 grid against 27 vertices
        poses = _synth(tmp_path, "small", side=2)[1]
    rotations = ["--rotations", truth] if command == "solve-translation" and flag != "--rotations" else []
    report = tmp_path / "x.json"
    rc = main([command, "--input", graph, *rotations, flag, poses, "--report", str(report)])
    assert rc == 2
    assert f"{poses}: " in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve-translation", "--rotations"),
        ("solve-rotation", "--truth"),
        ("solve-translation", "--truth"),
        ("pipeline", "--reference"),
    ],
)
@pytest.mark.parametrize("field, message", [(5, "vertex 4 rotation is non-finite or not a rotation within tol 1e-09"),
                                            (3, "vertex 4 has a non-finite position")], ids=["rotation", "position"])
def test_exit_code_on_non_finite_poses(tmp_path, capsys, monkeypatch, command, flag, field, message):
    """A NaN quaternion or position field fails before any set-up, naming the file. Both used to run: the rotation
    failed as "robot 0 interior solve residual nan" or a raw SVD error, and the position reported a NaN RMSE."""
    graph, truth = _synth(tmp_path, side=3)
    lines = open(truth).read().splitlines()
    row = [k for k, line in enumerate(lines) if line.startswith("VERTEX_SE3:QUAT")][4]
    fields = lines[row].split()
    fields[field] = "nan"
    lines[row] = " ".join(fields)
    bad = str(tmp_path / "bad.g2o")
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    def no_set_up(*args, **kwargs):
        raise AssertionError("set up before the poses were checked")

    monkeypatch.setattr(decomposition, "build_blocks", no_set_up)
    rotations = ["--rotations", truth] if command == "solve-translation" and flag != "--rotations" else []
    capsys.readouterr()
    rc = main([command, "--input", graph, "--robots", "2", *rotations, flag, bad])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"lapra: error: {bad}: {message}\n"


def test_translation_names_the_input_file_for_a_bad_own_rotation(tmp_path, capsys, monkeypatch):
    """Without --rotations, a NaN quaternion among the input file's own vertices fails before any set-up, naming
    the --input file. It used to reach the solver's check and exit 2 without the path."""
    graph, truth = _synth(tmp_path, side=3)
    lines = open(truth).read().splitlines()
    row = [k for k, line in enumerate(lines) if line.startswith("VERTEX_SE3:QUAT")][4]
    fields = lines[row].split()
    fields[5] = "nan"
    lines[row] = " ".join(fields)
    both = str(tmp_path / "both.g2o")
    with open(both, "w") as fh:
        fh.write("\n".join(lines) + "\n" + open(graph).read())

    def no_set_up(*args, **kwargs):
        raise AssertionError("set up before the rotations were checked")

    monkeypatch.setattr(decomposition, "build_blocks", no_set_up)
    capsys.readouterr()
    rc = main(["solve-translation", "--input", both, "--robots", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"lapra: error: {both}: vertex 4 rotation is non-finite or not a rotation within tol 1e-09\n"


def test_synth_rejects_nan_noise(tmp_path, capsys):
    rc = main(["synth", "--side", "3", "--sigma-deg", "nan", "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "sigma_rot must be" in capsys.readouterr().err
    assert not (tmp_path / "p.g2o").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_validate_hessian_rejects_fewer_than_one_seed(tmp_path, capsys, seeds):
    out = tmp_path / "sweep.csv"
    rc = main(["validate-hessian", "--side", "3", "--seeds", seeds, "--out", str(out)])
    assert rc == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# token 3 is the x translation; token 25 is the first rotation entry of the information matrix
@pytest.mark.parametrize("token", [3, 25], ids=["translation", "rotation-information"])
def test_exit_code_on_non_finite_edge(tmp_path, capsys, token):
    graph, _ = _synth(tmp_path, side=3)
    lines = open(graph).read().splitlines()
    edge_rows = [k for k, line in enumerate(lines) if line.startswith("EDGE_SE3:QUAT")]
    fields = lines[edge_rows[4]].split()
    fields[token] = "nan"
    lines[edge_rows[4]] = " ".join(fields)
    with open(graph, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["pipeline", "--input", graph, "--robots", "2"])
    assert rc == 2
    assert "edge 4 has a non-finite rotation, translation or weight" in capsys.readouterr().err


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["solve-rotation"])  # missing required --input
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lapra" in capsys.readouterr().out
