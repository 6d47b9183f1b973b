"""Command line entry points.

Subcommands generate synthetic problems, run the rotation and
translation solvers on g2o files, sweep curvature diagnostics, and
chain the two solve stages into a pipeline. Machine-readable output is
JSON for reports and CSV for traces; everything except the wall_time
field is deterministic for a fixed seed.

Exit codes: 0 on success, 2 on usage or file errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .decomposition import LedgerEvent
from .laplacians import DEFAULT_OVERSAMPLING
from .manifold import NumericalError
from .metrics import rotation_rmse, translation_rmse
from .pose_graph import (
    GraphError,
    MeasurementGraph,
    SyntheticSpec,
    generate_grid,
    grid_positions,
    load_g2o,
    partition_contiguous,
    spanning_tree_init,
    write_g2o,
)
from .rotation import (
    SolverConfig,
    TraceRow,
    collaborative_solve,
    distance_by_name,
    hessian_report,
    newton_solve,
)
from .translation import collaborative_translation_solve, translation_cost

METHODS = ("sparsified", "newton", "block-diagonal", "block-tree")
_METHOD_MODE = {"sparsified": "spectral", "block-diagonal": "block_diagonal", "block-tree": "tree"}


def _resolve_seed(value: int | None) -> int:
    """Explicit flag wins, then the LAPRA_SEED environment variable, then 0. A negative seed is a usage error."""
    source = "--seed"
    if value is None:
        source, env = "LAPRA_SEED", os.environ.get("LAPRA_SEED", "0")
        try:
            value = int(env)
        except ValueError as exc:
            raise GraphError(f"LAPRA_SEED is not an integer: {env!r}") from exc
    if value < 0:
        raise GraphError(f"{source} must be non-negative, got {value}")
    return value


def _load_poses(path: str, g: MeasurementGraph):
    """The (rotations, translations) stored in a g2o file: n finite rotations and positions in d dimensions for
    the graph g."""
    poses = load_g2o(path)[1]
    if poses is None:
        raise GraphError(f"{path}: file has no complete vertex set")
    try:
        g.check_rotations(poses[0])
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(poses[1]).all(axis=1))
    if bad.size:
        raise GraphError(f"{path}: vertex {bad[0]} has a non-finite position")
    return poses


def _write_text(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv_text(header: list[str], stages: list[tuple]) -> str:
    """The header and every (stage, rows) pair's rows as CSV; several stages get a leading stage column."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    staged = len(stages) > 1
    w.writerow(["stage", *header] if staged else header)
    for stage, rows in stages:
        w.writerows([stage, *row] if staged else row for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        side=args.side,
        d=3,
        sigma_rot=float(np.deg2rad(args.sigma_deg)),
        edge_prob=args.edge_prob,
        seed=_resolve_seed(args.seed),
    )
    g, truth = generate_grid(spec)
    positions = grid_positions(spec.side, spec.d)
    write_g2o(args.out + ".g2o", g)
    write_g2o(args.out + "_truth.g2o", MeasurementGraph(g.d, g.n), poses=(truth, positions))
    print(f"wrote {args.out}.g2o ({g.n} vertices, {g.m} edges) and {args.out}_truth.g2o")
    return 0


# ---------------------------------------------------------------------------
# solve-rotation, solve-translation, pipeline

# The solve stages each command runs, and the config keys its report echoes, in order.
_STAGES = {"solve-rotation": ("rotation",), "solve-translation": ("translation",),
           "pipeline": ("rotation", "translation")}
_ROTATION_KEYS = ("input", "robots", "epsilon", "distance", "method", "grad_tol", "max_iters", "seed",
                  "oversampling")
_CONFIG_KEYS = {
    "solve-rotation": _ROTATION_KEYS,
    "solve-translation": ("input", "rotations", "robots", "epsilon", "resid_tol", "max_iters", "seed",
                          "oversampling"),
    "pipeline": _ROTATION_KEYS + ("resid_tol", "reference"),
}
_NORM_KEY = {"rotation": "grad_norm", "translation": "residual_norm"}
_TRACE_HEADER = [f.name for f in dataclasses.fields(TraceRow)]
_LEDGER_HEADER = [f.name for f in dataclasses.fields(LedgerEvent)] + ["bytes"]


def _split_args(g, args):
    """The partition, seed and per-stage SolverConfig of one command's solve stages, built before any
    solve. A setting SolverConfig rejects is a usage error that names the flag."""
    if not 0 < args.oversampling < float("inf"):
        raise GraphError("--oversampling must be positive and finite")
    seed = _resolve_seed(args.seed)
    configs = {}
    for stage in _STAGES[args.command]:
        tol, distance = ("grad_tol", args.distance) if stage == "rotation" else ("resid_tol", "geodesic")
        try:
            configs[stage] = SolverConfig(epsilon=args.epsilon, distance=distance, grad_tol=getattr(args, tol),
                                          max_iters=args.max_iters, seed=seed)
        except ValueError as exc:  # its message starts with the field's name
            raise GraphError("--" + str(exc).replace("grad_tol", tol).replace("_", "-", 1)) from None
    return partition_contiguous(g, args.robots), seed, configs


def _rotation_source(g, poses, path):
    """Rotation estimates for a translation-only solve: the --rotations file, else the input's vertices."""
    if path is not None:
        return _load_poses(path, g)[0]
    if poses is None:
        raise GraphError("no rotation estimates: pass --rotations or a g2o file with vertices")
    return poses[0]


def cmd_solve(args) -> int:
    """Run the command's solve stages, then write its report, CSVs and saved poses."""
    stages = _STAGES[args.command]
    g, poses = load_g2o(args.input)
    if g.m == 0:
        raise GraphError(f"{args.input}: file has no measurement edges")
    R = None if "rotation" in stages else _rotation_source(g, poses, args.rotations)
    truth = args.reference if "reference" in args else args.truth
    reference = None if truth is None else _load_poses(truth, g)
    partition, seed, configs = _split_args(g, args)
    M = None
    runs = []  # (stage, trace, wall)
    held = []  # the rotation split's only reference; split_setup empties it to free a split it cannot reuse
    for stage in stages:
        if stage == "rotation":
            R0 = spanning_tree_init(g)
            t0 = time.perf_counter()
            if args.method == "newton":
                R, trace = newton_solve(g, partition, R0, configs[stage])
            else:
                R, trace = collaborative_solve(g, partition, R0, configs[stage], schur_mode=_METHOD_MODE[args.method],
                                               oversampling=args.oversampling)
            held = [trace.split] if trace.split else []  # newton has no split
            trace.split = None
        else:
            t0 = time.perf_counter()
            M, trace = collaborative_translation_solve(g, partition, R, configs[stage],
                                                       oversampling=args.oversampling, prior=held)
        runs.append((stage, trace, time.perf_counter() - t0))

    single = len(runs) == 1
    final = {}
    for stage, trace, _ in runs:
        prefix = "" if single else f"{stage}_"
        final[prefix + "converged"] = trace.converged
        final[prefix + "iterations"] = trace.iterations
        final[prefix + _NORM_KEY[stage]] = trace.final_grad_norm
    if single:
        final["cost"] = trace.rows[-1].cost if M is None else translation_cost(g, R, M)
    else:  # the pipeline: whether translation kept the rotation stage's robot-side set-up
        final["translation_split_reused"] = bool(held)
    final["total_upload_bytes"] = sum(trace.ledger.total_bytes() for _, trace, _ in runs)
    final["wall_time_sec"] = sum(wall for _, _, wall in runs)
    if reference is not None:
        R_true, t_true = reference
        err = rotation_rmse(R, R_true)
        if "rotation" in stages:
            final["rotation_rmse_deg"] = err.degrees
        if M is not None:
            # positions are recovered in the frame of the rotation estimates,
            # so carry them through the aligning rotation before comparing
            final["translation_rmse"] = translation_rmse(M @ err.alignment.T, t_true)

    resolved = dict(vars(args), seed=seed)
    report = {"command": args.command, "config": {key: resolved[key] for key in _CONFIG_KEYS[args.command]},
              "final": final}
    for stage, trace, _ in runs:
        report["trace" if single else f"{stage}_trace"] = [dataclasses.asdict(row) for row in trace.rows]
    if args.trace is not None:
        stage_rows = [(stage, map(dataclasses.astuple, trace.rows)) for stage, trace, _ in runs]
        _write_text(_csv_text(_TRACE_HEADER, stage_rows), args.trace)
    if args.ledger is not None:
        stage_rows = [(stage, [(*dataclasses.astuple(e), e.bytes) for e in trace.ledger.events])
                      for stage, trace, _ in runs]
        _write_text(_csv_text(_LEDGER_HEADER, stage_rows), args.ledger)
    if args.save is not None:
        write_g2o(args.save, MeasurementGraph(g.d, g.n), poses=(R, np.zeros((g.n, g.d)) if M is None else M))
    _write_text(json.dumps(report, indent=2) + "\n", args.report)
    return 0


# ---------------------------------------------------------------------------
# validate-hessian

def cmd_validate_hessian(args) -> int:
    if not args.epsilon >= 0:
        raise GraphError("--epsilon must be non-negative")
    if args.seeds < 1:
        raise GraphError("--seeds must be at least 1")
    kind = distance_by_name(args.distance)
    warm_up = SolverConfig(distance=args.distance, grad_tol=1e-8, max_iters=40)
    base_seed = _resolve_seed(args.seed)
    rows = []
    for sigma_deg in args.sigma_deg:
        for k in range(args.seeds):
            spec = SyntheticSpec(
                side=args.side,
                d=3,
                sigma_rot=float(np.deg2rad(sigma_deg)),
                edge_prob=args.edge_prob,
                seed=base_seed + k,
            )
            g, _ = generate_grid(spec)
            R, _ = collaborative_solve(g, partition_contiguous(g, 1), spanning_tree_init(g), warm_up)
            rep = hessian_report(g, R, kind, epsilon=args.epsilon)
            rows.append((sigma_deg, base_seed + k, rep.delta_empirical, rep.lambda2, rep.lambda_max, rep.kappa,
                         rep.gamma))
    _write_text(_csv_text(["sigma_deg", "seed", "delta", "lambda2", "lambda_max", "kappa", "gamma"], [(None, rows)]),
                args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_solver_flags(p, command: str) -> None:
    """The flags of a solve command: shared ones plus those of each stage it runs."""
    p.add_argument("--input", required=True, help="g2o measurement file")
    p.add_argument("--robots", type=int, default=1, help="number of robots (contiguous id blocks)")
    p.add_argument("--epsilon", type=float, default=0.0, help="sparsification parameter")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: LAPRA_SEED or 0)")
    p.add_argument("--oversampling", type=float, default=DEFAULT_OVERSAMPLING,
                   help="sampling budget multiplier; budgets at or above the exact "
                        "edge count fall back to the exact matrix")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: robots are set up one after another "
                        "(kept only until perfbench stops passing it)")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--trace", default=None, help="per-iteration CSV trace path")
    p.add_argument("--ledger", default=None, help="per-upload CSV ledger path")
    if "rotation" in _STAGES[command]:
        p.add_argument("--distance", choices=("geodesic", "chordal"), default="geodesic")
        p.add_argument("--grad-tol", type=float, default=1e-5)
        p.add_argument("--method", choices=METHODS, default="sparsified")
    if "translation" in _STAGES[command]:
        p.add_argument("--resid-tol", type=float, default=1e-10, help="translation residual stop tolerance")
    p.set_defaults(func=cmd_solve)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lapra", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic grid problem")
    p.add_argument("--side", type=int, default=5)
    p.add_argument("--sigma-deg", type=float, default=0.0, help="rotation noise std deviation")
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix; writes PREFIX.g2o and PREFIX_truth.g2o")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("solve-rotation", help="rotation averaging on a g2o file")
    _add_solver_flags(p, "solve-rotation")
    p.add_argument("--truth", default=None, help="g2o file with reference poses for RMSE")
    p.add_argument("--save-rotations", dest="save", default=None,
                   help="write solved rotations as a vertex-only g2o")

    p = sub.add_parser("solve-translation", help="translation recovery given rotation estimates")
    _add_solver_flags(p, "solve-translation")
    p.add_argument("--rotations", default=None,
                   help="vertex-only g2o with rotation estimates (default: input file vertices)")
    p.add_argument("--truth", default=None, help="g2o file with reference poses for RMSE")
    p.add_argument("--save-positions", dest="save", default=None,
                   help="write solved positions as a vertex-only g2o")

    p = sub.add_parser("validate-hessian", help="curvature agreement sweep on synthetic grids")
    p.add_argument("--side", type=int, default=4)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--sigma-deg", type=float, nargs="+", default=[0.0, 2.0, 5.0, 10.0])
    p.add_argument("--seeds", type=int, default=5, help="instances per noise level")
    p.add_argument("--seed", type=int, default=None, help="base seed (default: LAPRA_SEED or 0)")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--distance", choices=("geodesic", "chordal"), default="chordal")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_validate_hessian)

    p = sub.add_parser("pipeline", help="rotation averaging followed by translation recovery")
    _add_solver_flags(p, "pipeline")
    p.add_argument("--reference", default=None, help="g2o file with reference poses for RMSE")
    p.add_argument("--save-poses", dest="save", default=None, help="write solved poses as a vertex-only g2o")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"lapra: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"lapra: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
