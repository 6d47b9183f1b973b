"""Outside-in benchmark of lapra: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from --seed before timing starts. The
end-to-end call is then repeated until --seconds are used up; every
repetition is checked (convergence, rotations on the group, counts and RMSE
against perfbench/expected.json for that seed). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, measured with
only stage-boundary timestamps recorded; with --trace 1 they are per-layer
self times and counts from spans around lapra's functions, recorded from
this directory's files (see tracer.py). README.md in this directory lists
every metric and workload.

Everything runs in this one process, with one solver thread and one BLAS
thread.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

SIGMA_DEG = 5.0
EDGE_PROB = 0.3
SOLVER_SEED = 0  # sampling seed of the solver; the workload seed only shapes the inputs
RMSE_RTOL = 1e-6
REFERENCE_SAMPLES = 5  # reference_loop runs before and after every repetition

# name -> problem and solver settings. "tiny" overrides the size for the smoke test.
# BENCHMARK.json lists the workloads the benchmark is judged on; the others
# here run by name (see README.md).
WORKLOADS = {
    "pipeline-sampled": dict(
        kind="pipeline", d=3, side=16, robots=4, epsilon=0.5, oversampling=1.0,
        distance="geodesic", max_iters=100, tiny=dict(side=4, robots=2),
    ),
    "rotation-many-robots": dict(
        kind="rotation", d=3, side=16, robots=16, epsilon=0.0, oversampling=None,
        distance="geodesic", max_iters=50, tiny=dict(side=4, robots=4),
    ),
    "rotation-planar": dict(
        kind="rotation", d=2, side=96, robots=8, epsilon=0.5, oversampling=1.0,
        distance="chordal", max_iters=50, tiny=dict(side=8, robots=2),
    ),
}

# Solver stage entries and the end of their one-time phase. These are the
# only spans recorded in untraced repetitions, where they give setup_s.
STAGES = ("stage.rotation", "stage.translation")
SCHUR = "decomposition.sparsified_schur"
BOUNDARY_TARGETS = [
    ("lapra.cli:collaborative_solve", "stage.rotation"),
    ("lapra.rotation:collaborative_solve", "stage.rotation"),
    ("lapra.cli:collaborative_translation_solve", "stage.translation"),
    ("lapra.decomposition:sparsified_schur", SCHUR),
]

# Per-layer spans, each wrapped where its caller looks the name up.
LAYER_TARGETS = [
    ("lapra.cli:main", "cli"),
    ("lapra.cli:load_g2o", "pose_graph.load_g2o"),
    ("lapra.cli:partition_contiguous", "pose_graph.partition"),
    ("lapra.cli:spanning_tree_init", "pose_graph.init"),
    ("lapra.cli:rotation_rmse", "metrics.rmse"),
    ("lapra.cli:translation_rmse", "metrics.rmse"),
    ("lapra.rotation:laplacian_weights", "laplacians.assembly"),
    ("lapra.rotation:laplacian", "laplacians.assembly"),
    ("lapra.translation:translation_weights", "laplacians.assembly"),
    ("lapra.translation:laplacian", "laplacians.assembly"),
    ("lapra.rotation:separator_rows_by_owner", "rotation.separator_rows"),
    ("lapra.translation:separator_rows_by_owner", "rotation.separator_rows"),
    ("lapra.decomposition:build_blocks", "decomposition.build_blocks"),
    ("lapra.decomposition:RobotBlock.schur_contribution", "decomposition.schur_elim"),
    ("lapra.decomposition:sparsify", "laplacians.sampling"),
    ("lapra.laplacians:effective_resistances", "laplacians.resistances"),
    ("lapra.decomposition:ServerState.set_reduced", "decomposition.server_factor"),
    ("lapra.decomposition:solve", "decomposition.split_solve"),
    ("lapra.decomposition:RobotBlock.interior_solve", "decomposition.interior_solve"),
    ("lapra.decomposition:ServerState.reduced_solve", "decomposition.reduced_solve"),
    ("lapra.rotation:_gradient_and_cost", "rotation.gradient"),
    ("lapra.rotation:_apply_update", "rotation.retract"),
    ("lapra.translation:assemble_translation_rhs", "translation.rhs"),
    ("lapra.translation:translation_cost", "translation.cost"),
]
# Interior solves made while eliminating the interior belong to elimination.
SKIP_UNDER = {"decomposition.interior_solve": ("decomposition.schur_elim",)}

# per-layer self-time metric -> span name
SELF_TIME_METRICS = {
    "pose_graph.load_g2o_s": "pose_graph.load_g2o",
    "pose_graph.partition_s": "pose_graph.partition",
    "pose_graph.init_s": "pose_graph.init",
    "laplacians.assembly_s": "laplacians.assembly",
    "decomposition.build_blocks_s": "decomposition.build_blocks",
    "decomposition.schur_elim_s": "decomposition.schur_elim",
    "laplacians.resistances_s": "laplacians.resistances",
    "laplacians.sampling_s": "laplacians.sampling",
    "decomposition.schur_sum_s": SCHUR,
    "decomposition.server_factor_s": "decomposition.server_factor",
    "rotation.separator_rows_s": "rotation.separator_rows",
    "rotation.gradient_s": "rotation.gradient",
    "rotation.retract_s": "rotation.retract",
    "decomposition.split_solve_self_s": "decomposition.split_solve",
    "decomposition.interior_solve_s": "decomposition.interior_solve",
    "decomposition.reduced_solve_s": "decomposition.reduced_solve",
    "translation.rhs_s": "translation.rhs",
    "translation.cost_s": "translation.cost",
    "metrics.rmse_s": "metrics.rmse",
    "cli.self_s": "cli",
}
# per-layer call-count metric -> span name
CALL_COUNT_METRICS = {
    "rotation.gradient_calls": "rotation.gradient",
    "decomposition.interior_solves": "decomposition.interior_solve",
    "decomposition.reduced_solves": "decomposition.reduced_solve",
    "laplacians.sparsify_calls": "laplacians.sampling",
}
MISSING = -1.0  # value of a metric whose wrapped target no longer exists

COUNT_KEYS = ("iterations", "translation_sweeps", "upload_bytes", "schur_bytes",
              "partial_grad_bytes", "rhs_bytes")
RMSE_KEYS = ("rotation_rmse_deg", "translation_rmse")


def import_lapra() -> None:
    """Import lapra from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lapra
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lapra from {src}: {exc}")
    if Path(lapra.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported lapra from {lapra.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "solver_threads": 1,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Prepared:
    """A workload's generated inputs and its end-to-end call."""

    call: object  # no-argument callable: the timed end-to-end call
    truth: object | None = None  # RotationState, for rotation workloads
    report_path: Path | None = None  # CLI report, for the pipeline


def prepare(name: str, seed: int, size: str, workdir: Path) -> Prepared:
    import numpy as np
    from lapra import cli, rotation
    from lapra.pose_graph import SyntheticSpec, generate_grid, partition_contiguous, spanning_tree_init

    spec = dict(WORKLOADS[name])
    if size == "tiny":
        spec.update(spec["tiny"])
    if spec["kind"] == "pipeline":
        prefix = workdir / f"{name}-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["synth", "--side", str(spec["side"]), "--sigma-deg", str(SIGMA_DEG),
                           "--edge-prob", str(EDGE_PROB), "--seed", str(seed), "--out", str(prefix)])
        if rc != 0:
            raise RuntimeError(f"lapra synth exited with {rc}")
        report = workdir / f"{name}-{seed}-report.json"
        argv = ["pipeline", "--input", f"{prefix}.g2o", "--robots", str(spec["robots"]),
                "--epsilon", str(spec["epsilon"]), "--oversampling", str(spec["oversampling"]),
                "--threads", "1", "--max-iters", str(spec["max_iters"]), "--seed", str(SOLVER_SEED),
                "--reference", f"{prefix}_truth.g2o", "--report", str(report)]

        def call():
            rc = cli.main(argv)  # looked up at call time, so the "cli" span sees it
            if rc != 0:
                raise RuntimeError(f"lapra pipeline exited with {rc}")

        return Prepared(call=call, report_path=report)

    g, truth = generate_grid(SyntheticSpec(side=spec["side"], d=spec["d"],
                                           sigma_rot=float(np.deg2rad(SIGMA_DEG)),
                                           edge_prob=EDGE_PROB, seed=seed))
    partition = partition_contiguous(g, spec["robots"])
    R0 = spanning_tree_init(g)
    config = rotation.SolverConfig(epsilon=spec["epsilon"], distance=spec["distance"],
                                   max_iters=spec["max_iters"], seed=SOLVER_SEED)
    extra = {} if spec["oversampling"] is None else {"oversampling": spec["oversampling"]}

    def call():
        rotation.collaborative_solve(g, partition, R0, config, threads=1, **extra)

    return Prepared(call=call, truth=truth)


# ---------------------------------------------------------------------------
# One repetition


@dataclass
class Rep:
    traced: bool
    solve_s: float
    setup_s: float
    ref_samples: list  # reference_loop times just before and after this repetition
    counts: dict
    rmse: dict
    spans: list | None  # kept for traced repetitions only
    problems: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        """Solver steps: rotation iterations plus translation sweeps."""
        return self.counts["iterations"] + self.counts.get("translation_sweeps", 0)

    @property
    def step_s(self) -> float:
        """Wall time outside the one-time phase, per solver step."""
        return (self.solve_s - self.setup_s) / max(1, self.steps)


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: the unit of step_time_ratio.

    The machines this runs on are shared, and their speed drifts by 20% over
    minutes. The drift slows this loop and the solver alike, so the ratio of
    a repetition's step time to the loop timed just around it is steadier
    than the step time alone.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - t0


class Harness:
    """Wraps lapra's functions for one workload and runs repetitions of its call."""

    def __init__(self, prepared: Prepared, trace: bool):
        from tracer import Tracer

        self.prepared = prepared
        self.tracer = Tracer()
        self._results: dict[str, object] = {}
        for path, name in BOUNDARY_TARGETS:
            self.tracer.wrap(path, name, always=True,
                             observe=self._keep_result if name in STAGES else None)
        if self.tracer.missing:
            self.tracer.restore()
            raise SystemExit(f"perfbench: solver entry points are gone: {self.tracer.missing}")
        if trace:
            for path, name in LAYER_TARGETS:
                self.tracer.wrap(path, name, skip_under=SKIP_UNDER.get(name, ()),
                                 observe=_observe_sparsify if name == "laplacians.sampling" else None)

    def _keep_result(self, span, args, result) -> None:
        self._results[span.name] = result

    def close(self) -> None:
        self.tracer.restore()

    def run(self, traced: bool) -> Rep:
        """One timed end-to-end call; layer spans are recorded only when traced."""
        from lapra.manifold import NumericalError

        self.tracer.take_spans()
        self._results.clear()
        gc.collect()
        ref = [reference_loop() for _ in range(REFERENCE_SAMPLES)]
        self.tracer.tracing = traced
        try:
            t0 = time.perf_counter()
            self.prepared.call()
            solve_s = time.perf_counter() - t0
        finally:
            self.tracer.tracing = False
        ref += [reference_loop() for _ in range(REFERENCE_SAMPLES)]
        spans = self.tracer.take_spans()

        # set-up: from entering a solver stage until its sparsified_schur returns
        setup_s = 0.0
        for i, s in enumerate(spans):
            if s.name in STAGES:
                schur_end = next(c.end for c in spans if c.parent == i and c.name == SCHUR)
                setup_s += schur_end - s.start

        problems = []
        R, rot_trace = self._results["stage.rotation"]
        traces = [rot_trace]
        counts = {"iterations": rot_trace.iterations}
        if "stage.translation" in self._results:
            _, tr_trace = self._results["stage.translation"]
            traces.append(tr_trace)
            counts["translation_sweeps"] = tr_trace.iterations
        for stage, t in zip(STAGES, traces):
            if not t.converged:
                problems.append(f"{stage} did not converge")
        for kind in ("schur", "partial_grad", "rhs"):
            counts[f"{kind}_bytes"] = sum(t.ledger.bytes_by_kind(kind) for t in traces)
        counts["upload_bytes"] = sum(t.ledger.total_bytes() for t in traces)
        try:
            R.check_valid()
        except NumericalError as exc:
            problems.append(f"rotations off the group: {exc}")

        if self.prepared.report_path is not None:
            final = json.loads(self.prepared.report_path.read_text())["final"]
            rmse = {k: final[k] for k in RMSE_KEYS}
        else:
            from lapra.metrics import rotation_rmse

            rmse = {"rotation_rmse_deg": rotation_rmse(R, self.prepared.truth).degrees}
        return Rep(traced, solve_s, setup_s, ref, counts, rmse, spans if traced else None, problems)


def _observe_sparsify(span, args, result) -> None:
    """Edges into and out of one sparsify call, and whether it returned its input."""
    import scipy.sparse as sp

    S = sp.csr_matrix(args[0])
    span.info.update(
        epsilon=float(args[1]),
        edges_in=int(sp.triu(S, k=1).count_nonzero()),
        edges_out=int(sp.triu(result, k=1).count_nonzero()),
        returned_input=bool((S != result).nnz == 0),
    )


def check(rep: Rep, first: Rep | None, reference: dict | None) -> None:
    """Add to rep.problems every count or RMSE that is not what it should be."""
    if first is not None:
        for key, value in rep.counts.items():
            if first.counts.get(key) != value:
                rep.problems.append(f"nondeterministic {key}: {first.counts.get(key)} then {value}")
    for key, value in rep.rmse.items():
        if not math.isfinite(value):
            rep.problems.append(f"{key} is {value}")
    if reference is None:
        return
    for key in COUNT_KEYS:
        if key in reference and rep.counts.get(key) != reference[key]:
            rep.problems.append(f"behaviour change: {key} {reference[key]} -> {rep.counts.get(key)}")
    for key in RMSE_KEYS:
        if key in reference and not math.isclose(rep.rmse.get(key, math.nan), reference[key],
                                                  rel_tol=RMSE_RTOL):
            rep.problems.append(f"behaviour change: {key} {reference[key]!r} -> {rep.rmse.get(key)!r}")


def measure(harness: Harness, seconds: float, trace: bool, reference: dict | None):
    """Repeat the call until `seconds` are used; in trace mode alternate untraced and traced.

    A new repetition starts only if the average so far says it ends within
    the time. Trace mode makes at least one untraced and one traced attempt.
    """
    reps: list[Rep] = []
    failures = 0
    start = time.perf_counter()
    while True:
        attempts = len(reps) + failures
        traced = trace and attempts % 2 == 1
        try:
            rep = harness.run(traced)
        except Exception:  # a run that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            failures += 1
        else:
            check(rep, reps[0] if reps else None, reference)
            reps.append(rep)
            print(f"rep {len(reps)} ({'traced' if traced else 'untraced'}): solve {rep.solve_s:.4f} s, "
                  f"setup {rep.setup_s:.4f} s, reference loop {1000 * statistics.median(rep.ref_samples):.3f} ms, "
                  f"{json.dumps(rep.counts)}, {json.dumps(rep.rmse)}"
                  + (f", PROBLEMS: {rep.problems}" if rep.problems else ""), flush=True)
        attempts += 1
        now = time.perf_counter()
        if attempts < (2 if trace else 1):
            continue
        if now + (now - start) / attempts > start + seconds:
            return reps, failures


# ---------------------------------------------------------------------------
# Metrics


def high_percentile(values: list[float]):
    """(name, value) of the highest of p90/p99/p99.9 with ten samples beyond it, or None."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (f"p{p:g}", statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1])
    return best


def end_to_end_metrics(reps: list[Rep]) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(r.setup_s for r in reps), "s"),
        "step_time_ratio": (med(r.step_s / med(r.ref_samples) for r in reps), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "step_upload_bytes": (med((r.counts["partial_grad_bytes"] + r.counts["rhs_bytes"])
                                  / max(1, r.steps) for r in reps), "bytes"),
    }


def layer_metrics(tracer, traced: list[Rep], untraced: list[Rep]) -> dict:
    from tracer import self_times

    missing = {name for path, name in LAYER_TARGETS if path in tracer.missing}
    n = len(traced)
    per_rep = [self_times(r.spans) for r in traced]
    first = traced[0]
    out = {}
    reported = 0.0
    for metric, span in SELF_TIME_METRICS.items():
        value = MISSING if span in missing else sum(d.get(span, 0.0) for d in per_rep) / n
        reported += max(value, 0.0)
        out[metric] = (value, "s")
    for metric, span in CALL_COUNT_METRICS.items():
        value = MISSING if span in missing else sum(s.name == span for s in first.spans)
        out[metric] = (value, "count")

    # means over traced repetitions, like the self times, so that the self
    # times plus unattributed_s add up to traced_solve_s
    traced_solve = statistics.fmean(r.solve_s for r in traced)
    untraced_solve = statistics.median(r.solve_s for r in untraced)
    out["unattributed_s"] = (traced_solve - reported, "s")
    out["traced_solve_s"] = (traced_solve, "s")
    out["untraced_solve_s"] = (untraced_solve, "s")
    out["trace_overhead_frac"] = (traced_solve / untraced_solve - 1.0, "frac")
    out["trace.missing_targets"] = (len(tracer.missing), "count")

    out["rotation.iterations"] = (first.counts["iterations"], "count")
    out["translation.sweeps"] = (first.counts.get("translation_sweeps", 0), "count")
    for kind in ("schur", "partial_grad", "rhs"):
        out[f"decomposition.{kind}_bytes"] = (first.counts[f"{kind}_bytes"], "bytes")

    calls = [s.info for s in first.spans if s.name == "laplacians.sampling"]
    edges_in = sum(c["edges_in"] for c in calls)
    edges_out = sum(c["edges_out"] for c in calls)
    sampled = "laplacians.sampling" not in missing
    out["laplacians.sparsify_fallbacks"] = (
        sum(c["returned_input"] and c["epsilon"] > 0 for c in calls) if sampled else MISSING, "count")
    out["laplacians.sparsify_edges_in"] = (edges_in if sampled else MISSING, "count")
    out["laplacians.sparsify_edges_out"] = (edges_out if sampled else MISSING, "count")
    out["laplacians.kept_edge_frac"] = (
        (edges_out / edges_in if edges_in else 1.0) if sampled else MISSING, "frac")
    return out


def sparsify_lines(spans: list) -> list[str]:
    """One line per sparsify call: edges in and out, and which path it took."""
    lines = []
    per_stage: dict[str, int] = {}
    for s in spans:
        if s.name != "laplacians.sampling":
            continue
        parent = s
        while parent.parent >= 0 and parent.name not in STAGES:
            parent = spans[parent.parent]
        robot = per_stage.get(parent.name, 0)
        per_stage[parent.name] = robot + 1
        info = s.info
        if info["epsilon"] == 0:
            path = "exact (epsilon 0)"
        elif info["returned_input"]:
            path = "FALLBACK: returned the exact matrix"
        else:
            path = "sampled"
        lines.append(f"sparsify {parent.name} robot {robot}: {info['edges_in']} edges in, "
                     f"{info['edges_out']} out, {path}")
    return lines


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny instances for the smoke test, checked without reference counts")
    args = ap.parse_args(argv)

    import_lapra()
    env = environment()
    print("environment: " + json.dumps(env), flush=True)
    reference = None
    if args.size == "full":
        reference = json.loads(EXPECTED_PATH.read_text()).get(args.workload, {}).get(str(args.seed))
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}; reference counts "
          + ("recorded" if reference else "not recorded for this seed"), flush=True)

    with work_dir() as workdir:
        # fill lazy imports and caches on a tiny instance before timing
        warm = Harness(prepare(args.workload, args.seed, "tiny", workdir), trace=False)
        try:
            warm.run(False)
        finally:
            warm.close()
        t = time.perf_counter()
        prepared = prepare(args.workload, args.seed, args.size, workdir)
        print(f"inputs generated in {time.perf_counter() - t:.3f} s", flush=True)
        harness = Harness(prepared, trace=bool(args.trace))
        try:
            reps, failures = measure(harness, args.seconds, bool(args.trace), reference)
        finally:
            harness.close()
    return report(args, env, harness.tracer, reps, failures)


@contextlib.contextmanager
def work_dir():
    """A private directory under the checkout for generated files, removed afterwards."""
    path = ROOT / ".bench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def report(args, env: dict, tracer, reps: list[Rep], failures: int) -> int:
    """Print the human-readable summary, then the JSON result as the last line."""
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    failed = failures + sum(1 for r in reps if r.problems)
    attempted = failures + len(reps)
    problems = sorted({p for r in reps for p in r.problems})

    solve = [r.solve_s for r in untraced]
    tail = high_percentile(solve)
    print(f"solve_s (untraced): median {statistics.median(solve):.4f} s over {len(solve)} samples, "
          + (f"{tail[0]} {tail[1]:.4f} s" if tail else "too few samples for a tail percentile"))
    print(f"step time (untraced): median {1000 * statistics.median(r.step_s for r in untraced):.2f} ms; "
          f"reference loop: median {1000 * statistics.median(t for r in reps for t in r.ref_samples):.3f} ms")
    print("counts: " + json.dumps(reps[0].counts) + "; rmse: " + json.dumps(reps[0].rmse))
    print(f"failed_frac: {failed}/{attempted}")
    print("check: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))

    if args.trace:
        from tracer import spans_json

        for line in sparsify_lines(traced[0].spans):
            print(line)
        for path in tracer.missing:
            print(f"span target missing: {path}")
        metrics = layer_metrics(tracer, traced, untraced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "environment": env, "workload": args.workload, "seed": args.seed,
            "repetitions": [spans_json(r.spans) for r in traced],
        }))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(untraced)
    for name, (value, unit) in metrics.items():
        shown = "missing" if value == MISSING else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
