"""Record the per-seed counts and RMSE that run.py checks every repetition against.

    python3 perfbench/record.py --seeds 0-19 [--workload NAME ...]

Runs each workload once per seed at full size and merges the iteration
counts, sweep counts, bytes by kind and RMSE into perfbench/expected.json.
These values are behaviour, not timing: re-record them only together with
a change that is meant to alter them, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins the BLAS threads before numpy is imported


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-19")
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    run.import_lapra()
    expected = json.loads(run.EXPECTED_PATH.read_text())
    with run.work_dir() as workdir:
        for name in args.workload or sorted(run.WORKLOADS):
            for seed in seeds:
                harness = run.Harness(run.prepare(name, seed, "full", workdir), trace=False)
                try:
                    rep = harness.run(False)
                finally:
                    harness.close()
                run.check(rep, None, None)
                if rep.problems:
                    print(f"{name} seed {seed}: {rep.problems}", file=sys.stderr)
                    return 1
                expected.setdefault(name, {})[str(seed)] = {**rep.counts, **rep.rmse}
                print(f"{name} seed {seed}: {rep.counts} {rep.rmse}", flush=True)
                run.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
