"""Run one chargenet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_art --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``. Output:
a table of every metric with its unit, a JSON line with the full report
(provenance, counts and the metrics that are not gated), and, last, the
gated result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` that line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_fact", "train_art", "serve_art"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chargenet" / "__init__.py").is_file():
        print(f"error: no chargenet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process, one BLAS thread: the load comes from this thread alone.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    report = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.print_report(report)
    print(json.dumps({"report": report}))
    print(json.dumps(bench.result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
