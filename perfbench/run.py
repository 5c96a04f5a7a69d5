"""lowmach benchmark entry point.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lowmach is imported from ``src/``
of that checkout.  With ``--trace 0`` the last line of standard output is
the end-to-end result, with ``--trace 1`` the per-layer result, each as
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is the full record (environment, samples,
gate problems), which is also written to ``perfbench/out/``.  Exits 2
without a result when the checkout holds no lowmach sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "lowmach" / "__init__.py").is_file():
        print(f"no lowmach sources under {src}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads: the workloads are a
    # single client on small vectors, and one thread keeps timings steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Stay on one CPU, with the set-up probes (children inherit this), so
    # that the calibration kernel times the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(src), str(HERE)]

    import lowmach
    if not Path(lowmach.__file__).resolve().is_relative_to(src):
        print(f"lowmach imported from {lowmach.__file__}, not from {src}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {list(bench.workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, out_dir)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    units = bench.LAYER_UNITS if args.trace else bench.END_TO_END_UNITS
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
