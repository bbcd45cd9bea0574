"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a
separate traced pass and prints every per-layer metric.  The last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host (``nproc``, numpy, BLAS and its thread count).  A
Chrome trace of a traced run lands in ``.perfbench/``.  Workloads and
metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("infer-noisy", "train-inloop", "serve-mix")

#: BLAS/OpenMP threads per process.  One everywhere: the in-process
#: workloads measured faster single-threaded on a 2-core host, and the
#: server shares the cores with the load generator.
BLAS_THREADS = "1"

#: ``prctl`` option that turns transparent huge pages off for this
#: process and every process it starts.  Whether numpy's large arrays
#: get huge pages depends on the kernel's free-memory state at each
#: allocation; with them, one ``infer-noisy`` image took 0.56-1.28 s
#: within a run, without them 1.14-1.18 s.
PR_SET_THP_DISABLE = 41


def parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    # Thread counts and pages must be fixed before numpy is first
    # imported.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[key] = BLAS_THREADS
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_THP_DISABLE)")
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(root / "src")]

    import common
    import serve_mix
    import workloads

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": trace,
                      **common.environment()}))
    if args.workload == "serve-mix":
        mix = serve_mix.ServeMix(args.seed, out_dir)
        correct, attempted, failed, metrics = mix.run(args.seconds, trace)
    else:
        workload = workloads.IN_PROCESS[args.workload](args.seed)
        correct, attempted, failed, metrics = workloads.drive(
            workload, args.seconds, trace, out_dir)
    names = common.PER_LAYER if trace else tuple(common.END_TO_END)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]),
                   "unit": common.unit_of(name)}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
