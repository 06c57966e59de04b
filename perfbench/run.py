"""entpot benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it, ``{"detail": ...}``, names
the tail percentile, the sample count, the work unit and the environment.
Metric names, units and bounds are in ``BENCHMARK.json``; what each one
means is in ``perfbench/README.md``.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One BLAS thread, set before numpy is imported. With two, OpenBLAS ran the
#: n = 12 products at 26 ms or at 45 ms per state from one run to the next of
#: the same seed, as the second core was free or not; with one, at 32-34 ms.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("cli-replay", "batch4-sweep", "nsweep-large", "minimize")


def parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up, print 'ready', exit (set-up probe)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "entpot" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'entpot'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import make_workload

    wl = make_workload(args.workload, ROOT, args.seed)
    if args.setup_only:
        try:
            wl.setup()
        finally:
            wl.close()
        print("ready", flush=True)
        return 0

    import json

    from report import end_to_end, per_layer

    try:
        if args.trace:
            result, detail = per_layer(wl, args.seconds)
        else:
            result, detail = end_to_end(wl, args.seconds)
    finally:
        wl.close()
    from harness import environment

    detail.update(workload=args.workload, seconds=args.seconds,
                  env=environment(ROOT, BLAS_THREADS, args.seed))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
