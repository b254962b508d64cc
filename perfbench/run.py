"""lcowind benchmark: one workload, measured for a fixed time, printed as JSON.

    python3 perfbench/run.py --workload vdp-gradient --seed 1 --seconds 25 --trace 0

Each operation calls `lcowind.cli.main` in this process on a config drawn
from the seed, one client in a closed loop, with BLAS pinned to one thread.
With `--trace 0` the run samples the host's speed during every operation
and reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the run's metadata and a summary of its untraced operations (error
rate, median seconds per operation, throughput).  The program exits 2 without a
result when the lcowind sources are not next to this directory.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import harness
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    meta, result = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
