"""Benchmark of the hlmenger verifier: one workload per run.

    python3 perfbench/run.py --workload smec-cond-cq5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each request is what a user runs: the hlmenger CLI's
`verify` in process (plus direct `edge_connectivity`/`vertex_connectivity`
calls on direct-mq7, which the CLI does not expose). Requests repeat for
`--seconds`, in a closed loop with one client. Every verdict, witness cut
and report digest is checked; see certify.py.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer metrics of a traced run, which wraps the
package's entry points from outside (tracing.py). `--smoke` runs the same
code at tiny sizes, for the benchmark's own tests. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results, and in traced runs the spans, are also written to
`.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "hlmenger" / "__init__.py").is_file():
        print(f"error: no hlmenger sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
