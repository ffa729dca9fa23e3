"""mlbddc benchmark: time to solution of fixed BDDC workloads, with an
optional per-module trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload p2d-256 --seed 1 --seconds 20 --trace 0

`--trace 0` prints every end-to-end metric of BENCHMARK.json; `--trace 1`
prints every per-layer metric and writes the recorded spans to
bench/out/trace-<workload>-seed<seed>.json. Each metric line reads
`name value unit`; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The workloads, their
configurations and their reference outputs are in bench/workloads.json.
The seed only drives the random probe vectors: finite-element inputs are
fully determined by the workload configurations. End-to-end timings are in
reference seconds, wall seconds corrected for the machine's current speed
(bench/yardstick.py); the plain wall-clock medians are printed as well.
Self-tests: python3 -m pytest -q bench

The program is imported from src/ of the checkout. BLAS thread pools are
pinned to one thread so that timings on a small shared machine stay
steady; the solver itself runs with workers=1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, run_seconds: int):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: solve the given workload spec once and report peak memory
    p.add_argument("--rss-child", metavar="SPEC_JSON", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    bench_json = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "mlbddc" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"error: no mlbddc sources under {src} (run from a source checkout)",
              file=sys.stderr)
        return 2
    with open(bench_json) as fh:
        spec = json.load(fh)
    args = parse_args(argv, spec["run_seconds"])

    for var in PINNED_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import measure   # imports numpy, so only after the thread pins

    if args.rss_child:
        return measure.rss_child(json.loads(args.rss_child))
    workloads = measure.load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    traced = args.trace == 1
    out = measure.measure(args.workload, args.seed, args.seconds, traced, workloads)
    prov = measure.provenance(args.seed)
    for msg in out.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"workload {args.workload}: medians of {out.samples} timed solves")
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        value = out.metrics.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(f"failed_ratio {out.failed / out.attempted} ({out.failed}/{out.attempted})")
    print(f"yardstick_s {out.metrics['yardstick_s']} s; wall-clock medians: "
          + ", ".join(f"{k} {out.metrics[f'wall.{k}']} s"
                      for k in ("time_to_solution_s", "setup_s", "solve_s")))
    if traced:
        measure.write_trace(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                            args.workload, prov, metrics, out)
    correct = out.failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
