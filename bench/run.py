"""Run one workload of the intentclf benchmark and print its metrics.

    python3 bench/run.py --workload pipeline-default --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout that holds ``src/intentclf``; the
program is imported from that source tree. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones and a self-time table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.bench_runs/`` at the checkout root; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: with OpenBLAS's default of one thread per core, pretrain
# on 2 cores spread twice as wide between runs. Set before numpy loads.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one intentclf benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative; makes the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _print_report(workloads, result: dict, trace: bool) -> None:
    print("checks:")
    for check in result["checks"]:
        print(f"  {'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    print("info " + json.dumps(result["info"]))
    print("metrics:")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        return
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    for what, untraced, traced in (
        ("pipeline_s", m["trace.pipeline_s_untraced"], m["trace.pipeline_s_traced"]),
        ("classify_p50_ms", m["trace.classify_p50_ms_untraced"], m["trace.classify_p50_ms_traced"]),
    ):
        print(f"tracing overhead on {what}: untraced {untraced:.4f}, traced {traced:.4f} "
              f"({100 * (traced / untraced - 1):+.1f}%)")
    for title, spans in (("traced pipeline passes", result["pipeline_spans"]),
                         ("traced server", result["server_spans"])):
        rows = workloads.tracing.layer_table(spans)
        wall = sum(r["self_s"] for r in rows) or 1.0
        print(f"per-layer self time, {title} (all calls, summed):")
        print(f"  {'span':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s} errors")
        for r in rows:
            print(f"  {r['name']:32s} {r['calls']:8d} {r['total_s']:10.4f} {r['self_s']:10.4f} "
                  f"{100 * r['self_s'] / wall:6.1f} {r['errors']}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "intentclf" / "__init__.py").is_file():
        print(f"error: no intentclf package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = workloads.environment(f"{BLAS_THREADS} (fixed by the benchmark via {', '.join(BLAS_THREAD_VARS)})")
    print("env " + json.dumps(env), flush=True)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    out_dir = ROOT / ".bench_runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    result = workloads.run_workload(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    shutil.rmtree(out_dir / "work", ignore_errors=True)

    _print_report(workloads, result, bool(args.trace))
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
