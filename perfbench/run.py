"""Benchmark entcat's command line on four workloads.

    python3 perfbench/run.py --workload sweep-long-chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads, one after another

Each workload runs in its own single-threaded child process (worker.py)
against the package in this checkout's ``src``.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics from
spans around entcat's public functions.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Result and trace
files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES, SIZES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Fresh interpreters timed for setup_s besides the worker itself.
PROBES = 6
# Together these stay under the 180 s a run may take.
PROBE_TIMEOUT_S = 5
WORKER_TIMEOUT_S = 130
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn_worker(args: list, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PERFBENCH_SPAWN"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} took over {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Set-up probes, then the workload; returns the result object for this workload."""
    probes = 1 if size == "tiny" else PROBES
    setup = [spawn_worker(["--probe"], PROBE_TIMEOUT_S) for _ in range(probes)]
    run = spawn_worker(
        ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace), "--size", size, "--outdir", str(OUT)],
        WORKER_TIMEOUT_S,
    )
    setup.append(run)
    if trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setup), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "items_per_s": {"value": run["items_per_s"], "unit": "items/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for error in run["errors"][:20]:
        print(f"{name}: {error}")
    print(f"{name}: {run['rounds']} rounds{' traced' if trace else ''}; median round {run['wall_s']:.6g} s at the"
          f" reference speed, {run['raw_wall_s']:.6g} s as measured; set-up"
          f" {statistics.median(p['raw_setup_s'] for p in setup):.6g} s as measured; machine slowdown {run['slowdown']:.4g}")
    for metric, m in metrics.items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  attempted = {run['attempted']}, failed = {run['failed']}, correct = {run['correct']}")
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entcat" / "__init__.py").is_file():
        print(f"no entcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stale in OUT.glob("work-*"):
            shutil.rmtree(stale, ignore_errors=True)

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
