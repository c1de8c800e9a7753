"""One workload in a fresh single-threaded process: set-up, timed rounds, checks.

Started by run.py, which sets PYTHONPATH to the checkout's ``src``, limits
numpy/BLAS to one thread and passes the spawn time in PERFBENCH_SPAWN
(CLOCK_MONOTONIC, shared by all processes).  Prints one JSON object.

    worker.py --probe                        # set-up time only
    worker.py --workload NAME --seed N --seconds S --trace 0|1 --size full|tiny --outdir DIR

Set-up is timed as the module loads, before anything else is imported.
"""

import os
import time


def _setup_seconds() -> float:
    """Time from the spawn of this interpreter until entcat's CLI parser is built."""
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    import entcat.cli

    entcat.cli._build_parser()
    return time.clock_gettime(time.CLOCK_MONOTONIC) - spawned


SETUP_RAW_S = _setup_seconds()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import entcat  # noqa: E402
import entcat.cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# Seconds of speed probing right after set-up.
SETUP_PROBE_S = 0.2


def run_op(op) -> tuple:
    """Run one CLI call in this process; returns (exit status or error text, output bytes)."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()) as stderr:
            status = entcat.cli.main(list(op.argv))
    except Exception:
        return traceback.format_exc(limit=3), b""
    if status != 0:
        return f"exit {status}: {stderr.getvalue().strip()}", b""
    if op.out is None:
        return 0, stdout.getvalue().encode()
    return 0, op.out.read_bytes()


def run_check(op, output: bytes) -> list:
    """The op's check; output too malformed to parse fails it instead of ending the run."""
    try:
        return op.check(output.decode())
    except Exception as exc:
        return [f"`entcat {op.argv[0]}`: check raised {exc!r}"]


def run_workload(wl, seconds: float, probe, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed (at least one), then check.

    Every round repeats the same inputs, so every output must equal the first
    round's byte for byte; the first round's outputs go through the checks.
    Calls are timed on the probe's clock and divided by the slowdown of the
    probe passes made during the call and right after it.  A round's time is
    the sum of its calls' times.
    """
    for path, text in wl.files.items():
        path.write_text(text)
    raw_s, scaled_s, first_op_s, statuses, digests = [], [], [], [], []
    reference = None
    with probe.interleaved():
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.round = len(raw_s)
            raw_s.append(0.0)
            scaled_s.append(0.0)
            outputs = []
            for i, op in enumerate(wl.ops):
                since = probe.mark()
                op_start = probe.clock()
                status, output = run_op(op)
                op_s = probe.clock() - op_start
                probe.run_pass()
                scaled = op_s / probe.slowdown(since)
                raw_s[-1] += op_s
                scaled_s[-1] += scaled
                if i == 0:
                    first_op_s.append(scaled)
                statuses.append(status)
                outputs.append(output)
            if reference is None:
                reference = outputs
            digests.append([hashlib.sha256(o).hexdigest() for o in outputs])
            if time.perf_counter() - start >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_errors = [
        run_check(op, reference[i]) if statuses[i] == 0 else [] for i, op in enumerate(wl.ops)
    ]
    errors = []
    failed = 0
    mismatched = False
    for r, round_digests in enumerate(digests):
        for i, op in enumerate(wl.ops):
            status = statuses[r * len(wl.ops) + i]
            where = f"round {r + 1} `entcat {op.argv[0]}`"
            if status != 0:
                errors.append(f"{where}: {status}")
                failed += 1
            elif round_digests[i] != digests[0][i]:
                errors.append(f"{where}: output differs from round 1 at the same seed")
                failed += 1
                mismatched = True
            elif check_errors[i]:
                failed += 1
    errors += [e for found in check_errors for e in found[:20]]
    return {
        "rounds": len(raw_s),
        "attempted": len(raw_s) * len(wl.ops),
        "failed": failed,
        "correct": not mismatched and not any(check_errors),
        "errors": errors,
        "wall_s": statistics.median(scaled_s),
        "items_per_s": statistics.median(wl.ops[0].work / t for t in first_op_s),
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": statistics.median(raw_s),
        "slowdown": probe.slowdown(),
        "round_slowdown": [r / s for r, s in zip(raw_s, scaled_s)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--outdir", type=Path)
    args = parser.parse_args(argv)

    if Path(entcat.__file__).resolve().parent.parent != SRC:
        print(f"entcat was imported from {entcat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup = {"setup_s": SETUP_RAW_S / speed.SpeedProbe().sample(SETUP_PROBE_S), "raw_setup_s": SETUP_RAW_S}
    if args.probe:
        print(json.dumps(setup))
        return 0
    if args.workload is None or args.outdir is None:
        parser.error("--workload and --outdir are required")

    workdir = args.outdir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, args.size, workdir)
    probe = speed.SpeedProbe()
    tracer = tracing.Tracer(probe.clock) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        result = run_workload(wl, args.seconds, probe, tracer)
    finally:
        shutil.rmtree(workdir)
    result.update(setup)
    if tracer is not None:
        result["layers"] = tracer.metrics(result["round_slowdown"])
        tracer.write(args.outdir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
