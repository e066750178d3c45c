"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload host_large --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` makes the traced run that reports the
per-layer metrics. Names and units of both sets live in
``BENCHMARK.json``; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every operation and correctness check passed. See
``perfbench/README.md`` for the workloads and what each metric means.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from report import Outcome  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HOST_WORKLOADS = ("host_small", "host_large", "host_thrash")
WORKLOADS = HOST_WORKLOADS + ("fleetd_ops",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="footprint multiplier; below 1 only for the self-tests",
    )
    return parser.parse_args(argv)


def declared_metrics(traced: bool):
    """``(name, unit)`` of the metrics this kind of run must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if traced else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def run_workload(args, out: Outcome) -> None:
    workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    spans_path = os.path.join(outdir, f"spans-{args.workload}.npz")
    try:
        if args.workload in HOST_WORKLOADS:
            import hosts
            hosts.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                time.perf_counter() - _PROCESS_T0, args.scale, out,
                spans_path,
            )
        else:
            import fleetd_ops
            fleetd_ops.run(
                args.seed, args.seconds, bool(args.trace),
                time.perf_counter() - _PROCESS_T0, args.scale, out,
                spans_path, workdir,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declared = declared_metrics(bool(args.trace))

    out = Outcome()
    try:
        run_workload(args, out)
    except Exception:  # an unhandled error fails the run, visibly
        out.ops(1, 1)
        out.note("unhandled error:\n" + traceback.format_exc())

    metrics = {}
    for name, unit in declared:
        if name in out.metrics:
            value = out.metrics.pop(name)
        elif args.trace:
            value = 0.0  # a layer this workload bypasses does no work
        else:
            out.ops(1, 1)
            out.note(f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in sorted(out.metrics):
        out.ops(1, 1)
        out.note(f"metric {name} is not declared in BENCHMARK.json")

    for line in out.notes:
        print(f"# {args.workload}: {line}")
    result = {
        "correct": out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
