#!/usr/bin/env python3
"""Benchmark of the ncpain toolkit, run from the root of a source checkout.

    python3 benchmark/run.py --workload dress-heavy --seed 1 --seconds 20 \\
        --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py and described in interactions.json.
Each run makes its inputs from ``--seed``, warms up on a tiny copy of the
workload, and then repeats timed passes over the inputs for about
``--seconds`` seconds, checking every output of every pass against its
tolerance and against the first pass.

Times are reported in reference seconds (calibration.py): the shared host
changes speed by up to 2x within seconds, so a fixed kernel is timed every
0.1 s during the passes and each stretch of a pass is scaled by the host
speed measured around it.  The raw wall times are kept in the result file.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: counts and self times from the first traced pass, the
tracing overhead (median traced minus median untraced pass time) and the
fixed-size kernels of kernels.py.  The last line of
standard output is one JSON object; a run writes its full record and the
spans under ``.benchmark_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".benchmark_work"
WORKLOADS = ("suite", "dress-heavy", "moyal-qd", "flow")

SETUP_CODE = "import ncpain, ncpain.cli; ncpain.cli.build_parser()"
SETUP_REPEATS = 9
MIN_PASSES = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a smoke-test size")
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import ncpain.cli
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ncpain_threads": ncpain.cli.max_workers(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def measure_setup() -> tuple:
    """Median time of a fresh interpreter importing the CLI.

    Returns (reference seconds, wall seconds).  The benchmark and the child
    share one CPU meanwhile, so that the host speed measured just before
    and just after each start is the speed the child ran at.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    wall, scaled = [], []
    try:
        # The first start may compile bytecode; it is not counted.  No
        # timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantize a 0.2 s measurement.
        for _ in range(SETUP_REPEATS + 1):
            before = calibration.speed_factor()
            start = perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            wall.append(perf_counter() - start)
            speed = (before + calibration.speed_factor()) / 2
            scaled.append(wall[-1] / speed)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def _timed(run, intervals) -> list:
    gc.collect()
    start = perf_counter()
    failures = run()
    intervals.append((start, perf_counter()))
    return failures


def _wall(intervals) -> list:
    return [end - start for start, end in intervals]


def timed_passes(wl, seconds: float, traced: bool):
    """Passes until the next one would end after ``seconds``; >= MIN_PASSES.

    With ``traced``, each untraced pass is followed by a traced one, so that
    slow phases of a shared machine hit both sides of the overhead alike.
    Returns the untraced and the traced passes' (start, end) intervals, the
    calibration sampler that ran through them, the first pass's tracer and
    the failure messages.
    """
    import tracing

    plain, traced_passes, failures = [], [], []
    first_tracer = None
    deadline = perf_counter() + seconds
    with calibration.Sampler() as sampler:
        while True:
            if len(plain) >= MIN_PASSES:
                cycle = statistics.median(_wall(plain))
                if traced:
                    cycle += statistics.median(_wall(traced_passes))
                if perf_counter() + cycle > deadline:
                    break
            failures += _timed(wl.run_pass, plain)
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    failures += _timed(lambda: wl.run_pass(tracer),
                                       traced_passes)
                finally:
                    tracer.uninstall()
                first_tracer = first_tracer or tracer
    return plain, traced_passes, sampler, first_tracer, failures


def run_one(args) -> dict:
    import kernels
    import workloads

    spec = json.loads(SPEC.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "trace": args.trace,
              "size": args.size, "environment": environment(args.seed)}
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()

    wl = workloads.build(args.workload, args.seed, args.size,
                         str(work / "out"))
    # Lazy set-up (first calls into numpy and every code path) finishes on
    # a tiny copy of the workload, which is checked but not counted.
    workloads.build(args.workload, args.seed, "tiny",
                    str(work / "warmup")).run_pass()

    plain, traced_passes, sampler, tracer, failures = timed_passes(
        wl, args.seconds, traced=bool(args.trace))
    times = sampler.normalized(plain)
    traced_times = sampler.normalized(traced_passes)
    run_s = statistics.median(times)
    attempted = (len(times) + len(traced_times)) * len(wl.ops)
    failed_share = len(failures) / attempted

    if args.trace:
        tracer.write_spans(str(work / "spans.jsonl"))
        traced_s = statistics.median(traced_times)
        values = tracer.layer_metrics()
        values.update({"trace.run_s": traced_s, "trace.untraced_run_s": run_s,
                       "trace.overhead_s": traced_s - run_s})
        values.update(kernels.measure(args.seed))
    else:
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": 1.0 - failed_share,
        }
    if set(values) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")

    record.update({
        "inputs": wl.inputs, "pass_s": times, "traced_pass_s": traced_times,
        "wall_pass_s": _wall(plain),
        "wall_traced_pass_s": _wall(traced_passes),
        "wall_setup_s": setup_wall_s,
        "kernel_s": [d for _, d in sampler.samples],
        "attempted": attempted,
        "failed": len(failures), "failed_share": failed_share,
        "failures": failures, "recorded": wl.values,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })
    work.mkdir(parents=True, exist_ok=True)
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    return record


def print_record(record):
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    for key, value in sorted(record["recorded"].items()):
        print(f"recorded {key} = {value!r}")
    for label, key in (("passes", "pass_s"),
                       ("traced passes", "traced_pass_s"),
                       ("passes, wall", "wall_pass_s"),
                       ("traced passes, wall", "wall_traced_pass_s")):
        if record[key]:
            unit = "s" if "wall" in key else "reference s"
            print(f"{label} {len(record[key])}: "
                  + ", ".join(f"{t:.3f}" for t in record[key]) + f" {unit}")
    print(f"failed_share = {record['failed_share']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def result_line(record) -> str:
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}")
        print(proc.stdout.strip().rsplit("\n", 1)[0])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncpain" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} has no src/ncpain or no BENCHMARK.json; run "
              "from a full source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record = run_one(args)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
