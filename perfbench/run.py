#!/usr/bin/env python3
"""Benchmark of mvsweep, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run builds the workload's inputs from --seed, then repeats whole rounds
of operations (one per input) for about --seconds seconds, checking every
output.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  With
--workload all every workload runs in its own process and the last line maps
each workload to its result.
"""

import os

# One BLAS thread, fixed before numpy loads: results and timings then do not
# depend on the core count or on what else shares the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("detect", "refine", "refine-plateau")


def _import_engine():
    """Put the checkout's own sources first on the path; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mvsweep", "__init__.py")):
        raise SystemExit(f"perfbench: no mvsweep sources under {src}")
    sys.path.insert(0, src)
    import mvsweep

    if os.path.dirname(os.path.dirname(os.path.abspath(mvsweep.__file__))) != src:
        raise SystemExit(f"perfbench: imported mvsweep from {mvsweep.__file__}, not {src}")


def run_workload(name, seed, seconds, trace):
    _import_engine()
    import checks
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else spans.NullTracer()
    saved = spans.install(tracer) if trace else []
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    try:
        scenes, setup_times = [], []
        for j, s in enumerate(workload.seeds(seed, workload.inputs)):
            with tracer.span("setup"):
                t0 = time.perf_counter()
                scenes.append(workload.build(s, os.path.join(run_dir, f"scene{j}"),
                                             os.path.join(run_dir, f"out{j}")))
                setup_times.append(time.perf_counter() - t0)

        correct, attempted, failed, rounds = True, 0, 0, 0
        round_means = []
        start = time.perf_counter()
        while True:
            rounds += 1
            op_seconds = []
            for scene in scenes:
                attempted += 1
                try:
                    op_seconds.append(workload.op(scene, tracer))
                except checks.CheckFailed as exc:
                    correct = False
                    print(f"perfbench: check failed: {exc}", file=sys.stderr)
                except Exception:
                    failed += 1
                    traceback.print_exc()
            if op_seconds:
                round_means.append(statistics.fmean(op_seconds))
            # Whole rounds only; stop before a round that would overrun.
            if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                break
        if not round_means:
            raise SystemExit("perfbench: every operation failed")
        if trace:
            tracer.write(os.path.join(WORK, "traces", f"{name}-seed{seed}.json"))
    finally:
        spans.restore(saved)
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        loss = statistics.fmean(s.loss_final for s in scenes)
        values = spans.layer_metrics(tracer, loss)
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(round_means), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "depth_rmse_m": (statistics.fmean(s.rmse for s in scenes if s.rmse is not None), "m"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:15s} {metric:36s} {m['value']:.6g} {m['unit']}")
        print(f"{name:15s} attempted {results[name]['attempted']} failed "
              f"{results[name]['failed']} correct {results[name]['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
