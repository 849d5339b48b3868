"""coxtile benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload hexagon-r8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # per-layer metrics

Each pass of a workload is one fresh worker process (see worker.py) with
BLAS and OpenMP pinned to one thread.  `--trace 0` reports the end-to-end
metrics; `--trace 1` adds a traced pass and reports the per-layer metrics
and the tracing overhead.  Job failures, including the known defects listed
in workloads.py, count in `failed`; `correct` is false when a job fails that
is not a known defect.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hexagon-r8", "refined-balance", "tiling-render", "general-coxeter"]
# Typical length of one pass on a 2-vCPU 2.0 GHz x86_64 VM; a run makes
# round(--seconds / this) passes.
PASS_SECONDS = {"hexagon-r8": 10.0, "refined-balance": 10.0, "tiling-render": 6.5, "general-coxeter": 9.0}
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole command stays under three minutes

END_TO_END = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs every job at toy sizes (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coxtile", "__init__.py")):
        sys.stderr.write("error: run from the repository root; src/coxtile is missing\n")
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    host = host_info(env)
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args, env, deadline, out_dir, host))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "/"
        for metric, (value, unit) in s["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def host_info(env):
    # numpy's version comes from a child with the workers' environment, so
    # this process never loads numpy or starts a BLAS thread pool.
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy or "missing",
        "machine": platform.machine(),
        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1",
    }


def worker(name, args, env, deadline, mode, pass_index=0, spans=None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--pass", str(pass_index),
        "--size", args.size, "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name, args, env, deadline, out_dir, host):
    worker(name, args, env, deadline, "setup")  # warm the bytecode and file caches
    setups = [worker(name, args, env, deadline, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    # A fixed pass count keeps the work of a run independent of how fast the
    # machine happens to be; a traced run needs one untraced pass to compare.
    count = 1 if args.trace else max(1, round(args.seconds / PASS_SECONDS[name]))
    passes = [worker(name, args, env, deadline, "batch", pass_index=k) for k in range(count)]
    setups += [p["setup_s"] for p in passes]
    runs = list(passes)
    traced = None
    if args.trace:
        spans = os.path.join(out_dir, f"spans-{name}-seed{args.seed}.jsonl")
        traced = worker(name, args, env, deadline, "trace", spans=spans)
        runs.append(traced)

    jobs = [job for run in runs for job in run["jobs"]]
    failures = [job for job in jobs if not job["ok"]]
    unexpected = [job for job in failures if not job["known_defect"]]
    if args.trace:
        from tracer import PER_LAYER

        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["batch_s"] - passes[0]["batch_s"]
        metrics = {m: (layers[m], unit) for m, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "batch_s": statistics.median(p["batch_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {m: (values[m], unit) for m, unit in END_TO_END.items()}
    summary = {
        "workload": name,
        "seed": args.seed,
        "size": args.size,
        "host": host,
        "passes": len(passes),
        "setup_samples": setups,
        "jobs": jobs,
        "attempted": len(jobs),
        "failed": len(failures),
        "failed_share": len(failures) / len(jobs),
        "correct": not unexpected,
        "metrics": metrics,
    }
    if traced is not None:
        summary["untraced_batch_s"] = passes[0]["batch_s"]
        summary["traced_batch_s"] = traced["batch_s"]
    with open(os.path.join(out_dir, f"result-{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    report(summary)
    return summary


def report(s):
    print(f"workload {s['workload']} seed={s['seed']} size={s['size']} passes={s['passes']} "
          f"(closed loop, one client, jobs one after another)")
    for job in s["jobs"]:
        status = "ok" if job["ok"] else ("FAILED, known defect" if job["known_defect"] else "FAILED")
        print(f"  job {job['name']:<26} {job['seconds']:9.3f} s  {status}")
        if job["error"]:
            print(f"      {job['error']}")
    for metric, (value, unit) in s["metrics"].items():
        print(f"  {metric} = {value:.6g} {unit}")
    print(f"  failed_share = {s['failed_share']:.4f} share ({s['failed']} of {s['attempted']} jobs)")
    if "traced_batch_s" in s:
        print(f"  batch_s untraced {s['untraced_batch_s']:.4f} s, traced {s['traced_batch_s']:.4f} s")
        layer_self = {
            m.split(".")[0]: v
            for m, (v, _) in s["metrics"].items()
            if m.count(".") == 1 and m.endswith(".self_s")
        }
        total = sum(layer_self.values()) or 1.0
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{layer} {100 * v / total:.1f}%" for layer, v in ranked)
        print(f"  self-time shares by layer: {shares}")


if __name__ == "__main__":
    sys.exit(main())
