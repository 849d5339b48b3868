"""One fresh process running one pass of one workload; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --pass K --size full \
        --mode {setup,batch,trace} --t0 T [--spans PATH]

`--t0` is CLOCK_MONOTONIC read by the parent just before it started this
process, so set-up time covers interpreter start, importing coxtile and
generating the inputs.  In `setup` mode the process stops there.  Otherwise
it runs the job list one job after another (a closed loop with one client),
times each job, reads the peak RSS after each job, and checks each job's
output outside the timed region.  The last stdout line is a JSON record.
"""

import argparse
import json
import resource
import time
import traceback


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--mode", choices=["setup", "batch", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import workloads
    from oracles import CheckFailed
    from tracer import Tracer

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index, args.size)
    jobs = workloads.build_jobs(args.workload, inputs)
    setup_s = _now() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()
    records = []
    batch_s = 0.0
    peak_rss_mb = 0.0
    for job in jobs:
        error = None
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failing job is counted, and the batch goes on
            result = None
            error = f"raised {type(exc).__name__}: {exc} [{_where(exc)}]"
        seconds = time.perf_counter() - start
        batch_s += seconds
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_rss_mb = max(peak_rss_mb, rss_mb)
        tracer.enabled = False
        if error is None:
            try:
                job.check(result)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # the output broke the check itself
                error = f"check raised {type(exc).__name__}: {exc} [{_where(exc)}]"
        del result
        tracer.enabled = True
        records.append(
            {
                "name": job.name,
                "seconds": seconds,
                "peak_rss_mb": rss_mb,
                "ok": error is None,
                "error": error,
                "known_defect": workloads.KNOWN_DEFECTS.get(job.name),
            }
        )
    tracer.uninstall()
    out = {"setup_s": setup_s, "batch_s": batch_s, "peak_rss_mb": peak_rss_mb, "jobs": records}
    if args.mode == "trace":
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))


def _where(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"


if __name__ == "__main__":
    main()
