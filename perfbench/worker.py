"""One benchmark process: set up a workload, run timed passes, check them.

Usage (started by run.py, one fresh interpreter per process):

    python3 perfbench/worker.py JOB.json

The job file names the workload, its inputs and sizes, the run length and
whether to trace.  The worker writes its result next to the job file as
JSON; it prints nothing that run.py reads.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def run_job(job: dict) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]]
    st = wl.setup(job)
    result = {"setup_done": time.monotonic()}
    if job["setup_only"]:
        return result

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    pass_dir = os.path.join(job["workdir"], "out")
    os.makedirs(pass_dir, exist_ok=True)
    walls, rates, digests = [], [], []
    attempted = failed = 0
    facts = {}
    error = None
    started = time.monotonic()
    while True:
        t0 = time.perf_counter()
        try:
            raw = wl.run_pass(st, pass_dir)
        except Exception:  # a raising run counts all its operations as failed
            error = traceback.format_exc()
            n = wl.planned_ops(st)
            attempted, failed = attempted + n, failed + n
            break
        wall = time.perf_counter() - t0
        mark = len(tracer.spans) if tracer else 0
        seen = wl.inspect(st, raw)
        if tracer:
            del tracer.spans[mark:]  # spans of the untimed inspection are not the pass's
        walls.append(wall)
        rates.append(seen["work"] / seen.get("work_seconds", wall))
        digests.append(seen["digest"])
        attempted += seen["attempted"]
        failed += seen["failed"]
        facts = seen["facts"]
        now = time.monotonic()
        if now >= job["hard_deadline"]:
            break
        if len(walls) >= job["min_passes"] and now - started >= job["seconds"]:
            break

    result.update(walls=walls, rates=rates, digests=digests, attempted=attempted,
                  failed=failed, facts=facts, error=error,
                  checks=[list(c) for c in wl.check(st, facts)] if walls else [])
    if tracer:
        result["per_layer"] = layers = tracing.per_layer_metrics(tracer.spans, len(walls))
        if wl.divergence_seen_by_trace_only:
            result["failed"] += round(layers["kernel.diverged"] * len(walls))
        tracer.write_spans(job["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str]) -> int:
    job_path = argv[1]
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_job(job)
    tmp = job["result_path"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
