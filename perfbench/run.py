"""hmclab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sample-cli --seed 0 --seconds 15 --trace 0

Workloads: sample-cli, mala-vs-hmc, mixing-wide, analysis-logistic (see
perfbench/NOTES.md).  run.py turns --seed into the workload's input
files, then runs each process in a fresh interpreter, one after another:

  --trace 0  two set-up-only processes and one measuring process, which
             sets up and repeats the workload's closed-loop pass until
             --seconds have passed (at least three passes).  Reports every
             end-to-end metric.
  --trace 1  one untraced and one traced measuring process on the same
             inputs, half the time and at least two passes each.  Reports
             every per-layer metric and trace.overhead_s, and checks that
             both produce the same output digest.

Every run checks the workload's outputs and that each pass's output digest
equals the others and the digest an earlier run of the same sources and seed
recorded under .perfbench_run/.  Human-readable lines come first; the last
line of standard output is the JSON result.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

from tracer import UNITS as LAYER_UNITS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3  # set-ups per --trace 0 run; setup_s is their median
RUN_BUDGET_S = 170.0  # every process of a run ends within this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the harness self-test only")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """BLAS and OpenMP threads capped at the number of usable cores."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = min(int(env.get(var, cap)), cap)
        except ValueError:
            n = cap
        env[var] = str(max(n, 1))
    return env


def source_hash() -> str:
    """Digest of the library and benchmark sources (keys the digest registry)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def machine_info(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    env = worker_env()
    return {
        "nproc": nproc(),
        "blas": blas,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(),
        "source_hash": source_hash(),
        "workload_seed": seed,
    }


def spawn(job: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    job = dict(job, workdir=str(run_dir / tag), result_path=str(run_dir / f"{tag}.result.json"))
    os.makedirs(job["workdir"], exist_ok=True)
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        env=worker_env(), stdout=subprocess.DEVNULL,
        timeout=max(deadline - t_spawn, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with code {proc.returncode}")
    result = json.loads(Path(job["result_path"]).read_text())
    result["setup_s"] = result["setup_done"] - t_spawn
    return result


def check_registry(key: str, digest: str) -> tuple[bool, str]:
    """Compare with (or record) the digest of earlier runs of the same key."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == digest, f"recorded {known[key][:12]}, now {digest[:12]}"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True, f"first run, recorded {digest[:12]}"


def run(args) -> tuple[dict, int]:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    run_dir = WORK / f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir / "inputs")
    try:
        inputs = wl.make_inputs(args.seed, size, str(run_dir / "inputs"))
        job = {"workload": args.workload, "seed": args.seed, "size": size, "inputs": inputs,
               "trace": False, "setup_only": False, "min_passes": 3,
               "seconds": args.seconds, "hard_deadline": deadline - 20.0}
        checks, extra = [], {}
        if args.trace == 0:
            setups = [spawn(dict(job, setup_only=True), run_dir, f"setup{i}", deadline)
                      for i in range(SETUP_SAMPLES - 1)]
            main = spawn(job, run_dir, "main", deadline)
            setup_samples = [r["setup_s"] for r in setups] + [main["setup_s"]]
            wall = statistics.median(main["walls"]) if main["walls"] else 0.0
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": wall,
                "throughput_per_s": statistics.median(main["rates"]) if main["rates"] else 0.0,
                "peak_rss_mb": main["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
            extra["setup_samples_s"] = setup_samples
            if "ess" in main["facts"] and wall > 0:
                extra["ess"] = main["facts"]["ess"]
                extra["ess_per_s"] = main["facts"]["ess"] / wall
            runs = [("", main)]
        else:
            # two passes each, so that both medians include the slower first pass alike
            half = dict(job, seconds=args.seconds / 2.0, min_passes=2)
            plain = spawn(half, run_dir, "untraced", deadline)
            spans = WORK / "traces" / f"{args.workload}.spans.csv"
            traced = spawn(dict(half, trace=True, spans_path=str(spans)), run_dir, "traced", deadline)
            metrics = dict(traced.get("per_layer", {}))
            if plain["walls"] and traced["walls"]:
                metrics["trace.overhead_s"] = (statistics.median(traced["walls"])
                                               - statistics.median(plain["walls"]))
            units = LAYER_UNITS
            pair = (plain["digests"] or [None])[0], (traced["digests"] or [None])[0]
            checks.append(("traced_digest_equals_untraced", None not in pair and pair[0] == pair[1],
                           f"{pair[0]} vs {pair[1]}"))
            if wl.trace_note:
                extra["trace_note"] = wl.trace_note
            runs = [("untraced.", plain), ("traced.", traced)]
        for label, res in runs:
            if res["error"]:
                checks.append((f"{label}no_exception", False, res["error"].strip().splitlines()[-1]))
                print(res["error"], file=sys.stderr)
            checks += [tuple(c) for c in res["checks"]]
            if res["digests"]:
                distinct = len(set(res["digests"]))
                checks.append((f"{label}digest_stable_across_passes", distinct == 1,
                               f"{distinct} distinct digest(s) over {len(res['digests'])} passes"))
        first = runs[0][1]
        if first["digests"]:
            key = f"{source_hash()}:{args.workload}:{args.size}:seed{args.seed}"
            ok, detail = check_registry(key, first["digests"][0])
            checks.append(("digest_matches_earlier_runs", ok, detail))
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        correct = bool(checks) and all(ok for _, ok, _ in checks) and failed == 0
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "machine": machine_info(args.seed),
            "passes": {label or "main": len(r["walls"]) for label, r in runs},
            "walls_s": {label or "main": r["walls"] for label, r in runs},
            "digest": first["digests"][0] if first["digests"] else None,
            "checks": [list(c) for c in checks], "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            **extra,
        }
        return report, (0 if correct else 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hmclab" / "__init__.py").is_file():
        print(f"error: hmclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(WORK / "results", exist_ok=True)
    os.makedirs(WORK / "traces", exist_ok=True)
    report, code = run(args)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(report, indent=1))

    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: passes {report['passes']}")
    for check_name, ok, detail in report["checks"]:
        print(f"check {check_name}: {'PASS' if ok else 'FAIL'} {detail}")
    for k, m in report["metrics"].items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    if "ess_per_s" in report:
        print(f"info ess = {report['ess']:.1f}, ess_per_s = {report['ess_per_s']:.6g} 1/s")
    if "trace_note" in report:
        print(f"info {report['trace_note']}")
    print(f"info error_rate = {report['failed']}/{report['attempted']} = {report['error_rate']:.3g}")
    expected = END_TO_END_UNITS if args.trace == 0 else LAYER_UNITS
    missing = sorted(set(expected) - set(report["metrics"]))
    if missing:
        print(f"check all_metrics_emitted: FAIL missing {missing}")
        code = 1
    print(json.dumps({
        "correct": code == 0,
        "attempted": max(int(report["attempted"]), 1),
        "failed": int(report["failed"]),
        "metrics": report["metrics"],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
