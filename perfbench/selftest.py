"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed and matches the harness, that
every workload emits every named metric with its unit in both the untraced
and the traced run with all correctness checks passing, that each
workload's checks reject wrong outputs, and that the benchmark refuses to
run without the library sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, WORK  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg: str) -> None:
    print(f"selftest FAIL: {msg}")
    sys.exit(1)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("workload names differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"bad workload entry {w}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if {k: m["unit"] for k, m in e2e.items()} != END_TO_END_UNITS:
        fail("end_to_end metrics or units differ from run.END_TO_END_UNITS")
    if e2e["setup_s"]["better"] != "lower" or e2e["setup_s"]["bound"] != max(
            m["bound"] for m in e2e.values()):
        fail("setup_s must be lower-is-better with the largest bound")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end_to_end entry {m}")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != list(PER_LAYER):
        fail("per_layer metrics differ from tracer.PER_LAYER")
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        if not NAME.match(m["name"]) or ("unit" in m and not UNIT.match(m["unit"])):
            fail(f"bad name or unit in {m}")
        if m.get("better", "lower") not in ("lower", "higher"):
            fail(f"bad direction in {m}")
    return spec


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(workload, trace)
            if code != 0 or not lines:
                fail(f"{workload} trace {trace} exited {code}: {lines[-5:]}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{workload} trace {trace}: {lines[-1][:200]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace} metrics differ: {set(want) ^ set(got)}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                fail(f"{workload} trace {trace}: non-numeric metric value")
            ran = [ln for ln in lines if ln.startswith("check ")]
            if not ran or any(": FAIL" in ln for ln in ran):
                fail(f"{workload} trace {trace}: checks {ran}")
            print(f"selftest ok: {workload} trace {trace}, {len(want)} metrics, {len(ran)} checks")


def check_rejections() -> None:
    """Each workload's checks must reject outputs that are wrong."""
    bad_facts = {
        "sample-cli": [{"exit_code": 0, "parsed": True, "rows": 80, "finite_positions": True,
                        "acceptance": 0.2},
                       {"exit_code": 0, "parsed": True, "rows": 79, "finite_positions": True,
                        "acceptance": 0.85}],
        "mala-vs-hmc": [{"finite_rows": True, "ratios": {"q1": 3.0, "qnorm2": 1.2}}],
        "mixing-wide": [{"finite_tv": True, "epsilon": 0.2, "mixing_steps": {"4": 32},
                         "tv_at_hit": {"4": 0.3}},
                        {"finite_tv": True, "epsilon": 0.2, "mixing_steps": {},
                         "tv_at_hit": {}}],
        "analysis-logistic": [{"errors": {}, "kl": -0.01, "kl_se": 0.001, "kl_bound": 0.02,
                               "n_violated": 0, "all_orderings_ok": True},
                              {"errors": {}, "kl": 0.0, "kl_se": 0.001, "kl_bound": 0.02,
                               "n_violated": 1, "all_orderings_ok": True},
                              {"errors": {"tensor-report": "boom"}, "kl": 0.0, "kl_se": 0.001,
                               "kl_bound": 0.02, "n_violated": 0, "all_orderings_ok": False}],
    }
    for name, cases in bad_facts.items():
        st = {"size": SIZES[name]["tiny"]}
        for facts in cases:
            if all(ok for _, ok, _ in WORKLOADS[name].check(st, facts)):
                fail(f"{name} checks accepted wrong output {facts}")
    print("selftest ok: every workload's checks reject wrong outputs")


def check_bare_directory() -> None:
    """Without the library sources the benchmark must fail and print no result."""
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, lines = run_bench("sample-cli", 0, cwd=bare)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            fail(f"bare directory run exited {code} with output {lines[-3:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest ok: a directory without the sources is refused")


def main() -> int:
    spec = check_spec()
    print("selftest ok: BENCHMARK.json matches the harness")
    check_rejections()
    check_bare_directory()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
