"""The four benchmark workloads.

Each workload has two halves.  `make_inputs` runs in run.py
(numpy only, no hmclab import) and turns the workload seed into input
files and parameters.  `setup`, `run_pass`, `inspect` and `check` run in a
fresh worker interpreter: `setup` imports hmclab and builds what the first
timed call needs, `run_pass` is the timed closed-loop call into hmclab's
public entry points, `inspect` (untimed) turns one pass's output into a
digest, operation counts and the facts the correctness checks read, and
`check` returns (name, ok, detail) triples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback

import numpy as np

# Sizes.  "full" is what the benchmark measures; "tiny" is for the harness
# self-test only.
SIZES = {
    "sample-cli": {
        "full": {"n": 64, "d": 32, "chains": 8, "steps": 500, "eta": 0.45, "K": 4},
        "tiny": {"n": 16, "d": 8, "chains": 2, "steps": 40, "eta": 0.45, "K": 4},
    },
    "mala-vs-hmc": {
        "full": {"d": 256, "n_rep": 4, "grad_budget": 6000},
        "tiny": {"d": 64, "n_rep": 2, "grad_budget": 2000},
    },
    "mixing-wide": {
        "full": {"dims": [16, 64], "n_chains": 16384, "eta": 0.1, "K": 2, "epsilon": 0.1},
        "tiny": {"dims": [4], "n_chains": 4096, "eta": 0.25, "K": 2, "epsilon": 0.2},
    },
    "analysis-logistic": {
        "full": {"n": 32, "d": 16, "overlap_K": 4, "overlap_eta": 0.01, "kl_draws": 1000,
                 "lemma_draws": 2000, "sampler_warmup": 500, "tensor_points": 4, "restarts": 20},
        "tiny": {"n": 8, "d": 4, "overlap_K": 2, "overlap_eta": 0.02, "kl_draws": 200,
                 "lemma_draws": 500, "sampler_warmup": 50, "tensor_points": 1, "restarts": 3},
    },
}

# Acceptance band recorded for sample-cli: seeds 0-3 gave 0.855-0.869.
SAMPLE_ACCEPT_BAND = (0.70, 0.95)
# Criterion 8's requirement on the MALA/HMC gradient cost per effective sample.
MIN_COST_RATIO = 1.5


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def write_logistic_data(path: str, n: int, d: int, seed: int) -> None:
    """Unit-norm covariate rows with labels drawn from a random logistic model."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    theta = rng.standard_normal(d)
    y = (rng.random(n) < _sigmoid(x @ theta)).astype(float)
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", fmt="%.17g")


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class SampleCli:
    """`hmclab sample` on a logistic posterior written from the seed."""

    name = "sample-cli"
    divergence_seen_by_trace_only = False
    trace_note = ("leapfrog time is reported inside kernel.self_s: the scalar kernel calls "
                  "the private leapfrog step, which the tracer does not wrap")

    def make_inputs(self, seed, size, workdir):
        data = os.path.join(workdir, "logistic.csv")
        write_logistic_data(data, size["n"], size["d"], seed)
        cfg = os.path.join(workdir, "target.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"family = logistic\nalpha2 = 1.0\ndata = {data}\n")
        return {"config": cfg}

    def setup(self, job):
        import hmclab.cli
        from hmclab.config import target_from_file

        size = job["size"]
        target = target_from_file(job["inputs"]["config"])
        if target.d != size["d"]:
            raise ValueError(f"target has d={target.d}, expected {size['d']}")
        return {"cli": hmclab.cli, "size": size, "inputs": job["inputs"], "seed": job["seed"]}

    def run_pass(self, st, outdir):
        size = st["size"]
        out = os.path.join(outdir, "trace.csv")
        argv = [
            "sample", "--config", st["inputs"]["config"],
            "--eta", repr(size["eta"]), "--K", str(size["K"]),
            "--n-steps", str(size["steps"]), "--n-chains", str(size["chains"]),
            "--seed", str(st["seed"]), "--out", out,
        ]
        code, _ = _run_cli(st["cli"], argv)
        return {"code": code, "out": out}

    def planned_ops(self, st):
        return st["size"]["chains"] * st["size"]["steps"]

    def inspect(self, st, raw):
        from hmclab.diagnostics import effective_sample_size

        size = st["size"]
        with open(raw["out"], "rb") as fh:
            blob = fh.read()
        facts = {"exit_code": raw["code"]}
        try:
            data = np.loadtxt(io.BytesIO(blob), delimiter=",", skiprows=1, ndmin=2)
            facts["parsed"] = True
        except ValueError as exc:
            facts.update(parsed=False, parse_error=str(exc))
            n = self.planned_ops(st)
            return {"digest": sha256_bytes(blob), "attempted": n, "failed": n, "facts": facts,
                    "work": 0}
        facts["rows"] = int(data.shape[0])
        # delta_H is NaN exactly on diverged proposals (no lazy holds here)
        diverged = int(np.isnan(data[:, 3]).sum())
        facts["acceptance"] = float(data[:, 2].mean())
        facts["finite_positions"] = bool(np.isfinite(data[:, 4:]).all())
        ess = {}
        for stat in ("q1", "qnorm2"):
            total = 0.0
            for c in range(size["chains"]):
                q = data[data[:, 0] == c, 4:]
                series = q[:, 0] if stat == "q1" else (q * q).sum(axis=1)
                total += effective_sample_size(series)
            ess[stat] = total
        facts["ess"] = min(ess.values())
        attempted = size["chains"] * size["steps"]
        return {"digest": sha256_bytes(blob), "attempted": attempted, "failed": diverged,
                "facts": facts, "work": attempted}

    def check(self, st, facts):
        size = st["size"]
        expect_rows = size["chains"] * size["steps"]
        lo, hi = SAMPLE_ACCEPT_BAND
        acc = facts.get("acceptance", math.nan)
        return [
            ("exit_code_zero", facts.get("exit_code") == 0, f"exit {facts.get('exit_code')}"),
            ("csv_parses", facts.get("parsed", False), facts.get("parse_error", "ok")),
            ("row_count", facts.get("rows") == expect_rows, f"{facts.get('rows')} rows, expected {expect_rows}"),
            ("finite_positions", facts.get("finite_positions", False), ""),
            ("acceptance_in_band", lo <= acc <= hi, f"{acc:.4f} in [{lo}, {hi}]"),
        ]


class MalaVsHmc:
    """The paper's headline comparison through `bench.run_experiment`."""

    name = "mala-vs-hmc"
    # the runner's rows do not show diverged proposals; the traced run counts them
    divergence_seen_by_trace_only = True
    trace_note = None

    def make_inputs(self, seed, size, workdir):
        # criterion 8 takes the median over three seeds
        return {"seeds": [3 * seed, 3 * seed + 1, 3 * seed + 2]}

    def setup(self, job):
        from hmclab import bench

        size = job["size"]
        cfg = bench.ExperimentConfig(
            name="mala-vs-hmc", dims=(size["d"],), seeds=tuple(job["inputs"]["seeds"]),
            options={"grad_budget": size["grad_budget"], "n_rep": size["n_rep"]},
        )
        return {"bench": bench, "cfg": cfg, "size": size}

    def run_pass(self, st, outdir):
        return st["bench"].run_experiment(st["cfg"])

    def planned_ops(self, st):
        size = st["size"]
        return len(st["cfg"].seeds) * size["n_rep"] * size["grad_budget"]  # upper bound

    def inspect(self, st, raw):
        header, rows, summary = raw
        size = st["size"]
        canonical = json.dumps({"header": header, "rows": rows, "summary": summary},
                               sort_keys=True, default=repr)
        runs = {}  # (seed, method) -> its rows, one per statistic
        for row in rows:
            runs.setdefault((row[7], row[1]), []).append(row)
        attempted = failed = 0
        ess = {"q1": 0.0, "qnorm2": 0.0}
        for run_rows in runs.values():
            K = run_rows[0][4]
            n = size["grad_budget"] // (K + 1) * size["n_rep"]
            attempted += n
            if not all(_finite(r[5], r[6]) for r in run_rows):
                failed += n
                continue
            for r in run_rows:
                ess[r[2]] += n / r[5]
        ratios = summary["median_cost_ratio_mala_over_hmc"]
        facts = {"ratios": ratios, "ess": min(ess.values()),
                 "finite_rows": all(_finite(r[5], r[6]) for r in rows)}
        return {"digest": sha256_bytes(canonical.encode()), "attempted": attempted,
                "failed": failed, "facts": facts, "work": attempted}

    def check(self, st, facts):
        ratios = facts.get("ratios", {})
        out = [("finite_rows", facts.get("finite_rows", False), "")]
        for stat in ("q1", "qnorm2"):
            r = ratios.get(stat, math.nan)
            out.append((f"cost_ratio_{stat}", r >= MIN_COST_RATIO, f"{r:.3f} >= {MIN_COST_RATIO}"))
        return out


class MixingWide:
    """`mixing-estimate` at a wide batch from a cold point-mass start."""

    name = "mixing-wide"
    divergence_seen_by_trace_only = True
    trace_note = None

    def make_inputs(self, seed, size, workdir):
        return {"seeds": [seed]}

    def setup(self, job):
        from hmclab import bench

        size = job["size"]
        cfg = bench.ExperimentConfig(
            name="mixing-estimate", dims=tuple(size["dims"]), seeds=tuple(job["inputs"]["seeds"]),
            schedule="fixed",
            options={"eta": size["eta"], "K": size["K"], "n_chains": size["n_chains"],
                     "lazy": True, "warm_start": "point-mass", "epsilon": size["epsilon"],
                     "step_cap": 1024},
        )
        return {"bench": bench, "cfg": cfg, "size": size}

    def run_pass(self, st, outdir):
        return st["bench"].run_experiment(st["cfg"])

    def planned_ops(self, st):
        return st["size"]["n_chains"] * len(st["size"]["dims"])

    def inspect(self, st, raw):
        header, rows, summary = raw
        size = st["size"]
        canonical = json.dumps({"header": header, "rows": rows, "summary": summary},
                               sort_keys=True, default=repr)
        last = {}
        for d, n_steps, tv, grads in rows:
            last[d] = (n_steps, tv, grads)
        attempted = sum(g // (size["K"] + 1) for _, _, g in last.values())
        transitions = sum(n * size["n_chains"] for n, _, _ in last.values())
        finite = all(_finite(r[2]) for r in rows)
        facts = {
            "mixing_steps": {str(d): s for d, s in summary["mixing_steps"].items()},
            "tv_at_hit": {str(d): tv for d, (_, tv, _) in last.items()},
            "finite_tv": finite,
            "epsilon": summary["epsilon"],
        }
        return {"digest": sha256_bytes(canonical.encode()), "attempted": attempted,
                "failed": 0 if finite else attempted, "facts": facts, "work": transitions}

    def check(self, st, facts):
        eps = facts.get("epsilon", math.nan)
        out = [("finite_tv", facts.get("finite_tv", False), "")]
        for d in st["size"]["dims"]:
            step = facts.get("mixing_steps", {}).get(str(d))
            tv = facts.get("tv_at_hit", {}).get(str(d), math.nan)
            out.append((f"mixing_step_found_d{d}", step is not None, f"step {step}"))
            out.append((f"tv_at_hit_d{d}", tv <= eps, f"{tv:.4f} <= {eps}"))
        return out


class AnalysisLogistic:
    """overlap-check, lemma-suite and tensor-report through the CLI on one logistic target."""

    name = "analysis-logistic"
    divergence_seen_by_trace_only = False  # an operation here is a runner call
    trace_note = None
    commands = ("overlap-check", "lemma-suite", "tensor-report")

    def make_inputs(self, seed, size, workdir):
        data = os.path.join(workdir, "logistic.csv")
        write_logistic_data(data, size["n"], size["d"], seed)
        common = (f"dims = {size['d']}\ntarget.family = logistic\n"
                  f"target.alpha2 = 1.0\ntarget.data = {data}\n")
        bodies = {
            "overlap-check": (f"K = {size['overlap_K']}\neta = {size['overlap_eta']}\n"
                              f"n_mc = {size['kl_draws']}\n"),
            "lemma-suite": (f"n_mc = {size['lemma_draws']}\nells = 2\neta = 0.05\n"
                            f"sampler_warmup = {size['sampler_warmup']}\n"),
            "tensor-report": f"n_points = {size['tensor_points']}\nrestarts = {size['restarts']}\n",
        }
        configs = {}
        for name, body in bodies.items():
            path = os.path.join(workdir, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.write(f"experiment = {name}\n{common}{body}")
            configs[name] = path
        return {"configs": configs}

    def setup(self, job):
        import hmclab.cli
        from hmclab.config import build_target, experiment_from_file

        cfgs = [experiment_from_file(path, seed=job["seed"])
                for path in job["inputs"]["configs"].values()]
        build_target(cfgs[0].target)  # all three configs name the same target
        return {"cli": hmclab.cli, "size": job["size"], "inputs": job["inputs"], "seed": job["seed"]}

    def run_pass(self, st, outdir):
        results = {}
        for name in self.commands:
            out = os.path.join(outdir, f"{name}.csv")
            argv = [name, "--config", st["inputs"]["configs"][name], "--out", out,
                    "--seed", str(st["seed"])]
            t0 = time.perf_counter()
            try:
                code, _ = _run_cli(st["cli"], argv)
                error = None if code == 0 else f"exit code {code}"
            except Exception:  # a failed call is counted, the pass goes on
                error = traceback.format_exc(limit=3)
            results[name] = {"out": out, "error": error, "seconds": time.perf_counter() - t0}
        return results

    def planned_ops(self, st):
        return len(self.commands)

    @staticmethod
    def _rows(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def inspect(self, st, raw):
        facts = {"errors": {}}
        failed = 0
        h = hashlib.sha256()
        for name in self.commands:
            res = raw[name]
            ok = res["error"] is None and os.path.exists(res["out"])
            if ok:
                with open(res["out"], "rb") as fh:
                    h.update(fh.read())
                rows = self._rows(res["out"])
                if name == "overlap-check":
                    r = rows[0]
                    facts.update(kl=float(r["kl"]), kl_se=float(r["std_error"]),
                                 kl_bound=float(r["lemma_bound"]))
                    ok = _finite(facts["kl"], facts["kl_se"])
                elif name == "lemma-suite":
                    facts["n_violated"] = sum(int(r["violated"]) for r in rows)
                    facts["n_reports"] = len(rows)
                    ok = all(_finite(r["empirical"], r["std_error"]) for r in rows)
                else:
                    facts["all_orderings_ok"] = all(r["partition_ordering_ok"] == "1" for r in rows)
                    ok = all(_finite(r["norm_123"], r["norm_12_3"], r["norm_1_2_3_lower"])
                             for r in rows)
                if not ok:
                    res["error"] = "non-finite value in output"
            if not ok:
                failed += 1
                facts["errors"][name] = res["error"] or "no output"
        return {"digest": h.hexdigest(), "attempted": len(self.commands), "failed": failed,
                "facts": facts, "work": st["size"]["kl_draws"],
                "work_seconds": raw["overlap-check"]["seconds"]}

    def check(self, st, facts):
        kl, se, bound = (facts.get(k, math.nan) for k in ("kl", "kl_se", "kl_bound"))
        errors = facts.get("errors", {})
        return [
            ("runner_calls_ok", not errors, "; ".join(f"{k}: {v}" for k, v in errors.items())),
            ("kl_above_minus_3se", kl >= -3.0 * se, f"kl={kl:.3e} se={se:.3e}"),
            ("kl_below_lemma_bound", kl < bound, f"kl={kl:.3e} bound={bound:.3e}"),
            ("no_violated_moment_bounds", facts.get("n_violated") == 0,
             f"{facts.get('n_violated')} of {facts.get('n_reports')} violated"),
            ("all_orderings_ok", facts.get("all_orderings_ok") is True, ""),
        ]


WORKLOADS = {w.name: w for w in (SampleCli(), MalaVsHmc(), MixingWide(), AnalysisLogistic())}
