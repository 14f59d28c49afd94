"""Span tracer for the traced benchmark run.

The tracer wraps hmclab's public callables where callers look them up:
evaluator methods on each built-in target class (so `isinstance` and
`has_hessian` are unchanged) and module-level entry points rebound in every
loaded hmclab module that imported them.  Each call records a span
[name, layer, start, end, parent, info] in memory; `per_layer_metrics`
turns the spans into the per-layer numbers and `write_spans` writes them
out when the run ends.  A layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

EVALUATORS = ("potential", "gradient", "hessian_vec", "third_contract")
LAYERS = ("targets", "leapfrog", "kernel", "overlap", "moments", "tensors",
          "diagnostics", "bench", "cli", "config", "tuning")
_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}
TRANSITIONS = ("hmc_transition", "batch_transition")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"targets.{e}.{m}", u, b) for e in EVALUATORS
     for m, u, b in (("calls", "count", "lower"), ("rows", "count", "lower"),
                     ("us_per_row", "us/row", "lower"))]
    + [
        ("targets.self_s", "s", "lower"),
        ("leapfrog.self_s", "s", "lower"),
        ("leapfrog.us_per_chain_step", "us", "lower"),
        ("kernel.self_s", "s", "lower"),
        ("kernel.transitions", "count", "higher"),
        ("kernel.us_per_chain_transition.p50", "us", "lower"),
        ("kernel.us_per_chain_transition.tail", "us", "lower"),
        ("kernel.us_per_chain_transition.tail_pct", "pct", "higher"),
        ("kernel.us_per_chain_transition.samples", "count", "higher"),
        ("kernel.grad_rows_per_transition", "rows/transition", "lower"),
        ("kernel.grad_rows_model_per_transition", "rows/transition", "lower"),
        ("kernel.overhead_ratio", "ratio", "lower"),
        ("kernel.accept_rate", "ratio", "higher"),
        ("kernel.diverged", "count", "lower"),
        ("kernel.lazy_holds", "count", "lower"),
        ("overlap.self_s", "s", "lower"),
        ("overlap.draws", "count", "higher"),
        ("overlap.hvp_rows_per_draw", "rows/draw", "lower"),
        ("overlap.grad_rows_per_draw", "rows/draw", "lower"),
        ("moments.self_s", "s", "lower"),
        ("moments.draws", "count", "higher"),
        ("tensors.self_s", "s", "lower"),
        ("tensors.third_contract_rows", "count", "lower"),
        ("diagnostics.self_s", "s", "lower"),
        ("bench.driver_s", "s", "lower"),
        ("cli.csv_write_s", "s", "lower"),
        ("cli.csv_bytes", "B", "lower"),
        ("config.load_s", "s", "lower"),
        ("tuning.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,layer,start_s,end_s,parent\n")
            for i, (name, layer, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{t0!r},{t1!r},{parent}\n")


def _arg(fn, name):
    """Info callback returning the call's argument `name`."""
    sig = inspect.signature(fn)
    return lambda args, kwargs, out: sig.bind(*args, **kwargs).arguments[name]


def _file_bytes(fn):
    get_path = _arg(fn, "path")
    return lambda args, kwargs, out: os.path.getsize(get_path(args, kwargs, out))


def _rows(evaluator):
    if evaluator == "potential":
        return lambda args, kwargs, out: int(np.size(out))
    return lambda args, kwargs, out: int(np.size(out) // np.shape(out)[-1])


def _scalar_transition(args, kwargs, out):
    K = (args[1] if len(args) > 1 else kwargs["config"]).K
    return 1, K, int(out.lazy_hold), int(out.accepted), int(out.diverged)


def _batch_transition(args, kwargs, out):
    K = args[3] if len(args) > 3 else kwargs["K"]
    return (out.positions.shape[0], K, int(out.holds.sum()),
            int(out.accepted.sum()), int(out.diverged.sum()))


def _chain_steps(args, kwargs, out):
    q = args[1] if len(args) > 1 else kwargs["q"]
    K = args[3] if len(args) > 3 else kwargs["K"]
    return int(np.size(q) // np.shape(q)[-1]) * K


def install(tracer: Tracer) -> None:
    """Wrap hmclab's public callables in every loaded hmclab module."""
    from hmclab import (bench, config, diagnostics, kernel, leapfrog, moments, overlap,
                        targets, tensors, tuning)

    importlib.import_module("hmclab.cli")  # loaded so that its imported names are rebound too

    for cls in (targets.GaussianTarget, targets.RidgeSeparableTarget,
                targets.LogisticPosteriorTarget, targets.TwoLayerNetTarget):
        for ev in EVALUATORS:
            if ev in cls.__dict__:  # inherited stubs stay, so has_hessian is unchanged
                setattr(cls, ev, tracer.wrap(cls.__dict__[ev], f"targets.{ev}", "targets", _rows(ev)))

    moment_checks = ("check_grad_norm_moment", "check_php_moment", "check_gradhp_moment",
                     "check_chaos_moments", "check_dynamics_diffs", "energy_error_moment")
    table = [
        (leapfrog, "leapfrog", {"leapfrog_final": _chain_steps, "momentum_jacobian": None,
                                "continuous_flow": None, "forward_map": None,
                                "leapfrog_step": None, "continuous_reference": None}),
        (kernel, "kernel", {"hmc_transition": _scalar_transition, "run_chain": None,
                            "run_chains": None, "batch_transition": _batch_transition}),
        (overlap, "overlap", {"kl_between_proposals": "n_mc", "inverse_map": None,
                              "proposal_log_density": None}),
        (moments, "moments", {**{n: "n_mc" for n in moment_checks},
                              "chain_stationary_sampler": None}),
        (tensors, "tensors", {"tensor_report": None, "third_derivative_tensor": None,
                              "norm_frobenius_123": None, "norm_12_3": None,
                              "norm_injective_lower": None, "estimate_gamma": None}),
        (diagnostics, "diagnostics", {"autocorrelation": None, "integrated_autocorr_time": None,
                                      "effective_sample_size": None, "tv_histogram": None,
                                      "tv_projection_estimate": None}),
        (bench, "bench", {"run_experiment": None}),
        (config, "config", {"parse_kv": None, "build_target": None, "target_from_file": None,
                            "experiment_from_file": None}),
        (tuning, "tuning", {"best_hmc_params": None, "mala_step_size": None}),
        (kernel, "cli", {"traces_to_csv": "bytes"}),
        (bench, "cli", {"write_csv": "bytes"}),
    ]
    replacements = {}
    for module, layer, entries in table:
        for fname, info in entries.items():
            fn = getattr(module, fname)
            if info == "n_mc":
                info = _arg(fn, "n_mc")
            elif info == "bytes":
                info = _file_bytes(fn)
            replacements[id(fn)] = (fn, tracer.wrap(fn, fname, layer, info))
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "hmclab" or modname.startswith("hmclab.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it;
    the maximum (reported as p100) when there are too few samples."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 100.0, float(max(samples))


def per_layer_metrics(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of n_passes identical passes."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    anc = [0] * n  # bitmask of the layers of all ancestors
    for i, s in enumerate(spans):
        p = s[4]
        if p >= 0:  # parents are appended before their children
            child[p] += dur[i]
            anc[i] = anc[p] | _BIT[spans[p][1]]
    self_s = dict.fromkeys(LAYERS, 0.0)
    ev = {e: [0, 0, 0.0] for e in EVALUATORS}  # calls, rows, seconds
    rows_under = {(e, layer): 0 for e in EVALUATORS for layer in ("kernel", "overlap", "tensors")}
    grad_s_in_kernel = kernel_outer_s = 0.0
    per_chain_us: list[float] = []
    chains = holds = accepted = diverged = model_rows = 0
    lf_s = lf_steps = 0.0
    overlap_draws = moment_draws = 0
    csv_s = csv_bytes = 0.0
    for i, (name, layer, _, _, _, info) in enumerate(spans):
        self_s[layer] += dur[i] - child[i]
        if layer == "targets":
            e = name.split(".", 1)[1]
            ev[e][0] += 1
            ev[e][1] += info
            ev[e][2] += dur[i]
            for outer in ("kernel", "overlap", "tensors"):
                if anc[i] & _BIT[outer]:
                    rows_under[(e, outer)] += info
            if e == "gradient" and anc[i] & _BIT["kernel"]:
                grad_s_in_kernel += dur[i]
        elif layer == "kernel":
            if not anc[i] & _BIT["kernel"]:
                kernel_outer_s += dur[i]
            if name in TRANSITIONS:
                b, K, h, a, dv = info
                per_chain_us.append(dur[i] / b * 1e6)
                chains += b
                holds += h
                accepted += a
                diverged += dv
                model_rows += (b - h) * (K + 1)
        elif layer == "leapfrog" and name == "leapfrog_final":
            lf_s += dur[i]
            lf_steps += info
        elif layer == "overlap" and name == "kl_between_proposals":
            overlap_draws += info
        elif layer == "moments" and info is not None:
            moment_draws += info
        elif layer == "cli":
            csv_s += dur[i]
            csv_bytes += info

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / max(n_passes, 1)
    m: dict[str, float] = {}
    for e, (calls, rows, secs) in ev.items():
        m[f"targets.{e}.calls"] = calls * per
        m[f"targets.{e}.rows"] = rows * per
        m[f"targets.{e}.us_per_row"] = ratio(secs * 1e6, rows)
    for layer in ("targets", "leapfrog", "kernel", "overlap", "moments", "tensors", "diagnostics"):
        m[f"{layer}.self_s"] = self_s[layer] * per
    tail_pct, tail_us = _tail(per_chain_us)
    attempts = chains - holds
    m.update({
        "leapfrog.us_per_chain_step": ratio(lf_s * 1e6, lf_steps),
        "kernel.transitions": chains * per,
        "kernel.us_per_chain_transition.p50": float(np.median(per_chain_us)) if per_chain_us else 0.0,
        "kernel.us_per_chain_transition.tail": tail_us,
        "kernel.us_per_chain_transition.tail_pct": tail_pct,
        "kernel.us_per_chain_transition.samples": len(per_chain_us) * per,
        "kernel.grad_rows_per_transition": ratio(rows_under[("gradient", "kernel")], chains),
        "kernel.grad_rows_model_per_transition": ratio(model_rows, chains),
        "kernel.overhead_ratio": ratio(kernel_outer_s, grad_s_in_kernel),
        "kernel.accept_rate": ratio(accepted, attempts),
        "kernel.diverged": diverged * per,
        "kernel.lazy_holds": holds * per,
        "overlap.draws": overlap_draws * per,
        "overlap.hvp_rows_per_draw": ratio(rows_under[("hessian_vec", "overlap")], overlap_draws),
        "overlap.grad_rows_per_draw": ratio(rows_under[("gradient", "overlap")], overlap_draws),
        "moments.draws": moment_draws * per,
        "tensors.third_contract_rows": rows_under[("third_contract", "tensors")] * per,
        "bench.driver_s": self_s["bench"] * per,
        "cli.csv_write_s": csv_s * per,
        "cli.csv_bytes": csv_bytes * per,
        "config.load_s": self_s["config"] * per,
        "tuning.s": self_s["tuning"] * per,
    })
    return m
