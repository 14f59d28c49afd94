"""hmclab command line: sampling, tuning, analysis and experiments.

    hmclab sample   --config target.cfg --eta 0.2 --K 3 --n-steps 1000 --out trace.csv
    hmclab tune     --L 1 --gamma 0 --d 256 --M 10 --epsilon 0.05
    hmclab tensor   --config target.cfg --seed 0
    hmclab overlap  --config target.cfg --K 2 --eta 0.1 --separation 0.003
    hmclab lemmas   --config target.cfg --ell 2 --eta 0.05 --n-mc 20000
    hmclab <experiment> --config exp.cfg --out results.csv --seed 0

where <experiment> is one of acceptance-scaling, energy-scaling,
mixing-estimate, overlap-check, lemma-suite, tensor-report, mala-vs-hmc.
Experiment outputs are a CSV plus a JSON sidecar (config hash, git
describe, wall time) and rerun bit-identically for a fixed seed.

On glibc, `main` fixes malloc's mmap and trim thresholds at 4 and 8 MiB, so numpy's
128 KiB-4 MiB temporaries are reused from the heap: under glibc's defaults each
`overlap-check` call faulted ~10.5k pages in again. `import hmclab` leaves them alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys

import numpy as np

from . import bench
from .config import EXPERIMENTS, experiment_from_file, target_from_file
from .kernel import HmcConfig, run_chains, traces_to_csv
from .tensors import tensor_report, third_derivative_tensor
from .tuning import COROLLARY_CONSTANTS, TheoryParams, best_hmc_params, mala_step_size


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds at 4 and 8 MiB; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt, or no CDLL(None) (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD; setting either one ends glibc's dynamic rule
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _finite_vector(text: str) -> np.ndarray:
    """argparse type: comma-separated finite numbers."""
    vec = np.asarray([float(v) for v in text.split(",")], dtype=float)
    if not np.isfinite(vec).all():
        raise argparse.ArgumentTypeError(f"components must be finite, got {text!r}")
    return vec


def _positive_int(text: str) -> int:
    """argparse type: a count of at least one (steps, chains, a thinning stride, restarts),
    checked before any work starts; argparse's error names the option."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite number of at least zero (a separation, a time), checked before
    any work starts; argparse's error names the option."""
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _vector(vec: np.ndarray | None, d: int) -> np.ndarray:
    if vec is None:
        return np.zeros(d)
    if vec.size != d:
        raise SystemExit(f"expected {d} components, got {vec.size}")
    return vec


def _cmd_sample(args) -> int:
    target = target_from_file(args.config)
    config = HmcConfig(eta=args.eta, K=args.K, lazy=args.lazy, seed=args.seed)
    q0 = _vector(args.q0, target.d)
    traces = run_chains(target, config, q0, args.n_steps, args.n_chains)
    traces_to_csv(traces, args.out, thin=args.thin)
    # chains whose every step held made no attempt and have no acceptance rate
    rates = [t.acceptance_rate for t in traces if t.n_attempts]
    accept = float(np.mean(rates)) if rates else None
    grads = int(sum(t.grad_evals for t in traces))
    diverged = int(sum(t.diverged.sum() for t in traces))
    print(json.dumps({"acceptance_rate": accept, "grad_evals": grads, "diverged": diverged,
                      "out": args.out}, allow_nan=False))
    return 0


def _cmd_tune(args) -> int:
    tp = TheoryParams(L=args.L, gamma=args.gamma, d=args.d,
                      **{key: getattr(args, key) for key in COROLLARY_CONSTANTS})
    tuned = mala_step_size(tp) if args.mala else best_hmc_params(tp)
    print(tuned.to_json())
    return 0


def _cmd_tensor(args) -> int:
    target = target_from_file(args.config)
    q = _vector(args.at, target.d)
    report = tensor_report(
        third_derivative_tensor(target, q),
        restarts=args.restarts,
        rng=np.random.default_rng(args.seed),
    )
    print(report.to_json())
    return 0


def _cmd_overlap(args) -> int:
    target = target_from_file(args.config)
    direction = None if args.direction is None else _vector(args.direction, target.d)
    report = bench.overlap_report(
        target, _vector(args.q0, target.d), direction, args.separation,
        args.K, args.eta, args.n_mc, np.random.default_rng(args.seed),
    )
    print(json.dumps(report, indent=2))
    return 0


def _cmd_lemmas(args) -> int:
    reports = bench.lemma_reports(
        target_from_file(args.config), [args.ell], args.eta, args.n_mc,
        np.random.default_rng(args.seed), t=args.t,
    )
    for report in reports:
        print(report.to_json())
    return 0


def _cmd_experiment(args) -> int:
    cfg = experiment_from_file(args.config, seed=args.seed, name=args.experiment_name)
    header, rows, summary = bench.run_experiment(cfg, out=args.out)
    print(json.dumps({"rows": len(rows), "out": args.out, "summary": summary}, default=str))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hmclab` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="hmclab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run Metropolized HMC chains to CSV")
    p.add_argument("--config", required=True, help="target config file")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-steps", type=_positive_int, default=1000)
    p.add_argument("--n-chains", type=_positive_int, default=1)
    p.add_argument("--thin", type=_positive_int, default=1)
    p.add_argument("--q0", type=_finite_vector, default=None,
                   help="comma-separated start, default origin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("tune", help="print theory-driven parameters as JSON")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--d", type=int, required=True)
    for key, value in COROLLARY_CONSTANTS.items():  # --M, --epsilon, --psi, --c, --c-prime
        p.add_argument("--" + key.replace("_", "-"), type=float, default=value)
    p.add_argument("--mala", action="store_true", help="use the K=1 corollary")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("tensor", help="third-derivative tensor norms as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--at", type=_finite_vector, default=None,
                   help="evaluation point, default origin")
    p.add_argument("--restarts", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("overlap", help="proposal-overlap KL estimate as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--q0", type=_finite_vector, default=None)
    p.add_argument("--direction", type=_finite_vector, default=None)
    p.add_argument("--separation", type=_nonnegative_float, default=None)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--n-mc", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("lemmas", help="moment-bound reports as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--t", type=_nonnegative_float, default=None,
                   help="also run the continuous-drift checks at this time")
    p.add_argument("--n-mc", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemmas)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=_cmd_experiment, experiment_name=name)

    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
