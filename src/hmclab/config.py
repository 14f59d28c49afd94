"""Key/value config files: target construction and experiment configs.

The format is flat text, one `key = value` per line, with `#` comments.
Values parse as int, float, bool, a comma-separated list of those, or a
bare string.  Target files name a family plus the keys that TARGET_KEYS
declares for it; a key that the family does not declare is rejected:

    family = logistic
    alpha2 = 1.0
    data = path/to/rows.csv      # rows are x_1..x_d,y

    family = gaussian
    dim = 16
    precision = 2.0, 3.0, 0.5    # diagonal; omit for identity

Experiment files add experiment-level keys (experiment, dims, seeds,
schedule), `target.`-prefixed target keys and the options that OPTIONS
declares; a key that no experiment declares is rejected.  Every experiment
builds its target from the target keys (the standard Gaussian without them),
with `dim` defaulting to each grid point's entry of `dims` for every family
that declares `dim`.  A target whose d does not come from `dims` runs one
entry of it; mixing-estimate runs Gaussian targets only.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TargetDensity,
    TwoLayerNetTarget,
    named_potential,
    random_unit_rows,
)


# Each experiment's options and their defaults; its runner reads no other key.
OPTIONS = {
    "acceptance-scaling": {"n_chains": 160, "n_steps": 32, "accept_constant": None,
                           "eta": 0.4, "K": 1},
    "energy-scaling": {"ell": 2, "n_mc": 100_000, "etas": np.geomspace(0.02, 0.2, 7)},
    "mixing-estimate": {"epsilon": 0.1, "n_chains": 16384, "step_cap": 1024, "lazy": False,
                        "warm_start": "scaled-covariance", "warm_s": 0.5, "eta": 0.4, "K": 1},
    "overlap-check": {"K": 2, "eta": 0.1, "q0": None, "n_mc": 20_000},
    "lemma-suite": {"ells": (2, 4), "eta": 0.05, "n_mc": 50_000, "t": None,
                    "sampler_warmup": 2000},
    "tensor-report": {"n_points": 4, "restarts": 20},
    "mala-vs-hmc": {"grad_budget": 120_000, "n_rep": 4},
}
EXPERIMENTS = tuple(OPTIONS)
# One file may serve several subcommands, so a key is valid when any experiment declares it.
_DECLARED = {key for defaults in OPTIONS.values() for key in defaults}
# What each experiment reads besides OPTIONS and target. keys, checked before any draw: its
# schedules, every entry of dims or dims[0] alone, and each count's least value.
_READS = {
    "acceptance-scaling": (("fixed", "corollary-hmc"), True,
                           {"n_chains": 2, "n_steps": 1, "K": 1}),  # a between-chain CI
    "energy-scaling": (("corollary-hmc",), True, {"ell": 1, "n_mc": 1}),
    "mixing-estimate": (("fixed", "corollary-hmc", "corollary-mala"), True,
                        {"n_chains": 1, "step_cap": 32, "K": 1}),  # 32, the first checkpoint
    "overlap-check": (("corollary-hmc",), False, {"K": 1, "n_mc": 2}),  # the KL's variance
    "lemma-suite": (("corollary-hmc",), False, {"ells": 1, "n_mc": 1, "sampler_warmup": 0}),
    "tensor-report": (("corollary-hmc",), False, {"n_points": 1, "restarts": 1}),
    "mala-vs-hmc": (("corollary-hmc",), False, {"grad_budget": 1, "n_rep": 1}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    dims: tuple[int, ...] = (16,)
    seeds: tuple[int, ...] = (0,)
    schedule: str = "corollary-hmc"
    target: dict = field(default_factory=lambda: {"family": "gaussian"})
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        if unknown := sorted(set(self.options) - _DECLARED):
            raise ValueError(f"no experiment declares option {', '.join(unknown)}")
        schedules, every_dim, least = _READS[self.name]
        if self.schedule not in schedules:
            raise ValueError(f"{self.name} reads no schedule and would ignore {self.schedule!r}"
                             if len(schedules) == 1 else f"{self.name} runs the "
                             f"{' or '.join(schedules)} schedule, not {self.schedule}")
        if not every_dim and len(self.dims) > 1:
            raise ValueError(f"{self.name} runs one dimension and would ignore all but one of "
                             f"dims = {', '.join(map(str, self.dims))}")
        family = target_family(self.target)
        if self.name == "mixing-estimate" and family != "gaussian":  # gaussian_projected_std
            raise ValueError(f"mixing-estimate measures TV against exact Gaussian projections "
                             f"and cannot run target family {family!r}")
        precision = self.target.get("precision")  # a scalar scales the identity of size dim
        for key, sets_d in (("dim", "dim" in self.target), ("data", "data" in self.target),
                            ("precision", isinstance(precision, str) or np.size(precision) > 1),
                            ("family", family == "two-layer")):
            if sets_d and len(self.dims) > 1:
                raise ValueError(f"{self.name} would run one target at each of dims = "
                                 f"{', '.join(map(str, self.dims))}: target.{key} sets its d")
        counts = {"dims": (self.dims, 1), "seeds": (self.seeds, 0),
                  **{key: (self.option(key), low) for key, low in least.items()}}
        for key, (value, low) in counts.items():  # integral: 8.0 reads as 8, 8.9 and true do not
            for v in value if isinstance(value, (list, tuple)) else [value]:
                whole = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
                if isinstance(v, bool) or not whole or v < low:
                    raise ValueError(f"{self.name} needs integer {key} >= {low}, got {value!r}")
        for key in ("dims", "seeds"):  # the runners index and print them as ints
            object.__setattr__(self, key, tuple(int(v) for v in getattr(self, key)))
        if len(self.dims) == 0 or list(self.dims) != sorted(self.dims):
            raise ValueError(f"dimension list must be nonempty and ascending, got {self.dims}")
        if not self.seeds:  # every runner reads seeds[0]
            raise ValueError(f"{self.name} needs at least one entry of seeds")

    def option(self, key: str):
        """The configured value of key, or this experiment's default for it."""
        defaults = OPTIONS[self.name]
        if key not in defaults:
            raise KeyError(f"{self.name} has no option {key!r}")
        return self.options.get(key, defaults[key])

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def parse_kv(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if "," in value:
                out[key] = [_parse_scalar(v) for v in value.split(",") if v.strip()]
            else:
                out[key] = _parse_scalar(value)
    return out


# Each target family's keys and their defaults; build_target reads no other key.
TARGET_KEYS = {
    "gaussian": {"dim": 2, "precision": None},
    "ridge": {"dim": 4, "n": 4, "directions_seed": 0, "potential": "logcosh"},
    "logistic": {"dim": 4, "n": 8, "alpha2": 1.0, "data": None, "data_seed": 0},
    "two-layer": {"m": 3, "n": 4, "dprime": 3, "data_seed": 0},
}


def target_family(cfg: dict) -> str:
    """The TARGET_KEYS family that cfg names (gaussian when it names none)."""
    family = str(cfg.get("family", "gaussian")).lower()
    family = "two-layer" if family == "twolayer" else family
    if family not in TARGET_KEYS:
        raise ValueError(f"unknown target family {family!r}")
    return family


def build_target(cfg: dict) -> TargetDensity:
    """Construct a built-in target family from parsed key/value pairs."""
    family = target_family(cfg)
    stray = sorted(set(cfg) - {"family"} - set(TARGET_KEYS[family]))
    if stray:
        raise ValueError(f"target family {family!r} declares no key {', '.join(stray)}")
    opt = {**TARGET_KEYS[family], **cfg}
    if family == "gaussian":
        precision = opt["precision"]
        if precision is None:
            return GaussianTarget.standard(int(opt["dim"]))
        if isinstance(precision, str):
            return GaussianTarget(np.loadtxt(precision, delimiter=",", ndmin=2))
        values = np.atleast_1d(np.asarray(precision, dtype=float))
        if values.size == 1:
            return GaussianTarget(float(values[0]) * np.eye(int(opt["dim"])))
        return GaussianTarget.diagonal(values)
    if family == "ridge":
        rng = np.random.default_rng(int(opt["directions_seed"]))
        return RidgeSeparableTarget(random_unit_rows(int(opt["n"]), int(opt["dim"]), rng),
                                    named_potential(str(opt["potential"])))
    rng = np.random.default_rng(int(opt["data_seed"]))
    if family == "logistic":
        alpha2 = float(opt["alpha2"])
        if opt["data"] is not None:
            return LogisticPosteriorTarget.from_csv(str(opt["data"]), alpha2)
        return LogisticPosteriorTarget.synthetic(int(opt["n"]), int(opt["dim"]), alpha2, rng)
    return TwoLayerNetTarget.synthetic(int(opt["m"]), int(opt["n"]), int(opt["dprime"]), rng)


def target_from_file(path: str) -> TargetDensity:
    return build_target(parse_kv(path))


_EXPERIMENT_KEYS = ("experiment", "dims", "seeds", "schedule")


def experiment_from_file(path: str, seed: int | None = None,
                         name: str | None = None) -> ExperimentConfig:
    """Split a flat config into experiment fields, target.* keys and options;
    seed goes first in the seed list and name overrides the file's experiment."""
    raw = parse_kv(path)
    target = {k[len("target."):]: v for k, v in raw.items() if k.startswith("target.")}
    options = {
        k: v for k, v in raw.items()
        if not k.startswith("target.") and k not in _EXPERIMENT_KEYS
    }
    dims, seeds = raw.get("dims", 16), raw.get("seeds", 0)
    dims, seeds = (tuple(v) if isinstance(v, list) else (v,) for v in (dims, seeds))
    if seed is not None:
        seeds = (seed,) + tuple(s for s in seeds if s != seed)
    return ExperimentConfig(
        name=name or str(raw.get("experiment", "acceptance-scaling")),
        dims=dims,
        seeds=seeds,
        schedule=str(raw.get("schedule", "corollary-hmc")),
        target=target or {"family": "gaussian"},
        options=options,
    )
