import os
import subprocess
import sys

import numpy as np
import pytest

import hmclab
from hmclab.targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    logcosh_potential,
    random_unit_rows,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_ridge(n: int, d: int, seed: int, potential=None) -> RidgeSeparableTarget:
    gen = np.random.default_rng(seed)
    pot = potential if potential is not None else logcosh_potential()
    return RidgeSeparableTarget(random_unit_rows(n, d, gen), pot)


def make_logistic(n: int, d: int, seed: int, alpha2: float = 1.0) -> LogisticPosteriorTarget:
    return LogisticPosteriorTarget.synthetic(n, d, alpha2, np.random.default_rng(seed))


def make_dense_gaussian(d: int, seed: int) -> GaussianTarget:
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, d))
    return GaussianTarget(a @ a.T / d + np.eye(d))


def run_python(code: str, *args: str) -> str:
    """Stdout of `python -c code args` in a fresh interpreter that imports this hmclab."""
    src = os.path.dirname(os.path.dirname(hmclab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return out.stdout
