#!/usr/bin/env python3
"""Byte identity of hmclab's outputs between two source trees.

    python scripts/identity.py PARENT [CHILD]

PARENT and CHILD are source trees (directories holding src/hmclab) or git
revisions of this repository; CHILD defaults to the tree that holds this
script.  Each tree runs the same committed corpus of small CLI invocations,
in a fresh directory of its own, with that tree's src first on the import
path.  The corpus covers every subcommand, each target family it accepts,
and `sample` lazy and not, with several chains (wide enough, once, that a
step spans two row blocks and draws the next step on a worker thread).

Each command's stdout and every CSV it writes are then compared byte for
byte.  The JSON sidecars hold wall times, so they are not compared.  The
script prints the first differing line of each file that differs, and exits
with status 1 when any file differs or is missing on one side.  Both trees
take 20-30 s on 2 vCPUs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Input files, written into each tree's run directory.
_DENSE = "2.0,0.5,0.0,0.1\n0.5,1.5,0.2,0.0\n0.0,0.2,1.0,0.3\n0.1,0.0,0.3,0.8\n"
_ROWS = "".join(  # unit covariate rows x_1..x_3 and a label
    f"{math.cos(0.7 * i)!r},{math.sin(0.7 * i) * math.cos(1.3 * i)!r},"
    f"{math.sin(0.7 * i) * math.sin(1.3 * i)!r},{i % 2}\n" for i in range(24))
INPUTS = {
    "dense.csv": _DENSE,
    "rows.csv": _ROWS,
    "gaussian.cfg": "family = gaussian\ndim = 8\n",
    "gaussian-64.cfg": "family = gaussian\ndim = 64\n",
    "gaussian-diag.cfg": "family = gaussian\ndim = 3\nprecision = 2.0, 3.0, 0.5\n",
    "gaussian-dense.cfg": "family = gaussian\nprecision = dense.csv\n",
    "ridge.cfg": "family = ridge\ndim = 6\nn = 8\npotential = logcosh\n",
    "ridge-sine.cfg": "family = ridge\ndim = 4\nn = 6\npotential = sine\ndirections_seed = 3\n",
    "logistic.cfg": "family = logistic\ndim = 5\nn = 16\nalpha2 = 1.0\n",
    "logistic-data.cfg": "family = logistic\ndata = rows.csv\nalpha2 = 0.5\n",
    "logistic-64.cfg": "family = logistic\ndim = 64\nn = 16\n",
    "two-layer.cfg": "family = two-layer\nm = 3\nn = 4\ndprime = 3\n",
}
SAMPLE_TARGETS = ("gaussian", "gaussian-diag", "gaussian-dense", "ridge", "ridge-sine",
                  "logistic", "logistic-data", "two-layer")
ANALYSIS_TARGETS = ("gaussian", "gaussian-dense", "ridge", "logistic-data", "two-layer")
# An experiment's target keys, by family (the standard Gaussian without them).
EXPERIMENT_TARGETS = {
    "gaussian": "",
    "ridge": "target.family = ridge\ntarget.n = 8\n",
    "logistic": "target.family = logistic\ntarget.n = 16\n",
    "two-layer": "target.family = two-layer\n",
}


def corpus(quick: bool = False) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, config text or None) of every command; quick runs fewer draws."""
    def n(full: int, small: int) -> str:
        return str(small if quick else full)

    runs = []
    for t in SAMPLE_TARGETS:
        for lazy in ((), ("--lazy",)):
            name = f"sample-{t}{'-lazy' if lazy else ''}"
            runs.append((name, ["sample", "--config", f"{t}.cfg", "--eta", "0.3", "--K", "3",
                                "--n-steps", n(60, 8), "--n-chains", "4", "--seed", "5", *lazy,
                                "--out", f"{name}.csv"], None))
    runs += [
        ("sample-one-chain", ["sample", "--config", "gaussian.cfg", "--eta", "0.5", "--K", "1",
                              "--n-steps", n(200, 20), "--out", "sample-one-chain.csv"], None),
        ("sample-thin", ["sample", "--config", "logistic.cfg", "--eta", "0.2", "--K", "2",
                         "--n-steps", n(100, 10), "--n-chains", "3", "--thin", "7",
                         "--q0", "0.1,-0.2,0.3,0,0.5", "--out", "sample-thin.csv"], None),
    ]
    for t in ("gaussian-64", "logistic-64"):  # 520 chains span two row blocks at d = 64
        for lazy in ((), ("--lazy",)):
            name = f"sample-wide-{t}{'-lazy' if lazy else ''}"
            runs.append((name, ["sample", "--config", f"{t}.cfg", "--eta", "0.2", "--K", "2",
                                "--n-steps", n(6, 3), "--n-chains", "520", "--thin", "3",
                                *lazy, "--out", f"{name}.csv"], None))
    runs += [
        ("tune", ["tune", "--L", "1.0", "--d", "256"], None),
        ("tune-gamma", ["tune", "--L", "2.0", "--gamma", "0.5", "--d", "64", "--M", "5"], None),
        ("tune-mala", ["tune", "--L", "1.0", "--d", "256", "--mala"], None),
    ]
    for t in ANALYSIS_TARGETS:
        runs += [
            (f"tensor-{t}", ["tensor", "--config", f"{t}.cfg", "--restarts", n(8, 2),
                             "--seed", "1"], None),
            (f"overlap-{t}", ["overlap", "--config", f"{t}.cfg", "--n-mc", n(400, 40),
                              "--seed", "2"], None),
            (f"lemmas-{t}", ["lemmas", "--config", f"{t}.cfg", "--n-mc", n(400, 40),
                             "--seed", "3"], None),
        ]
    runs += [
        ("overlap-separation", ["overlap", "--config", "ridge.cfg", "--separation", "0.05",
                                "--K", "3", "--eta", "0.05", "--n-mc", n(400, 40)], None),
        ("lemmas-drift", ["lemmas", "--config", "gaussian.cfg", "--ell", "4", "--t", "0.1",
                          "--n-mc", n(400, 40)], None),
    ]
    experiments = {  # (dims, options)
        "acceptance-scaling": ("4, 8", f"n_chains = {n(16, 4)}\nn_steps = {n(8, 2)}\n"
                                       + ("accept_constant = 1.0\n" if quick else "")),
        "energy-scaling": ("4, 8", f"n_mc = {n(2000, 50)}\netas = 0.05, 0.1\n"),
        "overlap-check": ("4", f"n_mc = {n(400, 20)}\n"),
        "lemma-suite": ("4", f"n_mc = {n(400, 40)}\nells = 2\nsampler_warmup = 20\n"),
        "tensor-report": ("4", f"n_points = 2\nrestarts = {n(5, 2)}\n"),
        "mala-vs-hmc": ("8", f"seeds = 0, 1\ngrad_budget = {n(1000, 100)}\nn_rep = 2\n"),
    }
    for experiment, (dims, options) in experiments.items():
        for family, keys in EXPERIMENT_TARGETS.items():
            if family == "two-layer" and experiment in ("energy-scaling", "mala-vs-hmc"):
                continue  # both need a declared gamma, which two-layer has not
            grid = dims.split(",")[0] if family == "two-layer" else dims  # it sets its own d
            name = f"{experiment}-{family}"
            runs.append((name, [experiment, "--config", f"{name}.cfg", "--out", f"{name}.csv"],
                         f"dims = {grid}\n{options}{keys}"))
    runs += [
        ("acceptance-scaling-fixed",
         ["acceptance-scaling", "--config", "acceptance-scaling-fixed.cfg",
          "--out", "acceptance-scaling-fixed.csv", "--seed", "4"],
         f"dims = 4, 16\nschedule = fixed\naccept_constant = 1.0\nn_chains = {n(16, 4)}\n"
         f"n_steps = {n(8, 2)}\neta = 0.3\nK = 2\n"),
    ]
    mixing = "epsilon = 0.3\nstep_cap = 256\nwarm_s = 0.02\n"
    for name, body in (
        ("mixing-estimate", f"dims = 4, 8\nn_chains = {n(1024, 256)}\n"),
        ("mixing-estimate-lazy", f"dims = 4\nn_chains = {n(1024, 256)}\nlazy = true\n"),
        # 8192 chains at d = 4 span two row blocks, so each run draws on a worker thread
        ("mixing-estimate-wide", "dims = 4\nn_chains = 8192\nlazy = true\n"),
        ("mixing-estimate-mala", f"dims = 4\nn_chains = {n(512, 256)}\n"
                                 "schedule = corollary-mala\nwarm_start = point-mass\n"),
    ):
        fixed = "" if "schedule" in body else "schedule = fixed\neta = 0.1\nK = 1\n"
        runs.append((name, ["mixing-estimate", "--config", f"{name}.cfg", "--out", f"{name}.csv"],
                     body + fixed + mixing))
    return runs


def run_corpus(quick: bool = False) -> None:
    """Run every command in the current directory, each stdout to <name>.stdout.

    A command that fails writes its error in place of its stdout, so a
    change in which commands fail shows as a differing file.
    """
    from hmclab.cli import main

    for name, argv, config in corpus(quick):
        if config is not None:
            Path(f"{name}.cfg").write_text(config)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                main(argv)
            except (Exception, SystemExit) as exc:  # the error is the command's output
                print(f"error: {type(exc).__name__}: {exc}")
        Path(f"{name}.stdout").write_text(out.getvalue())


def _tree(spec: str, scratch: Path) -> Path:
    """The source tree spec names: a directory, or a git revision of this repository
    extracted under scratch."""
    if (Path(spec) / "src" / "hmclab").is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                             check=True, capture_output=True).stdout
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def _run_tree(tree: Path, workdir: Path, quick: bool) -> None:
    workdir.mkdir(parents=True)
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(HERE)]),
           "PYTHONHASHSEED": "0"}
    code = f"import identity; identity.run_corpus(quick={quick})"
    subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, check=True)


def _first_difference(a: bytes, b: bytes) -> tuple[int, bytes, bytes]:
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else b"<end of file>"
        y = lb[i] if i < len(lb) else b"<end of file>"
        if x != y:
            return i + 1, x, y
    raise AssertionError("the files are equal")


def compare(parent: str, child: str, quick: bool = False) -> list[str]:
    """Run the corpus under both trees; the report line of each file that differs."""
    with tempfile.TemporaryDirectory(prefix="hmclab-identity-") as tmp:
        scratch = Path(tmp)
        runs = [scratch / "parent", scratch / "child"]
        for spec, workdir in zip((parent, child), runs):
            _run_tree(_tree(spec, scratch), workdir, quick)
        outputs = [{p.name for p in r.iterdir() if p.suffix in (".csv", ".stdout")} - set(INPUTS)
                   for r in runs]
        report = []
        for name in sorted(outputs[0] | outputs[1]):
            if name not in outputs[0] or name not in outputs[1]:
                side = "child" if name in outputs[0] else "parent"
                report.append(f"{name}: missing under the {side}")
                continue
            a, b = ((r / name).read_bytes() for r in runs)
            if a != b:
                line, x, y = _first_difference(a, b)
                report.append(f"{name}: line {line} differs\n  parent: {x[:200]!r}\n"
                              f"  child:  {y[:200]!r}")
        report.append(f"{len(outputs[0] | outputs[1])} files compared")
    return report


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: identity.py PARENT [CHILD]", file=sys.stderr)
        return 2
    parent, child = argv[0], argv[1] if len(argv) == 2 else str(ROOT)
    report = compare(parent, child)
    for line in report:
        print(line)
    differing = len(report) - 1
    print(f"{differing} differ" if differing else "no file differs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
