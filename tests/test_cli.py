import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmclab.bench import ExperimentConfig, run_experiment, run_overlap_check
from hmclab.cli import main
from hmclab.config import build_target, experiment_from_file, parse_kv
from hmclab.kernel import HmcConfig, run_chains
from hmclab.targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TwoLayerNetTarget,
)
from hmclab.tuning import TheoryParams, best_hmc_params


def write(path, text):
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_parse_kv(self, tmp_path):
        cfg = parse_kv(write(tmp_path / "a.cfg", """
            # a comment
            family = gaussian
            dim = 4
            precision = 2.0, 3.0   # diagonal
            lazy = true
            label = hello
        """))
        assert cfg == {"family": "gaussian", "dim": 4, "precision": [2.0, 3.0],
                       "lazy": True, "label": "hello"}

    def test_parse_kv_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError):
            parse_kv(write(tmp_path / "bad.cfg", "just words\n"))

    def test_build_gaussian_variants(self, tmp_path):
        assert isinstance(build_target({"family": "gaussian", "dim": 3}), GaussianTarget)
        t = build_target({"family": "gaussian", "dim": 3, "precision": [2.0, 1.0, 0.5]})
        assert_allclose(np.diagonal(t.precision), [2.0, 1.0, 0.5])
        t2 = build_target({"family": "gaussian", "dim": 2, "precision": 4.0})
        assert t2.smoothness == 4.0
        path = tmp_path / "prec.csv"
        np.savetxt(path, np.diag([1.0, 9.0]), delimiter=",")
        t3 = build_target({"family": "gaussian", "precision": str(path)})
        assert t3.smoothness == 9.0

    def test_build_other_families(self, tmp_path):
        assert isinstance(build_target({"family": "ridge", "n": 3, "dim": 4}), RidgeSeparableTarget)
        assert isinstance(build_target({"family": "logistic", "n": 4, "dim": 3}), LogisticPosteriorTarget)
        assert isinstance(build_target({"family": "two-layer", "m": 2, "n": 3, "dprime": 2}), TwoLayerNetTarget)
        with pytest.raises(ValueError):
            build_target({"family": "cauchy"})
        data = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        path = tmp_path / "lr.csv"
        np.savetxt(path, data, delimiter=",")
        t = build_target({"family": "logistic", "data": str(path), "alpha2": 2.0})
        assert t.n == 2 and t.d == 2 and t.alpha2 == 2.0

    def test_experiment_from_file(self, tmp_path):
        cfg = experiment_from_file(write(tmp_path / "e.cfg", """
            experiment = mala-vs-hmc
            dims = 16, 64
            seeds = 0, 1
            schedule = corollary-hmc
            grad_budget = 4000
            target.family = gaussian
        """))
        assert cfg.name == "mala-vs-hmc"
        assert cfg.dims == (16, 64) and cfg.seeds == (0, 1)
        assert cfg.options["grad_budget"] == 4000
        assert cfg.target == {"family": "gaussian"}
        override = experiment_from_file(str(tmp_path / "e.cfg"), seed=7)
        assert override.seeds[0] == 7


@pytest.fixture
def gaussian_cfg(tmp_path):
    return write(tmp_path / "target.cfg", "family = gaussian\ndim = 2\n")


class TestCli:
    def test_sample_writes_csv(self, tmp_path, gaussian_cfg, capsys):
        out = tmp_path / "trace.csv"
        rc = main([
            "sample", "--config", gaussian_cfg, "--eta", "0.3", "--K", "2",
            "--n-steps", "50", "--n-chains", "2", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert 0.0 <= info["acceptance_rate"] <= 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == "chain,step,accepted,delta_H,q_1,q_2"
        assert len(lines) == 1 + 100

    def test_sample_bit_identical(self, tmp_path, gaussian_cfg):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["sample", "--config", gaussian_cfg, "--eta", "0.3", "--K", "2",
                  "--n-steps", "40", "--seed", "9", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sample_reports_divergences(self, tmp_path, capsys):
        cfg = write(tmp_path / "ridge.cfg", "family = ridge\nn = 3\ndim = 2\npotential = cubic\n")
        out = tmp_path / "trace.csv"
        rc = main(["sample", "--config", cfg, "--eta", "1.6", "--K", "4", "--n-steps", "50",
                   "--n-chains", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        delta_h = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3]
        # without lazy holds, delta_H is NaN exactly on diverged proposals
        assert 0 < info["diverged"] == int(np.isnan(delta_h).sum())

    @pytest.mark.parametrize("n_chains, expected", [(1, None), (3, 1.0)])
    def test_sample_json_without_attempts(self, tmp_path, gaussian_cfg, capsys, n_chains,
                                          expected):
        # seed 5: chains 0 and 1 hold at their one step, chain 2 attempts and accepts
        out = tmp_path / "trace.csv"
        rc = main(["sample", "--config", gaussian_cfg, "--eta", "0.3", "--K", "2", "--lazy",
                   "--n-steps", "1", "--n-chains", str(n_chains), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        info = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert info["acceptance_rate"] == expected

    def test_sample_json_acceptance_is_chain_mean(self, tmp_path, capsys):
        cfg = write(tmp_path / "logistic.cfg", "family = logistic\nn = 12\ndim = 3\ndata_seed = 2\n")
        out = tmp_path / "trace.csv"
        main(["sample", "--config", cfg, "--eta", "0.9", "--K", "3", "--n-steps", "60",
              "--n-chains", "4", "--seed", "6", "--out", str(out)])
        info = json.loads(capsys.readouterr().out)
        traces = run_chains(build_target(parse_kv(cfg)), HmcConfig(eta=0.9, K=3, seed=6),
                            np.zeros(3), 60, 4)
        assert 0.0 < info["acceptance_rate"] < 1.0
        assert info["acceptance_rate"] == float(np.mean([t.acceptance_rate for t in traces]))

    def test_tune_json(self, capsys):
        rc = main(["tune", "--L", "1.0", "--d", "256", "--M", "10", "--epsilon", "0.05",
                   "--c-prime", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        expected = best_hmc_params(TheoryParams(L=1.0, gamma=0.0, d=256, M=10.0, epsilon=0.05))
        assert payload["eta"] == expected.eta
        assert payload["K"] == expected.K
        assert payload["ell"] == expected.ell

    def test_tune_mala(self, capsys):
        main(["tune", "--L", "2.0", "--d", "64", "--mala"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 1

    def test_tensor_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "ridge.cfg", "family = ridge\nn = 3\ndim = 3\npotential = sine\n")
        rc = main(["tensor", "--config", cfg, "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition_ordering_ok"] is True
        assert payload["norm_1_2_3_lower"] <= payload["norm_12_3"] <= payload["norm_123"]

    def test_overlap_json(self, tmp_path, gaussian_cfg, capsys):
        rc = main(["overlap", "--config", gaussian_cfg, "--K", "2", "--eta", "0.1",
                   "--n-mc", "2000", "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("kl", "std_error", "pinsker_tv", "lemma_bound"):
            assert key in payload
        assert payload["kl"] >= -36 * payload["std_error"]

    def test_overlap_rejects_zero_direction(self, gaussian_cfg):
        with pytest.raises(ValueError, match="nonzero"):
            main(["overlap", "--config", gaussian_cfg, "--direction", "0,0", "--n-mc", "100"])

    def test_lemmas_json(self, tmp_path, gaussian_cfg, capsys):
        rc = main(["lemmas", "--config", gaussian_cfg, "--ell", "2",
                   "--n-mc", "2000", "--seed", "2"])
        assert rc == 0
        chunks = capsys.readouterr().out.strip().split("}\n{")
        assert len(chunks) == 6  # includes the two (identically zero) chaos reports
        first = json.loads(chunks[0] + "}")
        assert first["quantity"] == "grad_norm" and not first["violated"]
        last = json.loads("{" + chunks[-1])
        assert last["quantity"] == "third_pp_norm_sq" and last["empirical"] == 0.0

    def test_lemmas_with_drift_checks(self, tmp_path, gaussian_cfg, capsys):
        rc = main(["lemmas", "--config", gaussian_cfg, "--ell", "2", "--t", "0.1",
                   "--n-mc", "2000", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count('"quantity"') == 9
        assert "leapfrog_position_gap" in out

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", """
            experiment = acceptance-scaling
            dims = 8, 16
            schedule = corollary-hmc
            accept_constant = 1.0
            n_chains = 16
            n_steps = 4
        """)
        out = tmp_path / "res.csv"
        rc = main(["acceptance-scaling", "--config", cfg, "--out", str(out), "--seed", "0"])
        assert rc == 0
        assert out.exists() and (tmp_path / "res.csv.json").exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("d,eta,K,accept_mean")
        assert len(lines) == 3

    def test_experiment_subcommand_overrides_config_name(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", """
            experiment = acceptance-scaling
            dims = 8
            n_mc = 2000
            etas = 0.05, 0.1
        """)
        out = tmp_path / "energy.csv"
        rc = main(["energy-scaling", "--config", cfg, "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith("sweep,d,eta")

    def test_analysis_experiment_target_dim_defaults_to_dims(self, tmp_path):
        # no target.* keys: the command and run_experiment both use the d = 16 Gaussian
        cfg = write(tmp_path / "exp.cfg",
                    "experiment = lemma-suite\ndims = 16\nn_mc = 2000\nells = 2\n")
        out = tmp_path / "cli.csv"
        assert main(["lemma-suite", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        lib = tmp_path / "lib.csv"
        run_experiment(experiment_from_file(cfg, seed=0), out=str(lib))
        assert out.read_text() == lib.read_text()

    def test_analysis_experiment_uses_configured_target(self, tmp_path):
        cfg = ExperimentConfig(name="overlap-check", dims=(16,), options={"n_mc": 500},
                               target={"family": "logistic", "n": 8, "dim": 4})
        header, rows, _ = run_overlap_check(cfg)
        assert header[0] == "d" and rows[0][0] == 4
        # the subcommand names the experiment when the file does not
        path = write(tmp_path / "exp.cfg", "dims = 16\ntarget.family = ridge\ntarget.dim = 3\n"
                                           "n_points = 1\nrestarts = 3\n")
        out = tmp_path / "tensor.csv"
        assert main(["tensor-report", "--config", path, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) > 0.0  # a nonzero third derivative: the ridge target, not a Gaussian


def test_cli_import_leaves_scipy_stats_unloaded():
    # every command pays the CLI's import time; scipy.stats alone costs ~1 s
    import hmclab

    src = os.path.dirname(os.path.dirname(hmclab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hmclab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
