import functools
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import run_python
from hmclab import cli
from hmclab.bench import ExperimentConfig, corollary_schedule, run_experiment, run_overlap_check
from hmclab.cli import build_parser, main
from hmclab.config import build_target, experiment_from_file, parse_kv
from hmclab.kernel import HmcConfig, run_chains
from hmclab.targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TwoLayerNetTarget,
)
from hmclab.tensors import TensorNormReport
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
            experiment = acceptance-scaling
            dims = 16, 64
            seeds = 0, 1
            schedule = corollary-hmc
            grad_budget = 4000
            target.family = gaussian
        """))
        assert cfg.name == "acceptance-scaling"
        assert cfg.dims == (16, 64) and cfg.seeds == (0, 1)
        assert cfg.options["grad_budget"] == 4000
        assert cfg.target == {"family": "gaussian"}
        override = experiment_from_file(str(tmp_path / "e.cfg"), seed=7)
        assert override.seeds[0] == 7
        with pytest.raises(ValueError, match="dims"):  # mala-vs-hmc runs one dimension
            experiment_from_file(str(tmp_path / "e.cfg"), name="mala-vs-hmc")

    def test_experiment_from_file_rejects_undeclared_key(self, tmp_path):
        path = write(tmp_path / "typo.cfg", "experiment = mixing-estimate\ndims = 4\nn_chain = 8\n")
        with pytest.raises(ValueError, match="n_chain"):
            experiment_from_file(path)
        with pytest.raises(ValueError, match="n_chain"):
            main(["mixing-estimate", "--config", path, "--out", str(tmp_path / "m.csv")])
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("cfg, key", [
        ({"family": "logistic", "alpha": 5.0, "dim": 3, "n": 4}, "alpha"),
        ({"family": "gaussian", "dims": 8}, "dims"),
        ({"family": "ridge", "dim": 3, "potental": "sine"}, "potental"),
        # another family's keys: each used to build the named family's default
        ({"family": "gaussian", "alpha2": 3.0, "n": 7}, "alpha2, n"),
        ({"family": "two-layer", "dim": 5}, "dim"),
        ({"family": "ridge", "dim": 3, "data": "rows.csv"}, "data"),
    ])
    def test_build_target_rejects_undeclared_key(self, tmp_path, cfg, key):
        # each misspelling used to build the family's default instead
        with pytest.raises(ValueError, match=key):
            build_target(cfg)
        path = write(tmp_path / "typo.cfg", "".join(f"{k} = {v}\n" for k, v in cfg.items()))
        with pytest.raises(ValueError, match=key):
            main(["sample", "--config", path, "--eta", "0.3", "--K", "2",
                  "--out", str(tmp_path / "trace.csv")])
        assert not (tmp_path / "trace.csv").exists()

    def test_analysis_experiment_gives_dim_only_to_families_that_read_it(self):
        cfg = ExperimentConfig(name="tensor-report", dims=(16,), options={"n_points": 1, "restarts": 2},
                               target={"family": "two-layer", "m": 2, "n": 3, "dprime": 2})
        _, rows, _ = run_experiment(cfg)
        assert len(rows) == 1

    def test_experiment_from_file_rejects_an_ignored_schedule(self, tmp_path):
        path = write(tmp_path / "e.cfg", "experiment = energy-scaling\nschedule = fixed\n")
        with pytest.raises(ValueError, match="reads no schedule"):
            experiment_from_file(path)

    @pytest.mark.parametrize("command, body, key", [
        # each of these once ran: n_steps = 0 wrote a row of nan acceptance, n_rep = 0 four nan
        # IACT rows, sampler_warmup = -3 ran no warm-up, step_cap = 16 ran no step before
        # reporting that TV stayed above epsilon, n_chains = 8.9 ran 8 chains and n_steps = 4.5
        # 4 steps, n_points = true one point, and dims = 16, 32 ran d = 16 alone
        ("acceptance-scaling", "accept_constant = 1.0\nn_steps = 0\n", "n_steps"),
        ("mala-vs-hmc", "grad_budget = 2000\nn_rep = 0\n", "n_rep"),
        ("lemma-suite", "dims = 2\nn_mc = 100\nsampler_warmup = -3\n", "sampler_warmup"),
        ("mixing-estimate", "dims = 4\nn_chains = 64\nstep_cap = 16\n", "step_cap"),
        ("acceptance-scaling", "accept_constant = 1.0\nn_chains = 8.9\nn_steps = 4\n", "n_chains"),
        ("acceptance-scaling", "accept_constant = 1.0\nn_chains = 8\nn_steps = 4.5\n", "n_steps"),
        ("tensor-report", "dims = 2\nn_points = true\n", "n_points"),
        ("overlap-check", "dims = 16, 32\nn_mc = 100\n", "dims"),
        ("lemma-suite", "dims = 2\nn_mc = 100\nells = 2, 0\n", "ells"),
        # dims = 4.7 ran d = 4 and seeds = 1.9 seed 1; epsilon = -1 ran every checkpoint
        ("mixing-estimate", "dims = 4.7\nn_chains = 64\n", "dims"),
        ("mixing-estimate", "dims = 4\nseeds = 1.9\nn_chains = 64\n", "seeds"),
        ("mixing-estimate", "dims = 4, 8.5\nn_chains = 64\n", "dims"),
        ("lemma-suite", "dims = 2\nseeds = ,\nn_mc = 100\n", "seeds"),  # an IndexError
        ("mixing-estimate", "dims = 4\nn_chains = 64\nepsilon = -1\n", "epsilon"),
        ("mixing-estimate", "dims = 4\nn_chains = 64\nepsilon = nan\n", "epsilon"),
    ])
    def test_experiment_rejects_a_config_it_cannot_honour_before_drawing(
            self, tmp_path, monkeypatch, command, body, key):
        def drawing(*args):
            raise AssertionError(f"{command} drew before checking its config")

        monkeypatch.setattr("hmclab.bench.chain_rng", drawing)
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=key):
            main([command, "--config", write(tmp_path / "e.cfg", body), "--out", str(out)])
        assert not out.exists()

    def test_an_integral_float_count_reads_as_its_integer(self, tmp_path):
        body = "accept_constant = 1.0\ndims = 4\nn_chains = {}\nn_steps = {}\n"
        outs = []
        for counts in (("8.0", "4.0"), ("8", "4")):
            out = tmp_path / f"accept-{len(outs)}.csv"
            main(["acceptance-scaling", "--config", write(tmp_path / "e.cfg", body.format(*counts)),
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


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

    def test_main_reuses_one_parser(self, tmp_path, gaussian_cfg, capsys):
        # building the parser's 13 subcommands costs about 2.5 ms, paid once per process
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["sample", "--config", gaussian_cfg, "--eta", "0.3", "--K", "2",
                  "--n-steps", "20", "--seed", "3", "--out", str(out)])
            outs.append((out.read_bytes(), capsys.readouterr().out.replace(name, "")))
        assert outs[0] == outs[1]
        assert build_parser() is build_parser()
        assert build_parser.cache_info().misses == 1

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

    @pytest.mark.parametrize("flag, value", [("--thin", "0"), ("--thin", "-2"), ("--q0", "nan,0"),
                                             ("--q0", "0,inf"), ("--eta", "nan"), ("--eta", "inf"),
                                             ("--n-steps", "0"), ("--n-chains", "0")])
    def test_sample_rejects_bad_arguments_before_sampling(self, tmp_path, gaussian_cfg, capsys,
                                                          monkeypatch, flag, value):
        # --thin 0 once ran every chain before the CSV writer rejected the stride, and
        # --n-steps 0 failed in the kernel with an error that named no option
        def sample(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr("hmclab.cli.run_chains", sample)
        args = {"--eta": "0.3", "--K": "2", "--n-steps": "20000", "--n-chains": "4",
                "--out": str(tmp_path / "trace.csv"), flag: value}
        argv = ["sample", "--config", gaussian_cfg] + [x for kv in args.items() for x in kv]
        if flag == "--eta":  # parsed as a float, then rejected by the kernel's schedule check
            with pytest.raises(ValueError, match="step-size eta"):
                main(argv)
        else:
            with pytest.raises(SystemExit):
                main(argv)
            assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

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

    @pytest.mark.parametrize("command, extra, match", [
        ("sample", ["--eta", "1e300", "--K", "2"], "step-size eta"),
        ("overlap-check", [], "step-size eta"),
        ("lemmas", ["--eta", "1e200", "--n-mc", "100"], "step-size eta"),
        ("lemmas", ["--t", "1e200", "--n-mc", "100"], "time t"),
    ])
    def test_a_huge_finite_step_size_or_time_is_rejected_by_name(self, tmp_path, gaussian_cfg,
                                                                command, extra, match):
        # each once failed with a bare OverflowError: 0.5 * eta**2 in the orbit, and eta**6,
        # eta**7 or t**3 in the bounds, while --eta 1e9 reported every proposal as diverged
        out = tmp_path / "out.csv"
        if command == "overlap-check":
            gaussian_cfg = write(tmp_path / "e.cfg", "dims = 2\neta = 1e200\nn_mc = 100\n")
        writes = ["--out", str(out)] if command != "lemmas" else []
        with pytest.raises(ValueError, match=match):
            main([command, "--config", gaussian_cfg, *extra, *writes])
        assert not out.exists()

    def test_tune_json(self, capsys):
        rc = main(["tune", "--L", "1.0", "--d", "256", "--M", "10", "--epsilon", "0.05",
                   "--c-prime", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        expected = best_hmc_params(TheoryParams(L=1.0, gamma=0.0, d=256, M=10.0, epsilon=0.05))
        assert payload["eta"] == expected.eta
        assert payload["K"] == expected.K
        assert payload["ell"] == expected.ell

    @pytest.mark.parametrize("flag, value, field", [
        ("--psi", "nan", "psi"), ("--c", "0", "c"), ("--c", "-1", "c"), ("--c", "nan", "c"),
        ("--M", "inf", "M"), ("--M", "nan", "M"), ("--L", "nan", "L"), ("--L", "inf", "L"),
        ("--gamma", "inf", "gamma"), ("--c-prime", "nan", "c_prime"), ("--c-prime", "0", "c_prime"),
    ])
    def test_tune_rejects_a_bad_theory_parameter(self, capsys, flag, value, field):
        # psi = nan once printed NaN into the JSON, c' = 0 printed K = 1 and ell = 2, and the
        # others failed in the arithmetic (ZeroDivisionError, a math domain error, NaN to int)
        argv = {"--L": "1", "--d": "64", flag: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            main(["tune", *(x for item in argv.items() for x in item)])
        assert capsys.readouterr().out == ""

    def test_tune_mala(self, capsys):
        main(["tune", "--L", "2.0", "--d", "64", "--mala"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 1

    @pytest.mark.parametrize("mala", [False, True])
    def test_tune_defaults_are_the_experiments_schedule(self, capsys, mala):
        main(["tune", "--L", "1", "--d", "64"] + (["--mala"] if mala else []))
        payload = json.loads(capsys.readouterr().out)
        cfg = ExperimentConfig(name="mixing-estimate")
        schedule = "corollary-mala" if mala else "corollary-hmc"
        eta, K = corollary_schedule(schedule, GaussianTarget.standard(64), cfg)
        assert (payload["eta"], payload["K"], payload["ell"]) == (eta, K, 8)
        assert K == (1 if mala else 5)

    def test_tensor_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "ridge.cfg", "family = ridge\nn = 3\ndim = 3\npotential = sine\n")
        rc = main(["tensor", "--config", cfg, "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [f.name for f in fields(TensorNormReport)]
        assert payload["partition_ordering_ok"] is True
        assert payload["norm_1_2_3_lower"] <= payload["norm_12_3"] <= payload["norm_123"]
        assert 1 <= payload["max_sweeps"] <= 200 and 0 <= payload["capped_restarts"] <= 20

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_tensor_rejects_no_restarts_at_parse_time(self, tmp_path, capsys, monkeypatch, value):
        # --restarts 0 once failed only after the third-derivative tensor was built
        def build(*args):
            raise AssertionError("the tensor was built")

        monkeypatch.setattr("hmclab.cli.third_derivative_tensor", build)
        cfg = write(tmp_path / "ridge.cfg", "family = ridge\nn = 3\ndim = 3\n")
        with pytest.raises(SystemExit):
            main(["tensor", "--config", cfg, "--restarts", value])
        assert "argument --restarts:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_overlap_rejects_a_bad_separation_at_parse_time(self, gaussian_cfg, capsys, value):
        # nan and inf once failed as "inverse map iterate left the trusted region"; -1 ran
        with pytest.raises(SystemExit):
            main(["overlap", "--config", gaussian_cfg, "--separation", value, "--n-mc", "100"])
        assert "argument --separation:" in capsys.readouterr().err

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

    def test_lemma_suite_header_is_the_lemmas_json_keys(self, tmp_path, gaussian_cfg, capsys):
        main(["lemmas", "--config", gaussian_cfg, "--n-mc", "100"])
        first = json.loads(capsys.readouterr().out.split("}\n{")[0] + "}")
        cfg = write(tmp_path / "suite.cfg", "dims = 2\nells = 2\nn_mc = 100\n")
        main(["lemma-suite", "--config", cfg, "--out", str(tmp_path / "suite.csv")])
        header = (tmp_path / "suite.csv").read_text().splitlines()[0].split(",")
        assert header + ["n_samples"] == list(first)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_lemmas_rejects_a_bad_time_at_parse_time(self, gaussian_cfg, capsys, value):
        # --t nan once ran 20,000 draws through 16 rounds of RK4 refinement, in effect a hang
        with pytest.raises(SystemExit):
            main(["lemmas", "--config", gaussian_cfg, "--t", value])
        assert "argument --t:" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [None, "0.1"])
    def test_lemmas_on_a_target_without_gamma(self, tmp_path, capsys, t):
        # the two-layer family declares no gamma: the energy and drift checks are skipped
        cfg = write(tmp_path / "twolayer.cfg", "family = two-layer\nm = 2\nn = 4\ndprime = 3\n")
        rc = main(["lemmas", "--config", cfg, "--n-mc", "2000", "--seed", "0"]
                  + ([] if t is None else ["--t", t]))
        assert rc == 0
        quantities = re.findall(r'"quantity": "(\w+)"', capsys.readouterr().out)
        assert quantities == ["grad_norm", "p_hessian_p", "grad_hessian_p",
                              "third_ppp", "third_pp_norm_sq"]

    @pytest.mark.parametrize("t", [None, "0.05"])
    def test_lemmas_on_the_default_ridge_family(self, tmp_path, capsys, t):
        # logcosh's rho3 was a numpy scalar, so `violated` came back as numpy.bool_ and the
        # fourth report (the energy error) failed to serialise
        cfg = write(tmp_path / "ridge.cfg", "family = ridge\n")
        rc = main(["lemmas", "--config", cfg, "--n-mc", "200"] + ([] if t is None else ["--t", t]))
        assert rc == 0
        reports = json.loads("[" + capsys.readouterr().out.replace("}\n{", "},{") + "]")
        expected = ["grad_norm", "p_hessian_p", "grad_hessian_p", "leapfrog_energy_error",
                    "third_ppp", "third_pp_norm_sq"]
        drift = ["php_drift", "hp_drift", "leapfrog_position_gap"]
        assert [r["quantity"] for r in reports] == expected + (drift if t else [])

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


_SAMPLING_OPTIONS = {"acceptance-scaling": "accept_constant = 1.0\nn_chains = 8\nn_steps = 4\n",
                     "mala-vs-hmc": "grad_budget = 400\nn_rep = 2\n"}


@pytest.mark.parametrize("command", sorted(_SAMPLING_OPTIONS))
def test_sampling_experiment_on_a_logistic_target_reruns_bit_for_bit(tmp_path, command):
    # the chains start from HMC draws of the target, not from a Gaussian's exact draws
    options = _SAMPLING_OPTIONS[command]
    path = write(tmp_path / "exp.cfg", "dims = 4\ntarget.family = logistic\ntarget.n = 16\n"
                                       + options)
    outs = [tmp_path / f"{command}-{run}.csv" for run in (1, 2)]
    for out in outs:
        assert main([command, "--config", path, "--out", str(out), "--seed", "3"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = [line.split(",") for line in outs[0].read_text().splitlines()[1:]]
    assert rows and all(row[0] == "4" for row in rows)
    gaussian = write(tmp_path / "gaussian.cfg", "dims = 4\n" + options)
    assert main([command, "--config", gaussian, "--out", str(tmp_path / "g.csv"),
                 "--seed", "3"]) == 0
    assert (tmp_path / "g.csv").read_bytes() != outs[0].read_bytes()


#: CI's synthetic-logistic overlap-check: 1000 KL draws at d = 16
OVERLAP_CFG = ("dims = 16\nseeds = 0\ntarget.family = logistic\ntarget.dim = 16\ntarget.n = 32\n"
               "K = 4\neta = 0.01\nn_mc = 1000\n")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt")
def test_cli_keeps_its_freed_heap_with_the_same_bytes(tmp_path):
    # glibc's default thresholds hand the log-determinant's 128 KiB-1 MiB temporaries back to
    # the OS, so every overlap-check call in one process faulted ~10.5k pages in again
    cfg = write(tmp_path / "overlap.cfg", OVERLAP_CFG)
    code = ("import resource, sys\n"
            "from hmclab.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    main(['overlap-check', '--config', cfg, '--out', out])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    faults = int(run_python(code, cfg, str(tmp_path / "cli.csv")).splitlines()[-1])
    assert faults < 1000
    # a fresh interpreter that never ran main keeps glibc's defaults: the bytes are the same
    code = ("import sys\n"
            "from hmclab.bench import run_experiment\n"
            "from hmclab.config import experiment_from_file\n"
            "cfg, out = sys.argv[1:]\n"
            "run_experiment(experiment_from_file(cfg, name='overlap-check'), out=out)\n")
    run_python(code, cfg, str(tmp_path / "library.csv"))
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_cli_runs_where_mallopt_cannot_be_called(tmp_path, monkeypatch, cdll):
    calls = []
    monkeypatch.setattr("ctypes.CDLL", lambda name: calls.append(name) or cdll(name))
    # a fresh cache, so this process's main looks for mallopt again
    monkeypatch.setattr(cli, "_keep_freed_heap", functools.cache(cli._keep_freed_heap.__wrapped__))
    cfg = write(tmp_path / "overlap.cfg", OVERLAP_CFG)
    out, lib = tmp_path / "cli.csv", tmp_path / "library.csv"
    assert main(["overlap-check", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [None]
    run_experiment(experiment_from_file(cfg, name="overlap-check"), out=str(lib))
    assert out.read_bytes() == lib.read_bytes()


def test_cli_import_leaves_scipy_stats_unloaded():
    # every command pays the CLI's import time; scipy.stats alone costs ~1 s
    import hmclab

    src = os.path.dirname(os.path.dirname(hmclab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hmclab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_cold_start_loads_no_scipy(tmp_path):
    # scipy.special alone was half the start-up of every hmclab command
    cfg = write(tmp_path / "target.cfg", "family = gaussian\ndim = 2\n")
    code = ("import sys, hmclab, hmclab.cli, hmclab.bench\n"
            "cfg, out = sys.argv[1:]\n"
            "hmclab.cli.main(['sample', '--config', cfg, '--eta', '0.3', '--K', '2', '--out', out])\n"
            "hmclab.cli.main(['tune', '--L', '1', '--d', '64'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = run_python(code, cfg, str(tmp_path / "trace.csv"))
    assert '"K": 5' in out
    assert out.strip().splitlines()[-1] == "[]"


def test_commands_run_without_scipy(tmp_path):
    # SciPy is a test dependency only: with it unimportable, a sample and a lazy mixing estimate
    # (its TV projections included) still run and write their outputs
    target = write(tmp_path / "target.cfg", "family = gaussian\ndim = 2\n")
    mixing = write(tmp_path / "mixing.cfg", "dims = 4\nseeds = 0\nn_chains = 1024\nlazy = true\n"
                   "epsilon = 0.3\nwarm_s = 0.02\nschedule = fixed\neta = 0.1\nK = 1\n")
    trace, csv = tmp_path / "trace.csv", tmp_path / "mixing.csv"
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # import scipy now raises ImportError\n"
            "import hmclab.cli\n"
            "target, trace, mixing, csv = sys.argv[1:]\n"
            "hmclab.cli.main(['sample', '--config', target, '--eta', '0.3', '--K', '2', '--lazy',"
            " '--out', trace])\n"
            "hmclab.cli.main(['mixing-estimate', '--config', mixing, '--out', csv])\n")
    run_python(code, target, str(trace), mixing, str(csv))
    assert trace.read_text().startswith("chain,step,accepted,delta_H,q_1,q_2")
    assert csv.read_text().count("\n") > 1
    assert json.loads((tmp_path / "mixing.csv.json").read_text())["summary"]
