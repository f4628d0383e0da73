import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaky_rbm import HiddenKind, RbmParams, project_spectral, save_model, write_raw_f32
from leaky_rbm import DimensionError, cli, projection
from leaky_rbm.cli import build_parser, main, read_config
from leaky_rbm.data_io import load_model

from conftest import random_safe_params


def _write_data(path, rng, n=120, cols=3):
    m = rng.standard_normal((n, cols))
    np.savetxt(path, m, delimiter=",")
    return path


def _write_correlated_data(path):
    """Three columns near one common factor: with --learning-rate 10 and
    --hidden 2, one epoch of train has an update that clips."""
    g = np.random.default_rng(0)
    np.savetxt(path, g.standard_normal((120, 1)) + 0.1 * g.standard_normal((120, 3)),
               delimiter=",")
    return path


class TestReadConfig:
    def test_parses_flat_pairs(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("epochs = 3\n# comment\n\nlearning-rate=0.5 # trailing\n")
        assert read_config(p) == {"epochs": "3", "learning-rate": "0.5"}

    def test_rejects_bad_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("this is not a pair\n")
        from leaky_rbm import DataFormatError

        with pytest.raises(DataFormatError):
            read_config(p)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--data", "x.csv", "--bogus"]) == 1

    def test_missing_model_file_names_path(self, tmp_path, capsys):
        rc = main(["sample", "--model", str(tmp_path / "ghost.rbm")])
        assert rc == 1
        assert "ghost.rbm" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "none.csv")])
        assert rc == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, rng, capsys):
        data = _write_data(tmp_path / "d.csv", rng)
        cfg = tmp_path / "cfg"
        cfg.write_text("hiden=5\nepochs=1\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "train", "--data", str(data)])
        assert rc == 1
        assert "hiden" in capsys.readouterr().err
        assert not (tmp_path / "model.rbm").exists()

    def test_eval_ll_width_mismatch_is_file_error(self, tmp_path, rng, capsys):
        model = tmp_path / "m.rbm"
        save_model(model, random_safe_params(rng, 2, 2, leakiness=0.2, max_norm=0.7))
        data = _write_data(tmp_path / "wide.csv", rng, n=10, cols=3)
        rc = main(["eval-ll", "--model", str(model), "--data", str(data), "--log-z", "1.0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "wide.csv" in err, err

    def test_eval_ll_with_no_digits_left_is_exit_2(self, tmp_path, rng, capsys):
        # W = 0 and |b| ~ 1e112: log f and log Z are both about 4.5e224, so
        # their difference keeps none of its digits
        model = tmp_path / "m.rbm"
        save_model(model, RbmParams.create(np.zeros((2, 2)),
                                           hidden_bias=np.array([3e112, -2e112]), leakiness=0.01))
        data = _write_data(tmp_path / "d.csv", rng, n=50, cols=2)
        rc = main(["eval-ll", "--model", str(model), "--data", str(data), "--log-z", "4.52e224"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "lost its digits" in captured.err

    @pytest.mark.parametrize("command", ["train", "eval-ll"])
    def test_non_finite_data_is_file_error(self, tmp_path, rng, capsys, command):
        model = tmp_path / "m.rbm"
        save_model(model, random_safe_params(rng, 3, 2, leakiness=0.2, max_norm=0.7))
        # finite columns too large to standardise: one 1e200 entry overflows
        # the std, two 1e308 entries overflow the mean (CSV only, past float32)
        for name, value, count in (("nan.csv", np.nan, 1), ("inf.csv", np.inf, 1),
                                   ("nan.bin", np.nan, 1), ("std-overflow.csv", 1e200, 1),
                                   ("mean-overflow.csv", 1e308, 2)):
            m = rng.standard_normal((20, 3))
            m[5 : 5 + count, 1] = value
            path = tmp_path / name
            if path.suffix == ".csv":
                np.savetxt(path, m, delimiter=",")
            else:
                write_raw_f32(path, m)
            if command == "train":
                args = ["train", "--data", str(path), "--hidden", "2", "--epochs", "1"]
            else:
                args = ["eval-ll", "--model", str(model), "--data", str(path), "--log-z", "1.0"]
            rc = main(["--out", str(tmp_path), *args])
            captured = capsys.readouterr()
            assert rc == 1
            assert len(captured.err.splitlines()) == 1 and name in captured.err, captured.err
            assert captured.out == ""
        assert not (tmp_path / "model.rbm").exists()

    def test_numerical_failure_is_exit_2(self, tmp_path, rng, capsys):
        # an unsafe model makes the annealed sampler's base Gaussian
        # undefined, which the contract maps to exit code 2
        W = np.diag([1.5, 0.2])
        p = RbmParams(W, np.zeros(2), np.zeros(2), 0.1)
        model = tmp_path / "bad.rbm"
        save_model(model, p)
        rc = main(["--out", str(tmp_path), "sample", "--model", str(model), "--n", "5"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--model", "m.rbm", "--n", "5", "--steps", "2"],
        ["estimate-z", "--model", "m.rbm", "--path", "leaky", "--levels", "3",
         "--particles", "5"],
        ["estimate-z", "--model", "m.rbm", "--path", "energy", "--levels", "3",
         "--particles", "5"],
        ["train", "--data", "d.csv", "--hidden", "2", "--epochs", "1",
         "--neg-sampler", "leaky-anneal"],
    ], ids=["sample", "estimate-z-leaky", "estimate-z-energy", "train-leaky-anneal"])
    def test_lapack_failure_is_exit_2(self, tmp_path, rng, capsys, monkeypatch, argv):
        # LinAlgError subclasses ValueError, but it is a numerical failure,
        # not a rejected option
        save_model(tmp_path / "m.rbm", random_safe_params(rng, 3, 2, max_norm=0.7))
        _write_data(tmp_path / "d.csv", rng)
        monkeypatch.chdir(tmp_path)

        def fail(*args):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(projection, "_top_singular_value", fail)
        assert main(["--out", str(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: Internal Error.\n"

    @pytest.mark.parametrize("exc, code, err", [
        (ValueError("boom"), 1, "error: boom\n"),
        (DimensionError("wide"), 1, "error: wide\n"),
        (np.linalg.LinAlgError("x"), 2, "numerical failure: x\n"),
        (MemoryError(), 1, "error: out of memory\n"),
        (MemoryError("Unable to allocate"), 1, "error: Unable to allocate\n"),
        (OverflowError("too big"), 1, "error: too big\n"),
    ], ids=["ValueError", "DimensionError", "LinAlgError", "MemoryError",
            "MemoryError-message", "OverflowError"])
    def test_main_alone_maps_exceptions_to_exit_codes(
        self, tmp_path, rng, capsys, monkeypatch, exc, code, err
    ):
        # save_model runs outside any command's own handling, so main's
        # table decides; LinAlgError is a ValueError and still exits 2
        data = _write_data(tmp_path / "d.csv", rng)

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "save_model", fail)
        argv = ["--out", str(tmp_path), "train", "--data", str(data), "--epochs", "1"]
        assert main(argv) == code
        assert capsys.readouterr().err == err

    def test_overflowing_training_is_exit_2(self, tmp_path, capsys):
        # the weights stay finite, but the reconstruction overflows
        data = tmp_path / "d.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((50, 4)), delimiter=",")
        rc = main(["--out", str(tmp_path), "train", "--data", str(data), "--hidden", "2",
                   "--epochs", "1", "--learning-rate", "1e300", "--no-projection"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "numerical failure: reconstruction error overflowed at epoch 0\n"
        assert not (tmp_path / "model.rbm").exists()

    def test_overflowing_minibatches_exit_2_with_one_line(self, tmp_path):
        # the weights overflow inside the epoch's minibatches; a child
        # interpreter shows stderr as a user sees it, numpy's warnings included
        data = tmp_path / "d.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((50, 4)), delimiter=",")
        argv = ["--out", str(tmp_path), "train", "--data", str(data), "--hidden", "2",
                "--epochs", "3", "--batch-size", "10", "--learning-rate", "1e150",
                "--no-projection"]
        proc = subprocess.run([sys.executable, "-m", "leaky_rbm.cli", *argv], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "numerical failure: non-finite parameters at epoch 0, batch 1\n"
        assert not (tmp_path / "model.rbm").exists()

    def test_failed_clip_eigensolve_is_exit_2_and_writes_no_model(
        self, tmp_path, capsys, monkeypatch
    ):
        # a nonzero info from LAPACK's dsyevr, on a run whose one update clips
        lapack = projection._lapack()

        def failing(*args, **kwargs):
            *out, _ = lapack.dsyevr(*args, **kwargs)
            return (*out, 1)

        fake = types.SimpleNamespace(
            dpotrf=lapack.dpotrf, dsyevr_lwork=lapack.dsyevr_lwork, dsyevr=failing)
        monkeypatch.setattr(projection, "_lapack", lambda: fake)
        data = _write_correlated_data(tmp_path / "d.csv")
        argv = ["--out", str(tmp_path), "train", "--data", str(data), "--hidden", "2",
                "--epochs", "1", "--learning-rate", "10"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "numerical failure: LAPACK dsyevr failed with info 1\n"
        assert not (tmp_path / "model.rbm").exists()

    def test_sample_where_the_subset_eigensolve_failed(self, tmp_path, capsys):
        # LAPACK's dsyevr raised LinAlgError("Internal Error.") on this
        # projected 64 x 16 model, and sample exited 1
        g = np.random.default_rng(188)
        W = project_spectral(g.standard_normal((64, 16)) * g.uniform(0.05, 1.0) * 2 / 8)[0]
        save_model(tmp_path / "m.rbm", RbmParams.create(W))
        argv = ["sample", "--model", str(tmp_path / "m.rbm"), "--n", "20", "--steps", "10"]
        assert main(["--out", str(tmp_path), *argv]) == 0
        assert np.isfinite(np.loadtxt(tmp_path / "samples.csv", delimiter=",")).all()


class TestTrainCommand:
    def test_train_writes_model(self, tmp_path, rng, capsys):
        data = _write_data(tmp_path / "d.csv", rng)
        rc = main(
            [
                "--seed", "7", "--out", str(tmp_path),
                "train", "--data", str(data), "--hidden", "4",
                "--epochs", "2", "--cd-steps", "1",
            ]
        )
        assert rc == 0
        model, prov = load_model(tmp_path / "model.rbm")
        assert model.weights.shape == (3, 4)
        assert prov.seed == 7
        assert prov.epoch == 2

    @pytest.mark.parametrize("sampler", ["leaky-anneal", "mix"])
    def test_annealed_sampler_on_bernoulli_units_writes_no_model(
        self, tmp_path, rng, capsys, sampler
    ):
        # rejected before the first epoch, so even zero epochs write nothing
        data = _write_data(tmp_path / "d.csv", rng)
        rc = main(
            [
                "--out", str(tmp_path), "train", "--data", str(data), "--hidden", "2",
                "--epochs", "0", "--neg-sampler", sampler, "--kind", "bernoulli",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "leakiness annealing requires leaky hidden units" in err
        assert len(err.splitlines()) == 1, err
        assert not (tmp_path / "model.rbm").exists()

    @pytest.mark.parametrize("config, leakiness", [
        (None, "5"), (None, "nan"), ("leakiness=5", None), ("leakiness=-0.5", None),
    ])
    @pytest.mark.parametrize("kind", ["leaky", "bernoulli"])
    def test_leakiness_outside_0_1_writes_no_model(
        self, tmp_path, rng, capsys, kind, config, leakiness
    ):
        # Bernoulli units have no leakiness, yet a flag or config value out of
        # (0, 1] is a usage error for them too, as for leaky units
        data = _write_data(tmp_path / "d.csv", rng)
        head = ["--out", str(tmp_path)]
        if config is not None:
            cfg = tmp_path / "cfg"
            cfg.write_text(config + "\n")
            head += ["--config", str(cfg)]
        argv = ["train", "--data", str(data), "--hidden", "2", "--epochs", "0", "--kind", kind]
        rc = main(head + argv + ([] if leakiness is None else ["--leakiness", leakiness]))
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "--leakiness" in err and "(0, 1]" in err, err
        assert not (tmp_path / "model.rbm").exists()

    def test_config_file_supplies_options(self, tmp_path, rng):
        data = _write_data(tmp_path / "d.csv", rng)
        cfg = tmp_path / "cfg"
        cfg.write_text("hidden=5\nepochs=1\nseed=3\n")
        rc = main(
            [
                "--config", str(cfg), "--out", str(tmp_path),
                "train", "--data", str(data),
            ]
        )
        assert rc == 0
        model, prov = load_model(tmp_path / "model.rbm")
        assert model.weights.shape == (3, 5)
        assert prov.seed == 3

    def test_cli_flag_beats_config_value(self, tmp_path, rng):
        data = _write_data(tmp_path / "d.csv", rng)
        cfg = tmp_path / "cfg"
        cfg.write_text("hidden=5\nepochs=1\n")
        rc = main(
            [
                "--config", str(cfg), "--out", str(tmp_path),
                "train", "--data", str(data), "--hidden", "2",
            ]
        )
        assert rc == 0
        model, _ = load_model(tmp_path / "model.rbm")
        assert model.weights.shape == (3, 2)


class TestModelPipeline:
    @pytest.fixture
    def trained_model(self, tmp_path, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2, max_norm=0.7)
        path = tmp_path / "m.rbm"
        save_model(path, p)
        return path

    def test_sample_writes_csv(self, tmp_path, trained_model, capsys):
        rc = main(
            [
                "--seed", "1", "--out", str(tmp_path),
                "sample", "--model", str(trained_model), "--n", "8", "--steps", "5",
            ]
        )
        assert rc == 0
        samples = np.loadtxt(tmp_path / "samples.csv", delimiter=",")
        assert samples.shape == (8, 2)

    def test_estimate_z_prints_and_appends_csv(self, tmp_path, trained_model, capsys):
        argv = [
            "--seed", "1", "--out", str(tmp_path),
            "estimate-z", "--model", str(trained_model),
            "--path", "leaky", "--levels", "30", "--particles", "100",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "log_z" in out and "+-" in out
        assert main(argv) == 0
        rows = list(csv.DictReader(open(tmp_path / "estimate_z.csv")))
        assert len(rows) == 2
        assert rows[0]["path"] == "leaky"
        assert rows[0]["log_z"] == rows[1]["log_z"]

    @pytest.mark.parametrize("content", [
        b"path,levels,particles,log_z,stderr,ess\nleaky,3,4,1.5,0.1,3.9\n",
        b"\x00\xffnot a csv\n",
        b"path,levels,particles,log_z,stderr,ess,dropped",  # no line end
    ], ids=["six-columns", "binary", "unterminated"])
    def test_estimate_z_refuses_a_foreign_csv(self, tmp_path, trained_model, capsys, content):
        out = tmp_path / "estimate_z.csv"
        out.write_bytes(content)
        rc = main([
            "--out", str(tmp_path), "estimate-z", "--model", str(trained_model),
            "--levels", "3", "--particles", "4",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and str(out) in err
        assert out.read_bytes() == content

    def test_estimate_z_writes_the_header_into_an_empty_csv(self, tmp_path, trained_model):
        out = tmp_path / "estimate_z.csv"
        out.touch()
        argv = ["--out", str(tmp_path), "estimate-z", "--model", str(trained_model),
                "--levels", "3", "--particles", "4"]
        assert main(argv) == 0 and main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "path,levels,particles,log_z,stderr,ess,dropped"
        assert len(lines) == 3 and all(line.count(",") == 6 for line in lines)

    def test_eval_ll_with_explicit_log_z(self, tmp_path, trained_model, rng, capsys):
        data = _write_data(tmp_path / "d.csv", rng, n=40, cols=2)
        rc = main(
            [
                "eval-ll", "--model", str(trained_model),
                "--data", str(data), "--log-z", "2.5",
            ]
        )
        assert rc == 0
        assert "mean_loglik" in capsys.readouterr().out

    def test_eval_ll_estimates_when_no_log_z(self, tmp_path, trained_model, rng, capsys):
        data = _write_data(tmp_path / "d.csv", rng, n=40, cols=2)
        rc = main(
            [
                "--seed", "2",
                "eval-ll", "--model", str(trained_model), "--data", str(data),
                "--levels", "30", "--particles", "100",
            ]
        )
        assert rc == 0
        assert "log_z" in capsys.readouterr().out

    def test_eval_ll_reports_dropped_particles(
        self, tmp_path, trained_model, rng, capsys, monkeypatch
    ):
        data = _write_data(tmp_path / "d.csv", rng, n=40, cols=2)
        argv = [
            "eval-ll", "--model", str(trained_model), "--data", str(data),
            "--levels", "30", "--particles", "100",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(" dropped 0")
        real = cli.ais_estimate
        monkeypatch.setattr(
            cli, "ais_estimate",
            lambda *args: dataclasses.replace(real(*args), n_dropped=3),
        )
        assert main(argv) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(" dropped 3")
        assert main(argv[:5] + ["--log-z", "2.5"]) == 0
        assert "dropped" not in capsys.readouterr().out


class TestParser:
    def test_experiment_names_are_registered(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "mixing"])
        assert args.name == "mixing"
        from leaky_rbm.cli import UsageError

        with pytest.raises(UsageError):
            parser.parse_args(["experiment", "nonsense"])

    def test_readme_examples_parse(self):
        # every `leaky-rbm ...` line of README.md's fenced blocks, with its
        # backslash continuations joined, is parsed but not run
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("leaky-rbm ")]
        assert commands
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except cli.UsageError as exc:
                pytest.fail(f"README example {shlex.join(argv)!r}: {exc}")


class TestMalformedOptions:
    """Each bad option value ends in exit 1 with one stderr line."""

    @pytest.fixture
    def files(self, tmp_path, rng):
        data = _write_data(tmp_path / "d.csv", rng, n=20, cols=2)
        model = tmp_path / "m.rbm"
        save_model(model, random_safe_params(rng, 2, 2, leakiness=0.2, max_norm=0.7))
        bernoulli = tmp_path / "b.rbm"
        save_model(bernoulli, RbmParams.create(
            np.full((2, 2), 0.3), hidden_kind=HiddenKind.BERNOULLI
        ))
        return {"data": str(data), "model": str(model), "bernoulli": str(bernoulli),
                "out": str(tmp_path)}

    @pytest.mark.parametrize(
        "config, argv",
        [
            pytest.param(config, argv, id=config or " ".join(argv[-2:]))
            for config, argv in [
                ("hidden=abc", ["train", "--data", "{data}"]),
                ("neg-sampler=bogus", ["train", "--data", "{data}"]),
                ("kind=weird", ["train", "--data", "{data}"]),
                ("no-projection=maybe", ["train", "--data", "{data}"]),
                ("path=bogus", ["estimate-z", "--model", "{model}"]),
                ("hiden=5", ["train", "--data", "{data}"]),
                (None, ["train", "--data", "{data}", "--batch-size", "0"]),
                (None, ["train", "--data", "{data}", "--cd-steps", "0"]),
                (None, ["train", "--data", "{data}", "--epochs", "-1"]),
                (None, ["train", "--data", "{data}", "--hidden", "0"]),
                (None, ["train", "--data", "{data}", "--leakiness", "0"]),
                (None, ["train", "--data", "{data}", "--momentum", "1.5"]),
                (None, ["train", "--data", "{data}", "--learning-rate", "inf"]),
                (None, ["train", "--data", "{data}", "--weight-decay", "inf"]),
                (None, ["estimate-z", "--model", "{model}", "--levels", "0"]),
                (None, ["estimate-z", "--model", "{model}", "--particles", "0"]),
                (None, ["sample", "--model", "{model}", "--steps", "-1"]),
                (None, ["eval-ll", "--model", "{model}", "--data", "{data}",
                        "--log-z", "nan"]),
                (None, ["train", "--data", "{data}", "--kind", "bernoulli",
                        "--neg-sampler", "leaky-anneal"]),
                (None, ["estimate-z", "--model", "{bernoulli}", "--path", "leaky"]),
                (None, ["sample", "--model", "{bernoulli}", "--steps", "0"]),
                (None, ["train", "--data", "{out}"]),
                (None, ["estimate-z", "--model", "{out}"]),
                (None, ["train", "--data", "{data}", "--model-out", "{data}/m.rbm"]),
                (None, ["--out", "{data}/o", "experiment", "divergence"]),
            ]
        ],
    )
    def test_exits_1_with_one_line(self, tmp_path, files, capsys, config, argv):
        head = ["--out", files["out"]]
        if config is not None:
            cfg = tmp_path / "cfg"
            cfg.write_text(config + "\nepochs=1\nlevels=3\nparticles=4\n")
            head += ["--config", str(cfg)]
        rc = main(head + [arg.format(**files) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        ["estimate-z", "--model", "{model}", "--particles", str(10**15)],
        ["train", "--data", "{data}", "--hidden", str(10**15)],
        ["train", "--data", "{data}", "--cd-steps", str(10**15)],
        ["train", "--data", "{data}", "--cd-steps", str(10**30)],
    ], ids=["particles", "hidden", "cd-steps", "cd-steps-past-index"])
    def test_oversized_count_exits_1_with_one_line(self, files, capsys, argv):
        # each count asks for more than 2^50 bytes, so the allocation fails
        # at once; 10^30 steps do not even fit an index
        out = Path(files["out"])
        rc = main(["--out", files["out"], *[arg.format(**files) for arg in argv]])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not (out / "model.rbm").exists() and not (out / "estimate_z.csv").exists()

    @pytest.mark.parametrize("seed, expected", [(2**63 - 1, 0), (2**63, 1)])
    def test_seed_fits_the_model_file(self, files, capsys, seed, expected):
        # model files store the seed as a signed 64-bit integer
        rc = main(["--out", files["out"], "--seed", str(seed),
                   "train", "--data", files["data"], "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == expected, err
        if expected:
            assert len(err.splitlines()) == 1 and "--seed" in err, err


def test_leaky_anneal_trains_from_an_infeasible_initial_draw(tmp_path, rng):
    # W0 ~ U(0, 0.01) at 100x500 has sigma_max ~1.1; the annealed sampler's
    # base Gaussian needs I - W W^T >= 0 on the first minibatch
    data = _write_data(tmp_path / "d.csv", rng, n=20, cols=100)
    rc = main(
        [
            "--out", str(tmp_path), "train", "--data", str(data),
            "--hidden", "500", "--epochs", "1", "--batch-size", "20",
            "--neg-sampler", "leaky-anneal",
        ]
    )
    assert rc == 0
    model, _ = load_model(tmp_path / "model.rbm")
    assert model.is_safe()


def _src_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_import_loads_no_oracle_modules():
    # only training's projection and the quadrature oracle use scipy, and
    # load its LAPACK, QUADPACK and special-function extensions on first
    # use, so importing the CLI loads no scipy module at all
    code = (
        "import sys, leaky_rbm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


_TRAIN_THEN_IMPORT = """
import sys
import numpy as np
from leaky_rbm import projection
from leaky_rbm.cli import main
calls = []
eigh_above = projection._eigh_above
projection._eigh_above = lambda *args: calls.append(1) or eigh_above(*args)
assert main(sys.argv[1:]) == 0 and len(calls) == 1
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
print("scipy.linalg" in sys.modules)
from scipy import linalg
gram = np.random.default_rng(0).standard_normal((30, 12))
gram = gram.T @ gram
lam, V = linalg.eigh(gram.T, subset_by_value=(25.0, np.inf))
got_lam, got_V = eigh_above(gram.copy().T, 25.0)
print(len(lam), got_lam.tobytes() == lam.tobytes(), got_V.tobytes() == V.tobytes())
"""


def test_train_loads_no_scipy_linalg_package(tmp_path):
    # the certificate and the clip load scipy's LAPACK extension alone;
    # scipy.linalg imports afterwards, and its eigh gives the same bits
    data = _write_correlated_data(tmp_path / "d.csv")
    argv = ["--out", str(tmp_path), "train", "--data", str(data), "--hidden", "2",
            "--epochs", "1", "--learning-rate", "10"]
    out = subprocess.run(
        [sys.executable, "-c", _TRAIN_THEN_IMPORT, *argv], env=_src_env(),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[-3:] == ["['scipy.linalg._flapack']", "False", "5 True True"]
    assert (tmp_path / "model.rbm").exists()



_QUADRATURE_THEN_IMPORT = """
import math, sys
import numpy as np
from leaky_rbm import RbmParams, _quadrature, quadrature_log_z
p = RbmParams.create([[0.5, -0.3], [0.2, 0.6]], visible_bias=[0.1, -0.2],
                     hidden_bias=[0.4, -1.0], leakiness=0.1)
log_z = quadrature_log_z(p)
packages = ("scipy.integrate", "scipy.special", "scipy.linalg", "scipy.optimize")
print(sorted(m for m in sys.modules if m.startswith(packages)))
from scipy import integrate, special
print(sys.modules["scipy.integrate._quadpack"] is _quadrature._quadpack,
      integrate._quadpack_py._quadpack is _quadrature._quadpack,
      sys.modules["scipy.special._special_ufuncs"] is _quadrature._ufuncs,
      special.log_ndtr is _quadrature.log_ndtr, special.erfcx is _quadrature.erfcx)
f = lambda t: math.exp(-0.5 * t * t + 0.3 * t)
ends = [(-math.inf, math.inf), (-math.inf, 0.5), (0.5, math.inf), (-1.0, 2.0)]
print(all(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-9)[0]
          == _quadrature._quad(f, lo, hi, 1e-9) for lo, hi in ends),
      special.log_ndtr(np.linspace(-40.0, 40.0, 801)).tobytes()
      == _quadrature.log_ndtr(np.linspace(-40.0, 40.0, 801)).tobytes(),
      quadrature_log_z(p) == log_z)
"""


def test_quadrature_loads_only_two_scipy_extensions():
    # the oracle loads QUADPACK's and the special functions' extensions
    # alone; scipy.integrate and scipy.special import afterwards reuse them,
    # and their quad and log_ndtr give the same bits
    out = subprocess.run(
        [sys.executable, "-c", _QUADRATURE_THEN_IMPORT], env=_src_env(),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == ["['scipy.integrate._quadpack', 'scipy.special._special_ufuncs']",
                   "True True True True True", "True True True"]

# Each command's argv, run from the directory that holds m.rbm and d.csv.
_NUMPY_ONLY_COMMANDS = {
    f"estimate-z-{path}": [
        "estimate-z", "--model", "m.rbm", "--path", path, "--levels", "20",
        "--particles", "50",
    ]
    for path in ("leaky", "energy", "one-sided")
} | {
    "eval-ll": ["eval-ll", "--model", "m.rbm", "--data", "d.csv", "--levels", "20",
                "--particles", "50"],
    "eval-ll-log-z": ["eval-ll", "--model", "m.rbm", "--data", "d.csv", "--log-z", "2.5"],
    "sample": ["sample", "--model", "m.rbm", "--n", "8", "--steps", "5"],
}

# Runs every command with its own --out directory and writes its exit code
# and stdout there; with "blocked" first, no scipy module can be imported.
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from pathlib import Path
from leaky_rbm.cli import main
for name, argv in json.loads(sys.argv[2]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["--seed", "3", "--out", name, *argv])
    Path(name).mkdir(exist_ok=True)
    Path(name, "stdout.txt").write_text(f"exit {rc}\\n{out.getvalue()}")
"""


@pytest.fixture(scope="module")
def numpy_only_runs(tmp_path_factory):
    """Outputs of every command, run with scipy blocked and unblocked."""
    g = np.random.default_rng(21)
    p = random_safe_params(g, 3, 2, leakiness=0.2, max_norm=0.8)
    p = p.with_(visible_bias=g.uniform(-0.5, 0.5, 3))
    runs = {}
    for mode in ("blocked", "unblocked"):
        here = tmp_path_factory.mktemp(mode)
        save_model(here / "m.rbm", p)
        _write_data(here / "d.csv", np.random.default_rng(22), n=30, cols=3)
        subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS, mode, json.dumps(_NUMPY_ONLY_COMMANDS)],
            env=_src_env(), cwd=here, check=True,
        )
        runs[mode] = here
    return runs


@pytest.mark.parametrize("name", sorted(_NUMPY_ONLY_COMMANDS))
def test_command_runs_without_scipy(numpy_only_runs, name):
    # estimate-z, eval-ll and sample need numpy alone, and give the same
    # bytes with scipy blocked as without
    outputs = {
        mode: {f.name: f.read_bytes() for f in sorted((here / name).iterdir())}
        for mode, here in numpy_only_runs.items()
    }
    status, _, printed = outputs["blocked"]["stdout.txt"].partition(b"\n")
    assert status == b"exit 0" and printed
    assert outputs["blocked"] == outputs["unblocked"]


_FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def _mutated(blob: bytes, edits, cut) -> bytes:
    """``blob`` with bytes overwritten at (position, value) pairs, then cut."""
    buf = bytearray(blob)
    for pos, value in edits:
        buf[pos % len(buf)] = value
    return bytes(buf[: None if cut is None else cut % (len(buf) + 1)])


_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4)
_CUT = st.none() | st.integers(0, 1 << 16)


def _assert_clean_exit(fuzz_dir, argv, **paths):
    argv = ["--out", str(fuzz_dir)] + [arg.format(**paths) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2)
    if rc:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    save_model(d / "model.rbm", random_safe_params(rng, 2, 2, leakiness=0.2, max_norm=0.7))
    data = rng.standard_normal((6, 2))
    np.savetxt(d / "data.csv", data, delimiter=",")
    write_raw_f32(d / "data.f32", data)
    return d


@_FUZZ
@given(
    edits=_EDITS,
    cut=_CUT,
    command=st.sampled_from(
        [
            ["sample", "--model", "{model}", "--n", "3", "--steps", "2"],
            ["estimate-z", "--model", "{model}", "--levels", "2", "--particles", "4"],
            ["estimate-z", "--model", "{model}", "--path", "energy", "--levels", "2",
             "--particles", "4"],
            ["eval-ll", "--model", "{model}", "--data", "{data}", "--log-z", "1.5"],
        ]
    ),
)
def test_fuzz_model_file(fuzz_dir, edits, cut, command):
    model = fuzz_dir / "fuzzed.rbm"
    model.write_bytes(_mutated((fuzz_dir / "model.rbm").read_bytes(), edits, cut))
    _assert_clean_exit(fuzz_dir, command, model=model, data=fuzz_dir / "data.csv")


@_FUZZ
@given(
    edits=_EDITS,
    cut=_CUT,
    source=st.sampled_from(["data.csv", "data.f32"]),
    command=st.sampled_from(
        [
            ["train", "--data", "{data}", "--hidden", "2", "--epochs", "1",
             "--batch-size", "4"],
            ["eval-ll", "--model", "{model}", "--data", "{data}", "--log-z", "1.5"],
        ]
    ),
)
def test_fuzz_data_file(fuzz_dir, edits, cut, source, command):
    data = fuzz_dir / ("fuzzed-" + source)
    data.write_bytes(_mutated((fuzz_dir / source).read_bytes(), edits, cut))
    _assert_clean_exit(fuzz_dir, command, model=fuzz_dir / "model.rbm", data=data)
