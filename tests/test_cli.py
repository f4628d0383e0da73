import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaky_rbm import HiddenKind, RbmParams, save_model, write_raw_f32
from leaky_rbm import cli
from leaky_rbm.cli import build_parser, main, read_config
from leaky_rbm.data_io import load_model

from conftest import random_safe_params


def _write_data(path, rng, n=120, cols=3):
    m = rng.standard_normal((n, cols))
    np.savetxt(path, m, delimiter=",")
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

    @pytest.mark.parametrize("command", ["train", "eval-ll"])
    def test_non_finite_data_is_file_error(self, tmp_path, rng, capsys, command):
        model = tmp_path / "m.rbm"
        save_model(model, random_safe_params(rng, 3, 2, leakiness=0.2, max_norm=0.7))
        for name, value in (("nan.csv", np.nan), ("inf.csv", np.inf), ("nan.bin", np.nan)):
            m = rng.standard_normal((20, 3))
            m[5, 1] = value
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


def test_import_loads_no_oracle_modules():
    # only the quadrature oracle, AIS and the enumeration oracle use them,
    # so importing the CLI must not pay for scipy.integrate (and the
    # scipy.optimize it pulls in) or scipy.special
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, leaky_rbm.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


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
