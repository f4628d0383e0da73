"""Command-line harness.

Subcommands: train, sample, estimate-z, eval-ll, experiment.  A flat
key=value config file can pre-populate any option; explicit command-line
flags win over the file.  Exit codes: 0 success, 1 usage or file error,
2 numerical failure (divergence, non-PD constraint).
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .data_io import Provenance, ingest, load_model, save_model
from .errors import (
    DataFormatError,
    DivergentIntegralError,
    LeakyRbmError,
    ModelFileError,
    NonPDRegionError,
    TrainingDivergedError,
)
from .experiments import EXPERIMENTS
from .model import HiddenKind, RbmParams
from .partition import AnnealingPath, PathKind, ais_estimate, eval_mean_log_likelihood
from .sampler import AnnealSchedule, anneal_leakiness_sample, make_rng
from .training import NegSampler, TrainConfig, train

_PATHS = {
    "leaky": lambda c, n: AnnealingPath.leaky(c, n),
    "energy": lambda c, n: AnnealingPath.energy(n),
    "one-sided": lambda c, n: AnnealingPath.one_sided(n),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def read_config(path) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"config file not found: {p}")
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{p}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="leaky-rbm")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--data-format", choices=["csv", "raw-f32"], default=None)
    p_train.add_argument("--kind", choices=["leaky", "bernoulli"], default=None)
    p_train.add_argument("--hidden", type=int, default=None)
    p_train.add_argument("--leakiness", type=float, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--momentum", type=float, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--cd-steps", type=int, default=None)
    p_train.add_argument(
        "--neg-sampler", choices=[m.value for m in NegSampler], default=None
    )
    p_train.add_argument("--weight-decay", type=float, default=None)
    p_train.add_argument("--no-projection", action="store_true")
    p_train.add_argument("--model-out", default=None)

    p_sample = sub.add_parser("sample")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n", type=int, default=None)
    p_sample.add_argument("--steps", type=int, default=None)

    p_z = sub.add_parser("estimate-z")
    p_z.add_argument("--model", required=True)
    p_z.add_argument("--path", choices=sorted(_PATHS), default=None)
    p_z.add_argument("--levels", type=int, default=None)
    p_z.add_argument("--particles", type=int, default=None)

    p_ll = sub.add_parser("eval-ll")
    p_ll.add_argument("--model", required=True)
    p_ll.add_argument("--data", required=True)
    p_ll.add_argument("--data-format", choices=["csv", "raw-f32"], default=None)
    p_ll.add_argument("--log-z", type=float, default=None)
    p_ll.add_argument("--path", choices=sorted(_PATHS), default=None)
    p_ll.add_argument("--levels", type=int, default=None)
    p_ll.add_argument("--particles", type=int, default=None)

    p_exp = sub.add_parser("experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    return parser


def _opt(args, config: dict, name: str, default, cast=None):
    """Flag value if given, else config-file value, else default."""
    cli_value = getattr(args, name.replace("-", "_"), None)
    if cli_value is not None and cli_value is not False:
        return cli_value
    if name in config:
        raw = config[name]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes")
        return cast(raw) if cast else raw
    return default


def _run(args) -> int:
    config = read_config(args.config) if args.config else {}
    seed = int(_opt(args, config, "seed", 0, int))
    out_dir = Path(_opt(args, config, "out", ".", str))

    if args.command == "train":
        return _cmd_train(args, config, seed, out_dir)
    if args.command == "sample":
        return _cmd_sample(args, config, seed, out_dir)
    if args.command == "estimate-z":
        return _cmd_estimate_z(args, config, seed, out_dir)
    if args.command == "eval-ll":
        return _cmd_eval_ll(args, config, seed)
    if args.command == "experiment":
        out_dir.mkdir(parents=True, exist_ok=True)
        EXPERIMENTS[args.name](out_dir, seed)
        return 0
    raise UsageError("missing subcommand")


def _cmd_train(args, config, seed, out_dir) -> int:
    dataset = ingest(args.data, _opt(args, config, "data-format", None))
    kind = (
        HiddenKind.BERNOULLI
        if _opt(args, config, "kind", "leaky", str) == "bernoulli"
        else HiddenKind.LEAKY_RELU
    )
    n_hidden = int(_opt(args, config, "hidden", 16, int))
    leakiness = float(_opt(args, config, "leakiness", 0.1, float))
    tc = TrainConfig(
        cd_steps=int(_opt(args, config, "cd-steps", 1, int)),
        learning_rate=float(_opt(args, config, "learning-rate", 0.01, float)),
        momentum=float(_opt(args, config, "momentum", 0.0, float)),
        batch_size=int(_opt(args, config, "batch-size", 100, int)),
        epochs=int(_opt(args, config, "epochs", 10, int)),
        neg_sampler=NegSampler(_opt(args, config, "neg-sampler", "cd", str)),
        weight_decay=float(_opt(args, config, "weight-decay", 0.0, float)),
        projection_enabled=not _opt(args, config, "no-projection", False, bool),
        seed=seed,
    )
    n_visible = dataset.matrix.shape[1]
    W0 = make_rng(seed, 1).uniform(0.0, 0.01, size=(n_visible, n_hidden))
    params0 = RbmParams.create(
        W0, leakiness=leakiness if kind is HiddenKind.LEAKY_RELU else 1.0,
        hidden_kind=kind,
    )
    model, log = train(params0, dataset.matrix, tc)
    model_out = _opt(args, config, "model-out", str(out_dir / "model.rbm"), str)
    Path(model_out).parent.mkdir(parents=True, exist_ok=True)
    save_model(
        Path(model_out),
        model,
        Provenance(config_hash=tc.config_hash(), seed=seed, epoch=len(log.epochs)),
    )
    last = log.epochs[-1] if log.epochs else None
    if last is not None:
        print(f"epochs {len(log.epochs)} recon_error {last.recon_error:.6g}")
    print(f"model written to {model_out}")
    return 0


def _load(path) -> RbmParams:
    params, _prov = load_model(path)
    return params


def _cmd_sample(args, config, seed, out_dir) -> int:
    params = _load(args.model)
    n = int(_opt(args, config, "n", 100, int))
    steps = int(_opt(args, config, "steps", 200, int))
    schedule = AnnealSchedule(c_target=params.leakiness, total_steps=steps)
    chains = anneal_leakiness_sample(params, schedule, n, make_rng(seed, 2))
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "samples.csv"
    np.savetxt(out, chains.v, delimiter=",", fmt="%.12g")
    print(f"wrote {n} samples to {out}")
    return 0


def _estimate(params, args, config, seed):
    path_name = _opt(args, config, "path", "leaky", str)
    levels = int(_opt(args, config, "levels", 1000, int))
    particles = int(_opt(args, config, "particles", 10000, int))
    path = _PATHS[path_name](params.leakiness, levels)
    est = ais_estimate(params, path, particles, make_rng(seed, 3))
    return path_name, levels, particles, est


def _cmd_estimate_z(args, config, seed, out_dir) -> int:
    params = _load(args.model)
    path_name, levels, particles, est = _estimate(params, args, config, seed)
    print(f"log_z {est.log_z:.6f} +- {est.standard_error:.6f}")
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "estimate_z.csv"
    new = not out.exists()
    with open(out, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new:
            writer.writerow(
                ["path", "levels", "particles", "log_z", "stderr", "ess", "dropped"]
            )
        writer.writerow(
            [
                path_name,
                levels,
                particles,
                format(est.log_z, ".12g"),
                format(est.standard_error, ".12g"),
                format(est.effective_sample_size, ".12g"),
                est.n_dropped,
            ]
        )
    return 0


def _cmd_eval_ll(args, config, seed) -> int:
    params = _load(args.model)
    dataset = ingest(args.data, _opt(args, config, "data-format", None))
    log_z = _opt(args, config, "log-z", None, float)
    if log_z is None:
        _name, _levels, _particles, est = _estimate(params, args, config, seed)
        log_z = est.log_z
    loglik = eval_mean_log_likelihood(params, dataset.matrix, float(log_z))
    print(f"mean_loglik {loglik:.6f} log_z {float(log_z):.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelFileError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonPDRegionError, DivergentIntegralError, TrainingDivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except LeakyRbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
