"""Command-line harness.

Subcommands: train, sample, estimate-z, eval-ll, experiment.  A flat
key=value config file can pre-populate any option, and argparse checks
its values exactly like flags; explicit command-line flags win over the
file.  Exit codes, all decided in ``main``: 0 success; 1 a usage or file
error, any input the package rejects with a ValueError and any count too
large to allocate among them, with one ``error:`` line; 2 a numerical
failure (divergent or overflowing training, a non-PD constraint, a failed LAPACK routine,
a log-likelihood too large to keep its digits).
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .data_io import Provenance, ingest, load_model, save_model
from .errors import (
    DataFormatError,
    DivergentIntegralError,
    LeakyRbmError,
    NonPDRegionError,
    PrecisionLossError,
    TrainingDivergedError,
)
from .experiments import EXPERIMENTS
from .model import HiddenKind
from .partition import AnnealingPath, PathKind, ais_estimate, eval_mean_log_likelihood
from .sampler import anneal_leakiness_sample, make_rng
from .training import NegSampler, TrainConfig, initial_params, train

_PATHS = {
    PathKind.LEAKY: lambda c, n: AnnealingPath.leaky(c, n),
    PathKind.ENERGY: lambda c, n: AnnealingPath.energy(n),
    PathKind.ONE_SIDED: lambda c, n: AnnealingPath.one_sided(n),
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


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer in [minimum, maximum]."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return count


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _leakiness(text: str) -> float:
    """argparse type: a leakiness in (0, 1], checked for either hidden kind."""
    value = float(text)
    if not 0.0 < value <= 1.0:  # negated so that NaN fails it too
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _one_of(table: dict):
    """argparse type: look a name up in ``table``.

    argparse never applies ``choices=`` to defaults, so an enumerated
    option checks its value here, where config values pass too.
    """

    def lookup(text: str):
        try:
            return table[text.lower()]
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"invalid choice {text!r} (choose from {', '.join(table)})"
            ) from None

    return lookup


_FLAG = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def build_parser(config: dict[str, str] | None = None) -> _Parser:
    """The CLI parser; each ``config`` value becomes its option's default.

    argparse runs string defaults through the option's ``type=``, so a
    config value is parsed and checked exactly like the same flag.
    """
    parser = _Parser(prog="leaky-rbm")
    # model files store the seed as a signed 64-bit integer
    parser.add_argument("--seed", type=_count(0, 2**63 - 1), default=0)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command")
    # options shared by several subcommands, declared once
    data = _Parser(add_help=False)
    data.add_argument("--data", required=True)
    data.add_argument("--data-format", choices=["csv", "raw-f32"], default=None)
    model = _Parser(add_help=False)
    model.add_argument("--model", required=True)
    ais = _Parser(add_help=False)
    ais.add_argument(
        "--path", type=_one_of({kind.value: kind for kind in PathKind}), default="leaky"
    )
    ais.add_argument("--levels", type=_count(1), default=1000)
    ais.add_argument("--particles", type=_count(1), default=10000)

    p_train = sub.add_parser("train", parents=[data])
    p_train.set_defaults(run=_cmd_train)
    p_train.add_argument(
        "--kind",
        type=_one_of({"leaky": HiddenKind.LEAKY_RELU, "bernoulli": HiddenKind.BERNOULLI}),
        default="leaky",
    )
    p_train.add_argument("--hidden", type=_count(1), default=16)
    p_train.add_argument("--leakiness", type=_leakiness, default=0.1)
    p_train.add_argument("--epochs", type=_count(0), default=10)
    p_train.add_argument("--learning-rate", type=float, default=0.01)
    p_train.add_argument("--momentum", type=float, default=0.0)
    p_train.add_argument("--batch-size", type=_count(1), default=100)
    p_train.add_argument("--cd-steps", type=_count(1), default=1)
    p_train.add_argument(
        "--neg-sampler", type=_one_of({m.value: m for m in NegSampler}), default="cd"
    )
    p_train.add_argument("--weight-decay", type=float, default=0.0)
    p_train.add_argument(
        "--no-projection", type=_one_of(_FLAG), nargs="?", const=True, default=False,
        metavar="BOOL",
    )
    p_train.add_argument("--model-out", default=None, help="default: OUT/model.rbm")

    p_sample = sub.add_parser("sample", parents=[model])
    p_sample.set_defaults(run=_cmd_sample)
    p_sample.add_argument("--n", type=_count(1), default=100)
    p_sample.add_argument("--steps", type=_count(0), default=200)

    sub.add_parser("estimate-z", parents=[model, ais]).set_defaults(run=_cmd_estimate_z)

    p_ll = sub.add_parser("eval-ll", parents=[model, data, ais])
    p_ll.set_defaults(run=_cmd_eval_ll)
    p_ll.add_argument("--log-z", type=_finite, default=None)

    p_exp = sub.add_parser("experiment")
    p_exp.set_defaults(run=_cmd_experiment)
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))

    if config:
        known = set()
        for p in (parser, *sub.choices.values()):
            options = {
                action.dest.replace("_", "-"): action.dest
                for action in p._actions
                if action.option_strings
            }
            p.set_defaults(
                **{dest: config[key] for key, dest in options.items() if key in config}
            )
            known.update(options)
        unknown = sorted(set(config) - known)
        if unknown:
            raise UsageError(f"config key names no option: {', '.join(unknown)}")
    return parser


def _cmd_train(args) -> int:
    dataset = ingest(args.data, args.data_format)
    tc = TrainConfig(
        cd_steps=args.cd_steps,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        batch_size=args.batch_size,
        epochs=args.epochs,
        neg_sampler=args.neg_sampler,
        weight_decay=args.weight_decay,
        projection_enabled=not args.no_projection,
        seed=args.seed,
    )
    params0 = initial_params(dataset.matrix.shape[1], args.hidden, make_rng(args.seed, 1),
                             args.leakiness, args.kind)
    model, log = train(params0, dataset.matrix, tc)
    model_out = args.model_out or str(args.out / "model.rbm")
    Path(model_out).parent.mkdir(parents=True, exist_ok=True)
    save_model(
        Path(model_out),
        model,
        Provenance(config_hash=tc.config_hash(), seed=args.seed, epoch=len(log.epochs)),
    )
    if log.epochs:
        print(f"epochs {len(log.epochs)} recon_error {log.epochs[-1].recon_error:.6g}")
    print(f"model written to {model_out}")
    return 0


def _cmd_sample(args) -> int:
    params, _prov = load_model(args.model)
    chains = anneal_leakiness_sample(params, args.steps, args.n, make_rng(args.seed, 2))
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / "samples.csv"
    np.savetxt(out, chains.v, delimiter=",", fmt="%.12g")
    print(f"wrote {args.n} samples to {out}")
    return 0


def _estimate(params, args):
    path = _PATHS[args.path](params.leakiness, args.levels)
    return ais_estimate(params, path, args.particles, make_rng(args.seed, 3))


_ESTIMATE_Z_HEADER = b"path,levels,particles,log_z,stderr,ess,dropped\n"


def _cmd_estimate_z(args) -> int:
    out = args.out / "estimate_z.csv"
    # rows are appended only under this command's own header; an empty or
    # missing file gets the header first
    new = not out.exists() or out.stat().st_size == 0
    if not new:
        with open(out, "rb") as fh:
            if fh.read(len(_ESTIMATE_Z_HEADER)) != _ESTIMATE_Z_HEADER:
                raise UsageError(f"{out} does not start with the estimate-z header")
    est = _estimate(load_model(args.model)[0], args)
    print(f"log_z {est.log_z:.6f} +- {est.standard_error:.6f}")
    args.out.mkdir(parents=True, exist_ok=True)
    with open(out, "a", newline="") as fh:
        if new:
            fh.write(_ESTIMATE_Z_HEADER.decode())
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                args.path.value,
                args.levels,
                args.particles,
                format(est.log_z, ".12g"),
                format(est.standard_error, ".12g"),
                format(est.effective_sample_size, ".12g"),
                est.n_dropped,
            ]
        )
    return 0


def _cmd_eval_ll(args) -> int:
    params, _prov = load_model(args.model)
    dataset = ingest(args.data, args.data_format)
    if dataset.matrix.shape[1] != params.n_visible:
        raise DataFormatError(
            f"{args.data}: {dataset.matrix.shape[1]} columns, "
            f"model has {params.n_visible} visible units"
        )
    log_z, dropped = args.log_z, ""
    if log_z is None:
        est = _estimate(params, args)
        log_z, dropped = est.log_z, f" dropped {est.n_dropped}"
    loglik = eval_mean_log_likelihood(params, dataset.matrix, log_z)
    print(f"mean_loglik {loglik:.6f} log_z {log_z:.6f}{dropped}")
    return 0


def _cmd_experiment(args) -> int:
    EXPERIMENTS[args.name](args.out, args.seed)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = build_parser(read_config(args.config)).parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.run(args)
    # LinAlgError subclasses ValueError, so the numerical row comes first
    except (
        NonPDRegionError, DivergentIntegralError, PrecisionLossError, TrainingDivergedError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except LeakyRbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
