"""Command-line interface.

Verbs: ``pretrain``, ``train``, ``eval``, ``metrics``, ``reproduce``,
``sweep``.  Exit codes: 0 success, 1 usage or configuration error, 2 data
or file-format error, 3 numeric failure (NaN/Inf detected).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
)
from ..learn import TrainConfig, evaluate
from ..metrics import alignment_angles, effective_rank, weight_feedback_distance
from ..net import load_mlp
from ..noise import Gaussian, NoiseConfig, Uniform
from .config import (
    VariantSpec,
    ExperimentConfig,
    apply_overrides,
    apply_scale,
    config_from_dict,
    config_to_dict,
    load_config_file,
)
from .experiment import default_data_dir, load_named_dataset, run_experiment
from .presets import FIGURE_IDS, reproduce

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        ) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--scale", type=float, default=None,
                   help="divide run durations by this factor")
    p.add_argument("--threads", type=int, default=1,
                   help="concurrent trials")
    p.add_argument("--data-dir", default=None,
                   help="dataset root (default: $PREALIGN_DATA_DIR or ./data)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override")


def _build_parser() -> _Parser:
    parser = _Parser(prog="prealign",
                     description="random-noise pretraining for feedback alignment")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pretrain", parents=[], help="train on random noise only")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--dims", type=_dims, default=(784, 100, 10))
    p.add_argument("--samples", type=int, default=500_000)
    p.add_argument("--samples-per-epoch", type=int, default=5_000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--dist", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--std", type=float, default=1.0,
                   help="gaussian standard deviation")
    p.add_argument("--low", type=float, default=-1.0, help="uniform low")
    p.add_argument("--high", type=float, default=1.0, help="uniform high")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--capture", default="angles",
                   help="comma-separated metric flags, or 'none'")
    _add_common(p)

    p = sub.add_parser("train", help="supervised training, optionally pre-noised")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--dims", type=_dims, default=(784, 100, 10))
    p.add_argument("--rule", choices=("FA", "BP"), default="FA")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--pretrain", action="store_true",
                   help="run the noise phase first")
    p.add_argument("--samples", type=int, default=500_000,
                   help="noise samples when --pretrain is set")
    p.add_argument("--trials", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--split", choices=("train", "test"), default="test")
    _add_common(p)

    p = sub.add_parser("metrics", help="alignment/rank metrics of a checkpoint")
    p.add_argument("--model", required=True)
    _add_common(p)

    p = sub.add_parser("reproduce", help="run a named result preset")
    p.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    p.add_argument("--trials", type=int, default=None,
                   help="override the preset's trial count")
    _add_common(p)

    p = sub.add_parser("sweep", help="cartesian sweep from a config file")
    p.add_argument("--config", required=True, help="JSON config with a sweep section")
    _add_common(p)

    return parser


def _finish_config(doc: dict, args) -> ExperimentConfig:
    """Apply common flags and --set overrides to the dict form, then parse."""
    doc = apply_overrides(doc, args.overrides)
    cfg = config_from_dict(doc)
    cfg.master_seed = args.seed
    cfg.threads = args.threads
    if args.out is not None:
        cfg.output_dir = args.out
    if args.data_dir is not None:
        cfg.data_dir = args.data_dir
    if args.scale is not None:
        cfg = apply_scale(cfg, args.scale)
    return cfg


def _cmd_pretrain(args) -> int:
    if args.config is not None:
        doc = load_config_file(args.config)
    else:
        if args.dist == "gaussian":
            dist = Gaussian(0.0, args.std)
        else:
            dist = Uniform(args.low, args.high)
        capture = () if args.capture == "none" else tuple(args.capture.split(","))
        cfg = ExperimentConfig(
            experiment_id="pretrain",
            dims=args.dims,
            variants=[VariantSpec(name="fa_pre", rule="FA", pretrain=True)],
            trials=args.trials,
            pretrain=NoiseConfig(
                distribution=dist,
                total_samples=args.samples,
                samples_per_epoch=args.samples_per_epoch,
                batch_size=args.batch,
                learning_rate=args.lr,
            ),
            capture=capture,
            output_dir="out/pretrain",
        )
        doc = config_to_dict(cfg)
    cfg = _finish_config(doc, args)
    run_experiment(cfg)
    print(f"wrote {cfg.output_dir}")
    return 0


def _cmd_train(args) -> int:
    if args.config is not None:
        doc = load_config_file(args.config)
    else:
        variant = VariantSpec(
            name="fa_pre" if args.pretrain else args.rule.lower(),
            rule=args.rule,
            pretrain=args.pretrain,
        )
        cfg = ExperimentConfig(
            experiment_id="train",
            dims=args.dims,
            variants=[variant],
            trials=args.trials,
            pretrain=NoiseConfig(total_samples=args.samples) if args.pretrain else None,
            train=TrainConfig(
                rule=args.rule,
                learning_rate=args.lr,
                batch_size=args.batch,
                epochs=args.epochs,
                patience=args.patience,
            ),
            dataset=args.dataset,
            train_size=args.train_size,
            test_size=args.test_size,
            output_dir="out/train",
        )
        doc = config_to_dict(cfg)
    cfg = _finish_config(doc, args)
    manifest = run_experiment(cfg)
    for name, trials in manifest.get("summary", {}).items():
        for trial, s in sorted(trials.items()):
            if "final_test_acc" in s:
                print(
                    f"{name} trial {trial}: test_acc={s['final_test_acc']:.4f} "
                    f"(best {s['best_test_acc']:.4f})"
                )
    print(f"wrote {cfg.output_dir}")
    return 0


def _cmd_eval(args) -> int:
    mlp = load_mlp(args.model)
    train_ds, test_ds = load_named_dataset(
        args.dataset, default_data_dir(args.data_dir), mlp.dims[0], mlp.dims[-1]
    )
    ds = train_ds if args.split == "train" else test_ds
    loss, acc = evaluate(mlp, ds.images, ds.labels)
    print(json.dumps(
        {"dataset": ds.name, "split": args.split, "n": ds.n,
         "loss": loss, "accuracy": acc},
        indent=2, sort_keys=True,
    ))
    return 0


def _cmd_metrics(args) -> int:
    mlp = load_mlp(args.model)
    layers = []
    for l in range(mlp.n_layers):
        layers.append(
            {
                "layer": l,
                "mean_angle_deg": alignment_angles(mlp, l).mean_deg,
                "weight_feedback_distance": weight_feedback_distance(mlp, l),
                "effective_rank": effective_rank(mlp.weights[l]),
            }
        )
    print(json.dumps({"dims": list(mlp.dims), "layers": layers},
                     indent=2, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    cfg = reproduce(args.figure_id)
    if args.trials is not None:
        cfg.trials = args.trials
    doc = config_to_dict(cfg)
    doc = apply_overrides(doc, args.overrides)
    cfg = config_from_dict(doc)
    cfg.master_seed = args.seed
    cfg.threads = args.threads
    if args.out is not None:
        cfg.output_dir = args.out
    if args.data_dir is not None:
        cfg.data_dir = args.data_dir
    scale = args.scale if args.scale is not None else 5.0
    cfg = apply_scale(cfg, scale)
    if scale != 1.0:
        print(f"note: running at 1/{scale:g} duration; use --scale 1 for "
              "the full protocol")
    run_experiment(cfg)
    print(f"wrote {cfg.output_dir}")
    return 0


def _cmd_sweep(args) -> int:
    doc = load_config_file(args.config)
    if not doc.get("sweep"):
        raise ConfigError(f"config {args.config} has no sweep section")
    cfg = _finish_config(doc, args)
    manifest = run_experiment(cfg)
    print(f"wrote {len(manifest.get('points', []))} sweep points under "
          f"{cfg.output_dir}")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "metrics": _cmd_metrics,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except SystemExit as e:
        if e.code is None:
            return 0
        return e.code if isinstance(e.code, int) else 1
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
