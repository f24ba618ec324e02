"""Command-line interface.

Verbs: ``pretrain``, ``train``, ``eval``, ``metrics``, ``reproduce``,
``sweep``.  Exit codes: 0 success, 1 usage or configuration error, 2 data
or file-format error, 3 numeric failure (NaN/Inf detected).

The four run verbs build their config in :func:`_build_config`, in one
order: the base document (``reproduce``'s preset, the ``--config`` file, or
the verb's default experiment), then each run flag that was given, as an
override of its config path, then ``--set``, then ``--scale``, which
composes with the scale the document already has.  A flag that is not
given changes nothing.  ``--set scale=...`` is refused: ``scale`` records
what ``--scale`` did.  ``--dist``, ``--rule`` and ``--pretrain`` pick the
shape of the default experiment and are refused with ``--config``.

``eval`` and ``metrics`` call the package's functions as a reader would:
each holds a core (see ``learn._Cores``) as a run's items do, so the two
verbs reproduce a run's own numbers.  The four run verbs share one handler
and hold no core beside their items': the CLI's thread only waits while a
pool runs, and would keep its last item from a free core.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
)
from ..learn import evaluate
from ..metrics import alignment_angles, effective_rank, weight_feedback_distance
from ..net import load_mlp
from .config import (
    ExperimentConfig,
    apply_overrides,
    apply_scale,
    config_from_dict,
    config_to_dict,
    load_config_file,
)
from .experiment import default_data_dir, load_named_split, run_experiment
from .presets import FIGURE_IDS, reproduce

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Path(argparse.Action):
    """A run flag: its value, when given, overrides the config path ``dest``."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.paths = {**getattr(namespace, "paths", {}), self.dest: values}


def _flag(p: argparse.ArgumentParser, flag: str, path: str, **kwargs) -> None:
    p.add_argument(flag, dest=path, action=_Path, default=argparse.SUPPRESS, **kwargs)


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        ) from None


def _capture(text: str) -> list[str]:
    return [] if text == "none" else text.split(",")


_DATA_DIR_HELP = "dataset root (default: $PREALIGN_DATA_DIR or ./data)"


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags of the verbs that run an experiment."""
    _flag(p, "--seed", "master_seed", type=int, help="master seed")
    _flag(p, "--out", "output_dir", help="output directory")
    _flag(p, "--threads", "threads", type=int,
          help="concurrent (trial, variant) runs, one BLAS thread each")
    _flag(p, "--data-dir", "data_dir", help=_DATA_DIR_HELP)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="dotted-path config override, applied after the flags")
    p.add_argument("--scale", type=float, default=None,
                   help="divide run durations by this factor, applied last")


def _build_parser() -> _Parser:
    parser = _Parser(prog="prealign",
                     description="random-noise pretraining for feedback alignment")
    sub = parser.add_subparsers(dest="verb", required=True)
    config_help = "JSON config file; the flags given override it"

    p = sub.add_parser("pretrain", help="train on random noise only")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--dist", choices=("gaussian", "uniform"), default=argparse.SUPPRESS,
                   help="noise distribution of the default experiment (gaussian)")
    _flag(p, "--dims", "dims", type=_dims)
    _flag(p, "--samples", "pretrain.total_samples", type=int)
    _flag(p, "--samples-per-epoch", "pretrain.samples_per_epoch", type=int)
    _flag(p, "--batch", "pretrain.batch_size", type=int)
    _flag(p, "--lr", "pretrain.learning_rate", type=float)
    _flag(p, "--std", "pretrain.distribution.std", type=float,
          help="gaussian standard deviation")
    _flag(p, "--low", "pretrain.distribution.low", type=float, help="uniform low")
    _flag(p, "--high", "pretrain.distribution.high", type=float, help="uniform high")
    _flag(p, "--trials", "trials", type=int)
    _flag(p, "--capture", "capture", type=_capture,
          help="comma-separated metric flags, or 'none'")
    _add_common(p)

    p = sub.add_parser("train", help="supervised training, optionally pre-noised")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--rule", choices=("FA", "BP"), default=argparse.SUPPRESS,
                   help="backward rule of the default experiment (FA)")
    p.add_argument("--pretrain", action="store_true", default=argparse.SUPPRESS,
                   help="give the default experiment a noise phase first")
    _flag(p, "--dataset", "dataset")
    _flag(p, "--dims", "dims", type=_dims)
    _flag(p, "--epochs", "train.epochs", type=int)
    _flag(p, "--batch", "train.batch_size", type=int)
    _flag(p, "--lr", "train.learning_rate", type=float)
    _flag(p, "--patience", "train.patience", type=int)
    _flag(p, "--train-size", "train_size", type=int)
    _flag(p, "--test-size", "test_size", type=int)
    _flag(p, "--samples", "pretrain.total_samples", type=int,
          help="noise samples of the noise phase")
    _flag(p, "--trials", "trials", type=int)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--data-dir", default=None, help=_DATA_DIR_HELP)

    p = sub.add_parser("metrics", help="alignment/rank metrics of a checkpoint")
    p.add_argument("--model", required=True)

    p = sub.add_parser("reproduce", help="run a named result preset")
    p.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    _flag(p, "--trials", "trials", type=int, help="override the preset's trial count")
    _add_common(p)
    p.set_defaults(scale=5.0)

    p = sub.add_parser("sweep", help="cartesian sweep from a config file")
    p.add_argument("--config", required=True, help="JSON config with a sweep section")
    _add_common(p)

    return parser


def _default_document(verb: str, dist: str = "gaussian", rule: str = "FA",
                      pretrain: bool = False) -> dict:
    """The config document ``pretrain`` or ``train`` runs without
    ``--config``, in the shape ``--dist``, ``--rule`` and ``--pretrain``
    pick; every setting it leaves out takes its dataclass default."""
    doc = {"experiment_id": verb, "dims": [784, 100, 10], "output_dir": f"out/{verb}"}
    if verb == "pretrain":
        return {**doc, "variants": [{"name": "fa_pre", "pretrain": True}],
                "pretrain": {"distribution": {"kind": dist}}, "capture": ["angles"]}
    name = "fa_pre" if pretrain else rule.lower()
    return {**doc, "variants": [{"name": name, "rule": rule, "pretrain": pretrain}],
            "pretrain": {} if pretrain else None, "train": {},
            "dataset": "mnist"}


def _build_config(args) -> ExperimentConfig:
    """The config of a run verb: the base document, then the run flags that
    were given, then ``--set``, then ``--scale``."""
    shape = {k: v for k, v in vars(args).items() if k in ("dist", "rule", "pretrain")}
    if args.verb == "reproduce":
        doc = config_to_dict(reproduce(args.figure_id))
    elif args.config is not None:
        if shape:
            raise ConfigError(
                f"--{next(iter(shape))} shapes the default experiment and cannot "
                "be combined with --config; use --set on the config's paths"
            )
        doc = load_config_file(args.config)
    else:
        doc = _default_document(args.verb, **shape)
    if any(item.partition("=")[0] == "scale" for item in args.overrides):
        raise ConfigError("scale records what --scale did; use --scale to shrink a run")
    flags = [f"{path}={json.dumps(value)}"
             for path, value in getattr(args, "paths", {}).items()]
    cfg = config_from_dict(apply_overrides(doc, flags + args.overrides))
    return cfg if args.scale is None else apply_scale(cfg, args.scale)


def _cmd_run(args) -> int:
    """``pretrain``, ``train``, ``reproduce`` and ``sweep``."""
    cfg = _build_config(args)
    if args.verb == "sweep" and not cfg.sweep:
        raise ConfigError(f"config {args.config} has no sweep section")
    if args.scale not in (None, 1.0):
        print(f"note: running at 1/{args.scale:g} duration; use --scale 1 for "
              "the full protocol")
    manifest = run_experiment(cfg)
    for name, trials in manifest.get("summary", {}).items():
        for trial, s in sorted(trials.items()):
            if "final_test_acc" in s:
                print(
                    f"{name} trial {trial}: test_acc={s['final_test_acc']:.4f} "
                    f"(best {s['best_test_acc']:.4f})"
                )
    points = f"{len(manifest['points'])} sweep points under " if cfg.sweep else ""
    print(f"wrote {points}{cfg.output_dir}")
    return 0


def _cmd_eval(args) -> int:
    mlp = load_mlp(args.model)
    ds = load_named_split(args.dataset, args.split, default_data_dir(args.data_dir),
                          mlp.dims[0], mlp.dims[-1])
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


_COMMANDS = {
    "pretrain": _cmd_run,
    "train": _cmd_run,
    "eval": _cmd_eval,
    "metrics": _cmd_metrics,
    "reproduce": _cmd_run,
    "sweep": _cmd_run,
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
