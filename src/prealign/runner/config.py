"""Experiment configuration: dataclasses, JSON round-trip, overrides.

A config document is plain JSON mirroring :class:`ExperimentConfig`; the
manifest written by every run embeds the fully resolved form, so a run can
always be repeated from its manifest alone.  Each arm's backward rule is
its variant's ``rule``, and each trial's seed and the evaluation
transform's seed derive from ``master_seed``, so the ``train``,
``pretrain`` and ``eval_transform`` sections carry neither, and a document
whose sections do is refused.  Dotted-path overrides (``train.epochs=5``)
and the sweep mechanism both edit the JSON form before it is parsed back
into dataclasses, so one code path validates everything.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, replace

from ..errors import ConfigError, require_float, require_int
from ..data import TransformSpec
from ..learn import TrainConfig
from ..metrics import MetaConfig
from ..noise import Gaussian, NoiseConfig, Uniform, _epoch_batches

__all__ = [
    "VariantSpec",
    "MetaSettings",
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "load_config_file",
    "apply_overrides",
    "apply_scale",
    "expand_sweep",
]

_ORDERS = ("noise_first", "data_first")
CAPTURE_FLAGS = (
    "angles",
    "distance",
    "eff_rank",
    "gram",
    "trajectory",
    "meta",
    "clean_test",
)


@dataclass(frozen=True)
class VariantSpec:
    """One arm of an experiment: which backward rule the data phase uses,
    whether a noise phase runs, and in which order when both phases exist."""

    name: str
    rule: str = "FA"
    pretrain: bool = False
    order: str = "noise_first"

    def __post_init__(self) -> None:
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\ "):
            raise ConfigError(f"variant name {self.name!r} must be path-safe")
        if self.rule not in ("FA", "BP"):
            raise ConfigError(f"variant rule must be FA or BP, got {self.rule!r}")
        if self.order not in _ORDERS:
            raise ConfigError(f"variant order must be one of {_ORDERS}")


@dataclass(frozen=True)
class MetaSettings(MetaConfig):
    """The few-shot settings of the ``meta`` capture and its tasks, by
    dataset name; each task is the test split of that dataset."""

    tasks: tuple[str, ...] = ("mnist", "fashion-mnist", "kmnist")

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ConfigError("meta tasks must be nonempty")
        if len(set(self.tasks)) != len(self.tasks):
            raise ConfigError(f"meta tasks must be distinct, got {list(self.tasks)}")


@dataclass
class ExperimentConfig:
    """Everything a run needs, resolvable to JSON and back."""

    experiment_id: str
    dims: tuple[int, ...]
    variants: list[VariantSpec]
    trials: int = 1
    master_seed: int = 0
    pretrain: NoiseConfig | None = None
    train: TrainConfig | None = None
    dataset: str | None = None
    train_size: int | None = None
    test_size: int | None = None
    eval_transform: TransformSpec | None = None
    eval_dataset: str | None = None
    capture: tuple[str, ...] = ()
    meta: MetaSettings | None = None
    traj_layer: int = 0
    scale: float = 1.0
    output_dir: str = "out"
    data_dir: str | None = None
    threads: int = 1
    sweep: dict | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.dims, (list, tuple)) or len(self.dims) < 2:
            raise ConfigError(f"dims must list two or more integers, got {self.dims!r}")
        for d in self.dims:
            require_int("each of dims", d, 1)
        self.dims = tuple(int(d) for d in self.dims)
        require_int("trials", self.trials, 1)
        require_int("master_seed", self.master_seed)
        require_int("traj_layer", self.traj_layer)
        require_int("threads", self.threads, 1)
        for name in ("train_size", "test_size"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name))
        if not self.variants:
            raise ConfigError("at least one variant is required")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"variant names must be unique, got {names}")
        for flag in self.capture:
            if flag not in CAPTURE_FLAGS:
                raise ConfigError(
                    f"unknown capture flag {flag!r}; valid: {CAPTURE_FLAGS}"
                )
        n_layers = len(self.dims) - 1
        if "trajectory" in self.capture and not 0 <= self.traj_layer < n_layers:
            raise ConfigError(f"traj_layer must be in [0, {n_layers}) for dims "
                              f"{list(self.dims)}, got {self.traj_layer}")
        require_float("scale", self.scale)
        if self.scale <= 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        if self.sweep is not None and not isinstance(self.sweep, dict):
            raise ConfigError(f"sweep must be a JSON object, got {self.sweep!r}")
        for key, values in (self.sweep or {}).items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep key {key!r} must map to a nonempty list")
        if self.sweep and {"scale", "threads"} & set(self.sweep):
            raise ConfigError("scale and threads serve every point of a sweep and "
                              "cannot be swept; use --scale and --threads")
        if "meta" in self.capture and self.meta is None:
            raise ConfigError("capture flag 'meta' requires meta settings")
        if self.meta is not None and "meta" not in self.capture:
            raise ConfigError("meta settings are given but capture has no 'meta' flag")
        if self.eval_dataset is not None and self.eval_transform is not None:
            raise ConfigError("eval_dataset and eval_transform each replace the "
                              "evaluation split; set at most one")
        needs_data = self.train is not None or any(
            f in self.capture for f in ("gram", "clean_test")
        )
        if needs_data and self.dataset is None:
            raise ConfigError("this configuration needs a dataset name")
        if self.train is None:
            idle = [v.name for v in self.variants if not v.pretrain]
            if idle:
                raise ConfigError(f"variants {idle} do not pretrain and there is "
                                  "no train section: they have no phase to run")
        pretrains = any(v.pretrain for v in self.variants)
        if pretrains and self.pretrain is None:
            raise ConfigError("a variant requests pretraining but no noise settings given")
        if self.pretrain is not None and not pretrains:
            raise ConfigError("noise settings are given but no variant pretrains")
        if "trajectory" in self.capture:
            noise_epochs = 0 if self.pretrain is None else len(_epoch_batches(self.pretrain))
            train_epochs = 0 if self.train is None else self.train.epochs
            short = [v.name for v in self.variants
                     if (noise_epochs if v.pretrain else 0) + train_epochs < 3]
            if short:
                raise ConfigError("trajectory capture needs at least 3 logging epochs; "
                                  f"variants {short} log fewer")


def _dist_to_dict(d) -> dict:
    # NoiseConfig admits only these two
    if isinstance(d, Gaussian):
        return {"kind": "gaussian", "mean": d.mean, "std": d.std}
    return {"kind": "uniform", "low": d.low, "high": d.high}


def _dist_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ConfigError(f"distribution must be a JSON object, got {d!r}")
    d = dict(d)
    kind = d.pop("kind", None)
    if kind == "gaussian":
        return Gaussian(**d)
    if kind == "uniform":
        return Uniform(**d)
    raise ConfigError(f"unknown distribution kind {kind!r}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-compatible form of a config (tuples to lists, tagged dists)."""
    out = json.loads(json.dumps(asdict(cfg)))
    if cfg.pretrain is not None:
        out["pretrain"]["distribution"] = _dist_to_dict(cfg.pretrain.distribution)
    return out


def config_from_dict(d: dict) -> ExperimentConfig:
    """Parse the JSON form back into validated dataclasses."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    d = dict(d)

    def section(key, build):
        value = d.pop(key, None)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        return None if value is None else build(**value)

    def noise_config(**fields):
        if "distribution" in fields:
            fields["distribution"] = _dist_from_dict(fields["distribution"])
        return NoiseConfig(**fields)

    try:
        variants = [VariantSpec(**v) for v in d.pop("variants", [])]
        pretrain = section("pretrain", noise_config)
        train = section("train", TrainConfig)
        transform = section("eval_transform", TransformSpec)
        meta = section("meta", MetaSettings)
        capture = tuple(d.pop("capture", ()))
        return ExperimentConfig(
            variants=variants,
            pretrain=pretrain,
            train=train,
            eval_transform=transform,
            meta=meta,
            capture=capture,
            **d,
        )
    except TypeError as e:
        raise ConfigError(f"bad config structure: {e}") from e


def load_config_file(path) -> dict:
    """Read a JSON config document (the dict form, pre-validation)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(
            f"config {path} must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply ``key=value`` assignments with dotted paths to the dict form.

    Values parse as JSON when possible, otherwise stay strings.  The path
    must lead through existing (or null) mappings; a null section is
    created as an empty object so optional sections can be filled in.
    """
    out = json.loads(json.dumps(doc))
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, _, raw = item.partition("=")
        keys = path.split(".")
        node = out
        for k in keys[:-1]:
            if node.get(k) is None:
                node[k] = {}
            node = node[k]
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses non-object {k!r}")
        node[keys[-1]] = _parse_override_value(raw)
    return out


def apply_scale(cfg: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Divide the run durations by ``scale`` for desk-scale execution.

    Shrinks pretraining total samples and training epochs (never below one
    batch or one epoch), the configured ones and the swept ones alike;
    everything else, including trial counts, stays at the preset's values.
    The factor composes with the one already on the config:
    ``cfg.scale * scale`` is recorded and ends up in the manifest, so scaled
    runs are never mistaken for full-duration ones.
    """
    require_float("scale", scale)
    if scale <= 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    if scale == 1.0:
        return replace(cfg, scale=cfg.scale * scale)

    def shrink(duration):
        # a swept value is not checked before its point is built
        require_int("each swept duration", duration, 1)
        return max(1, round(duration / scale))

    swept_durations = ("pretrain.total_samples", "train.epochs")
    # one replace, so that the scaled config is the one validated
    return replace(
        cfg,
        scale=cfg.scale * scale,
        pretrain=None if cfg.pretrain is None else replace(
            cfg.pretrain, total_samples=shrink(cfg.pretrain.total_samples)),
        train=None if cfg.train is None else replace(
            cfg.train, epochs=shrink(cfg.train.epochs)),
        sweep=cfg.sweep and {
            key: [shrink(v) for v in values] if key in swept_durations else values
            for key, values in cfg.sweep.items()
        },
    )


def _point_name(key: str, value) -> str:
    if isinstance(value, list):
        text = "x".join(str(v) for v in value)
    else:
        text = str(value)
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in text)
    return f"{key.split('.')[-1]}={safe}"


def expand_sweep(doc: dict) -> list[tuple[str, dict]]:
    """Expand the ``sweep`` section into named cartesian points.

    Each point is ``(name, config dict)`` with the swept keys applied as
    overrides, the sweep section cleared, and the point name appended to
    the output directory.
    """
    sweep = doc.get("sweep")
    if not sweep:
        raise ConfigError("config has no sweep section")
    keys = sorted(sweep)
    points = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        assignments = [f"{k}={json.dumps(v)}" for k, v in zip(keys, combo)]
        point = apply_overrides(doc, assignments)
        point["sweep"] = None
        name = "_".join(_point_name(k, v) for k, v in zip(keys, combo))
        point["output_dir"] = str(point.get("output_dir", "out")) + "/" + name
        points.append((name, point))
    names = [name for name, _ in points]
    if len(set(names)) != len(names):
        raise ConfigError(f"sweep points would share an output directory: {names}")
    return points
