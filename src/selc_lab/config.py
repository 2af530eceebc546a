"""Experiment configuration: a single YAML tree, validated on load.

Relative paths inside a config (IDX/CSV datasets, noise mapping files,
the output directory) resolve against the directory containing the config
file, so a config plus its data folder can move as a unit. Loading builds
what every trial of a run reads: the dataset of any kind (blobs generated,
CSV and IDX files parsed) and the noise model (a mapping file read once).
So a malformed input is a config error rather than a failure in every
trial, and both stay on the config, as ``data`` and ``transition``, for
the run. Fields annotated ``int``, ``float``, ``bool`` or ``str`` take
values of that type only; an integer is a float too.
"""

import os
import re
from dataclasses import MISSING, dataclass, field, fields

from . import fork_workers
from .data import BlobSpec, check_field_types, generate_blobs, load_dataset_files
from .errors import ParameterError, require
from .mlp import ACTIVATIONS
from .noise import TransitionMatrix, build_asymmetric_q, build_symmetric_q, load_mapping
from .rng import check_seed
from .training import METHODS
from .turning import METRIC_NAMES, MIN_SAMPLES

DATASET_KINDS = ("blobs", "idx", "csv")
NOISE_KINDS = ("none", "symmetric", "asymmetric")
AUTO = "auto"


@dataclass
class DatasetSpecConfig:
    kind: str = "blobs"
    # blobs
    n: int = 4000
    dim: int = 16
    num_classes: int = 4
    cluster_std: float = 1.0
    seed: int = 0
    test_n: int | None = None
    # idx
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    # csv
    train_csv: str | None = None
    test_csv: str | None = None


@dataclass
class NoiseSpecConfig:
    kind: str = "symmetric"
    eta: float = 0.4
    exclude_true_class: bool = False
    mapping_file: str | None = None


@dataclass
class ModelSpecConfig:
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    activation: str = "tanh"


@dataclass
class OptimizerSpecConfig:
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.001
    milestones: list[int] = field(default_factory=list)
    decay_factor: float = 10.0
    batch_size: int = 128
    epochs: int = 60


@dataclass
class MethodSpecConfig:
    name: str = "ce"
    beta: float = 0.8
    # alpha may be a single value or a list (sweep -> one subrun per value)
    alpha: float | list[float] = 0.9
    activation_epoch: object = AUTO
    detector_patience: int = 10
    metric_choice: str = "m1"
    mixup_beta_param: float = 1.0
    plus_epochs: int | None = None


@dataclass
class ExperimentConfig:
    dataset: DatasetSpecConfig
    noise: NoiseSpecConfig
    model: ModelSpecConfig
    optimizer: OptimizerSpecConfig
    method: MethodSpecConfig
    trials: list[int]
    out_dir: str
    # the run's inputs, built once by validate_config for every trial; a
    # run's forked children inherit them: the dataset's (train_x, train_y,
    # test_x, test_y, num_classes) and the noise model
    data: tuple | None = field(default=None, repr=False, compare=False)
    transition: TransitionMatrix | None = field(default=None, repr=False, compare=False)


def alpha_values(method: MethodSpecConfig) -> list:
    """The method's alpha(s) as a list; single values become one-element lists."""
    if isinstance(method.alpha, (list, tuple)):
        return [float(a) for a in method.alpha]
    return [float(method.alpha)]


def validate_config(cfg: ExperimentConfig, base_dir: str = ".") -> None:
    """Check ``cfg`` and build its ``data`` and ``transition``: first
    ``out_dir`` and the field types, then, with relative paths resolved
    against ``base_dir``, the values."""
    ds, noise, model, opt, method = cfg.dataset, cfg.noise, cfg.model, cfg.optimizer, cfg.method
    # checked before the paths resolve: "" would normalize into base_dir
    # itself, and only a string is a path
    require(isinstance(cfg.out_dir, str) and cfg.out_dir != "", "out_dir must be a nonempty string")
    check_field_types(cfg)
    _resolve_paths(cfg, base_dir)
    for seed in cfg.trials:
        check_seed(seed, "trials")
    require(ds.kind in DATASET_KINDS, f"dataset.kind must be one of {DATASET_KINDS}, got {ds.kind!r}")
    if ds.kind == "blobs":
        # the turning-point fit's floor; BlobSpec checks n against num_classes
        require(ds.n >= MIN_SAMPLES, f"dataset.n must be >= num_classes and >= {MIN_SAMPLES}, got {ds.n}")
        try:
            spec = BlobSpec(n=ds.n, dim=ds.dim, num_classes=ds.num_classes,
                            cluster_std=ds.cluster_std, seed=ds.seed, test_n=ds.test_n)
        except ParameterError as exc:
            raise ParameterError(f"dataset.{exc}") from exc
        num_classes = ds.num_classes
    else:
        check_seed(ds.seed, "dataset.seed")  # read by blobs only, where BlobSpec checks it
        names = (("train_images", "train_labels", "test_images", "test_labels")
                 if ds.kind == "idx" else ("train_csv", "test_csv"))
        for name in names:
            path = getattr(ds, name)
            require(path is not None, f"dataset.{name} is required for kind {ds.kind!r}")
            require(os.path.exists(path), f"dataset.{name}: no such file: {path}")
        cfg.data = load_dataset_files(ds)
        require(cfg.data[1].size >= MIN_SAMPLES,
                f"dataset.{names[0]}: need at least {MIN_SAMPLES} training samples, "
                f"got {cfg.data[1].size}")
        num_classes = cfg.data[4]

    require(noise.kind in NOISE_KINDS, f"noise.kind must be one of {NOISE_KINDS}, got {noise.kind!r}")
    if noise.kind != "none":
        require(0.0 <= noise.eta < 1.0, f"noise.eta must be in [0, 1), got {noise.eta}")
    if noise.kind == "asymmetric":
        require(noise.mapping_file is not None, "noise.mapping_file is required for asymmetric noise")
        require(os.path.exists(noise.mapping_file),
                f"noise.mapping_file: no such file: {noise.mapping_file}")
        mapping = load_mapping(noise.mapping_file)

    require(len(model.hidden_dims) >= 1, "model.hidden_dims must list at least one layer width")
    require(all(h >= 1 for h in model.hidden_dims),
            f"model.hidden_dims must be positive, got {model.hidden_dims}")
    require(model.activation in ACTIVATIONS,
            f"model.activation must be one of {ACTIVATIONS}, got {model.activation!r}")

    require(opt.lr > 0, f"optimizer.lr must be positive, got {opt.lr}")
    require(0.0 <= opt.momentum < 1.0, f"optimizer.momentum must be in [0, 1), got {opt.momentum}")
    require(opt.weight_decay >= 0, f"optimizer.weight_decay must be >= 0, got {opt.weight_decay}")
    require(opt.decay_factor > 1.0, f"optimizer.decay_factor must exceed 1, got {opt.decay_factor}")
    require(opt.batch_size >= 1, f"optimizer.batch_size must be >= 1, got {opt.batch_size}")
    require(opt.epochs >= 1, f"optimizer.epochs must be >= 1, got {opt.epochs}")
    ms = list(opt.milestones)
    require(all(m >= 0 for m in ms), f"optimizer.milestones must be >= 0, got {ms}")
    require(ms == sorted(ms) and len(set(ms)) == len(ms),
            f"optimizer.milestones must be strictly increasing, got {ms}")

    require(method.name in METHODS,
            f"method.name must be one of {tuple(METHODS)}, got {method.name!r}")
    # every method's SelcRunConfig takes all three
    for a in alpha_values(method):
        require(0.0 <= a < 1.0, f"method.alpha values must be in [0, 1), got {a}")
    require(0.0 <= method.beta <= 1.0, f"method.beta must be in [0, 1], got {method.beta}")
    require(method.mixup_beta_param > 0,
            f"method.mixup_beta_param must be positive, got {method.mixup_beta_param}")
    if METHODS[method.name] is not None:
        sweep_dirs = {}  # a sweep writes the trials of alpha a to alpha_{a:g}
        for a in alpha_values(method):
            name = f"alpha_{a:g}"
            if name in sweep_dirs:
                raise ParameterError(f"method.alpha must be values whose sweep directories "
                                     f"differ, but {sweep_dirs[name]!r} and {a!r} both write {name}")
            sweep_dirs[name] = a
        ae = method.activation_epoch
        if ae != AUTO:
            require(isinstance(ae, int) and not isinstance(ae, bool) and ae >= 0,
                    f"method.activation_epoch must be 'auto' or an int >= 0, got {ae!r}")
        require(method.detector_patience >= 1,
                f"method.detector_patience must be >= 1, got {method.detector_patience}")
        require(method.metric_choice in METRIC_NAMES,
                f"method.metric_choice must be m1, m2 or m3, got {method.metric_choice!r}")
    if method.name == "selc_plus" and method.plus_epochs is not None:
        require(method.plus_epochs >= 1,
                f"method.plus_epochs must be >= 1, got {method.plus_epochs}")

    require(len(set(cfg.trials)) == len(cfg.trials), f"trials must be unique seeds, got {cfg.trials}")

    # the noise model and the blobs are built only once the run they are
    # for is known to fit
    if ds.kind != "blobs":
        # the files are read already; their sizes hold for the estimate
        train_x, train_y, test_x = cfg.data[:3]
        field = f"dataset.{names[0]}"
        # the file whose largest label sets the class count
        train_labels, test_labels = (name for name in names if not name.endswith("images"))
        labels = train_labels if train_y.max() + 1 == num_classes else test_labels
        _check_memory(cfg, train_x.shape[0], test_x.shape[0], train_x.shape[1], num_classes,
                      (field, field, f"dataset.{labels}"))
    else:
        _check_memory(cfg, ds.n, spec.test_n, ds.dim, num_classes,
                      ("dataset.n", "dataset.dim", "dataset.num_classes"))
    if noise.kind == "asymmetric":
        cfg.transition = build_asymmetric_q(num_classes, noise.eta, mapping)
    else:
        eta = noise.eta if noise.kind == "symmetric" else 0.0
        cfg.transition = build_symmetric_q(num_classes, eta, exclude_true_class=noise.exclude_true_class)
    if ds.kind != "blobs":
        return
    try:  # BlobSpec checked the splits; what fails here is placing the centers
        splits = [generate_blobs(spec, split=split) for split in ("train", "test")]
    except ParameterError as exc:
        raise ParameterError(f"dataset.cluster_std: {exc}") from exc
    cfg.data = (*splits[0], *splits[1], ds.num_classes)


def _check_memory(cfg: ExperimentConfig, n: int, test_n: int, dim: int, num_classes: int,
                  fields) -> None:
    """Reject a run that cannot fit in physical memory (``check_memory``);
    ``fields`` name the fields that set the sample count, the feature
    count and the class count C.

    The estimate is a floor of what the run maps at once: the data; the
    (epochs, n) float64 loss matrices of ``experiment._run_jobs``, one per
    trial when its jobs run in forked children (``run_workers``); in each
    process that trains at once, at most one per trial, the snapshot
    buffers of ``mlp.predict_proba`` (n rows of every layer's width) and
    the weights, with their momentum, scratch and gradient vectors; and a
    C x C matrix, which bounds the noise model and each trial's confusion
    counts."""
    epochs, hidden = cfg.optimizer.epochs, cfg.model.hidden_dims
    widths = [*hidden, num_classes]
    params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip([dim, *hidden], widths))
    trials = len(run_alphas(cfg)) * len(cfg.trials)
    workers = run_workers(cfg)
    n_field, dim_field, class_field = fields
    # the layer widths are named by the classes once they outnumber the
    # hidden units
    width_field = class_field if num_classes > sum(hidden) else "model.hidden_dims"
    check_memory([
        data_memory(n, test_n, dim, (n_field, dim_field)),
        (8 * (trials if workers > 1 else 1) * epochs * n, {"optimizer.epochs": epochs, n_field: n}),
        (8 * min(workers, trials) * n * sum(widths), {n_field: n, width_field: sum(widths)}),
        (8 * min(workers, trials) * 4 * params, {dim_field: dim, width_field: max(widths)}),
        (8 * num_classes**2, {class_field: num_classes}),
    ])


def run_alphas(cfg: ExperimentConfig) -> list:
    """The alphas at which a run trains every seed: each alpha of a
    correcting method, else the first one, which the method does not read."""
    alphas = alpha_values(cfg.method)
    return alphas if METHODS[cfg.method.name] is not None else alphas[:1]


def run_workers(cfg: ExperimentConfig) -> int:
    """How many processes run a run's jobs at once: ``fork_workers`` of the
    most jobs that can be ready at once, two per ``selc_plus`` trial (retrain
    and diagnose) and one per other trial. Below 2, none forks."""
    return fork_workers(len(run_alphas(cfg)) * len(cfg.trials)
                        * (2 if cfg.method.name == "selc_plus" else 1))


def data_memory(n: int, test_n: int, dim: int, fields):
    """The memory term of a dataset's float64 features and int64 labels,
    ``n + test_n`` samples of ``dim`` features, for ``check_memory``;
    ``fields`` name the fields that set the sample and feature counts."""
    n_field, dim_field = fields
    return 8 * (n + test_n) * (dim + 1), {n_field: n + test_n, dim_field: dim}


def check_memory(terms) -> None:
    """Reject work whose memory ``terms``, each (bytes, {field: the factor
    of those bytes that it sets}), add up to more than physical memory,
    naming the largest factor of the largest term."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        physical = -1
    if physical <= 0:
        return  # no figure to hold the estimate against
    total = sum(size for size, _ in terms)
    if total > physical:
        factors = max(terms, key=lambda term: term[0])[1]
        raise ParameterError(f"{max(factors, key=factors.get)} must be smaller: it would map "
                             f"at least {total / 2**30:.3g} GiB at once, more than the "
                             f"{physical / 2**30:.3g} GiB of physical memory")


_PATH_FIELDS = (
    ("dataset", "train_images"), ("dataset", "train_labels"),
    ("dataset", "test_images"), ("dataset", "test_labels"),
    ("dataset", "train_csv"), ("dataset", "test_csv"),
    ("noise", "mapping_file"),
)


def _resolve_paths(cfg: ExperimentConfig, base_dir: str) -> None:
    for section, name in _PATH_FIELDS:
        value = getattr(getattr(cfg, section), name)
        if value is not None and not os.path.isabs(value):
            setattr(getattr(cfg, section), name, os.path.normpath(os.path.join(base_dir, value)))
    if not os.path.isabs(cfg.out_dir):
        cfg.out_dir = os.path.normpath(os.path.join(base_dir, cfg.out_dir))


def from_mapping(cls, data, what: str):
    """The dataclass ``cls`` built from the mapping ``data`` (None is
    empty), which ``what`` names in an error: a key that names no field of
    ``cls``, or a field without a default that is missing, is a
    ``ParameterError``."""
    data = {} if data is None else data
    require(isinstance(data, dict), f"{what} must be a mapping")
    unknown = set(data) - set(cls.__dataclass_fields__)
    require(not unknown, f"unknown keys in {what}: {sorted(unknown, key=str)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    require(not missing, f"missing keys in {what}: {missing}")
    return cls(**data)


SECTIONS = {"dataset": DatasetSpecConfig, "noise": NoiseSpecConfig, "model": ModelSpecConfig,
            "optimizer": OptimizerSpecConfig, "method": MethodSpecConfig}


def config_from_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    require(isinstance(data, dict), "config root must be a mapping")
    unknown = set(data) - {*SECTIONS, "trials", "out_dir"}
    require(not unknown, f"unknown top-level config keys: {sorted(unknown, key=str)}")
    cfg = ExperimentConfig(**{name: from_mapping(cls, data.get(name), f"config section {name!r}")
                              for name, cls in SECTIONS.items()},
                           trials=data.get("trials", [0]), out_dir=data.get("out_dir", "out"))
    validate_config(cfg, base_dir)
    return cfg


# a plain scalar that YAML 1.2 reads as a float and YAML 1.1, which PyYAML
# follows, as a string: an exponent without a sign or without a dot (6e-2,
# 1.0e9)
_YAML12_FLOAT = r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"


def read_yaml(path):
    """The YAML document in ``path``, read with PyYAML's safe loader, which
    here also takes the YAML 1.2 float forms; a file that does not parse is
    a ``ParameterError`` naming it."""
    import yaml  # imported only here, so that commands that read no YAML do not load it

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(_YAML12_FLOAT),
                                 list("-+.0123456789"))
    with open(path) as fh:
        try:
            return yaml.load(fh, Loader=Loader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{path}: not valid YAML: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    data = read_yaml(path)
    if data is None:
        raise ParameterError(f"{path}: empty config")
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
