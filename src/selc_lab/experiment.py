"""Run orchestration: dataset build, noise injection, training per method,
per-epoch diagnostics, and deterministic result emission.

Outputs per trial directory: ``epochs.csv`` (one row per epoch),
``metrics.csv`` (long-form diagnostics ledger), ``losses.csv`` (per-sample
losses per epoch), ``confusion_epoch_<k>.csv`` for the last epoch, and a
targets checkpoint for the correcting methods. One ``summary.json`` sits at
the run root. Reruns with the same config are byte-identical: no
timestamps, fixed column orders, 6 significant digits, LF endings.

Every trial is two jobs. The train job runs the warm phase, the main run
and the SELC+ retrain; the main run's epoch hook only records a trajectory
(per-sample losses, prediction and target argmaxes, test accuracy). The
diagnose job computes every diagnostic and writes every artifact from
that trajectory; diagnostics never feed back into training, since SELC's
correction reads only the previous epoch's predictions.

A run with more than one trial sends its jobs to forked worker processes,
one per usable core, when ``selc_lab.fork_workers`` allows: every train
job first, and each diagnose job as soon as its train job completes, so
diagnoses run beside the trials still training. The data and each
trial's trajectory, an anonymous shared mapping, exist before the workers
fork; only the epoch rows and the final targets pass through the pool's
pipe. In one process the same two jobs run one after the other, with the
same outputs; there the diagnose job's mixture fits fan out over the
cores (``turning.compute_metric_series``), which they never do inside a
pool worker. CSV data is parsed at config load, before any worker
exists, and a large file's parse fans out too (``tables.read_rows``).

Environment: ``SELC_OUT_DIR`` overrides the config's output directory.
"""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import fork_workers
from .config import AUTO, ExperimentConfig, alpha_values
from .data import BlobSpec, TrainView, generate_blobs, load_dataset_files
from .diagnostics import (
    append_metrics_ledger,
    confusion_of_corrections,
    memorization_stats,
    write_confusion_csv,
)
from .mlp import init_mlp, make_optimizer, one_hot, predict_proba, soft_ce_loss
from .noise import (
    TransitionMatrix,
    build_asymmetric_q,
    build_symmetric_q,
    inject_noise,
    load_mapping,
)
from .rng import stream
from .targets import EnsembleState, save_state
from .training import (
    METHOD_CE,
    TURNING_POINT_OFFSET,
    SelcRunConfig,
    default_activation_epoch,
    run_selc_plus,
    run_training,
)
from .turning import (
    METRIC_NAMES,
    OnlineTurningPointDetector,
    compute_metric_series,
    normalize_losses,
    save_loss_snapshots,
    separation_metrics,
)

EPOCH_COLUMNS = (
    "epoch", "lr", "train_loss", "train_acc", "test_acc",
    "m1", "m2", "m3", "correction_acc",
    "clean_correct_frac", "clean_incorrect_frac",
    "mislabeled_correct_frac", "mislabeled_memorized_frac", "mislabeled_other_frac",
)
# plus_epochs.csv: the retrain has no separation metrics or corrections
PLUS_EPOCH_COLUMNS = EPOCH_COLUMNS[:5]
LEDGER_METRICS = (
    "correction_acc", "clean_correct_frac", "clean_incorrect_frac",
    "mislabeled_correct_frac", "mislabeled_memorized_frac", "mislabeled_other_frac",
)
# what summary.json records of each trial's warm phase: the detector's raw
# turning point, whether it fired, and whether the activation epoch was
# clamped to 1; all null for a fixed activation epoch or no correction
WARM_FIELDS = ("turning_point_estimate", "detector_fired", "activation_clamped")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def _round6(value):
    """Clamp floats to 6 significant digits for JSON emission."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _write_json(data, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_round6(data), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_clean_data(cfg: ExperimentConfig):
    """Returns (train_features, train_labels, test_features, test_labels, C)."""
    ds = cfg.dataset
    if ds.kind == "blobs":
        spec = BlobSpec(n=ds.n, dim=ds.dim, num_classes=ds.num_classes,
                        cluster_std=ds.cluster_std, seed=ds.seed, test_n=ds.test_n)
        train_x, train_y = generate_blobs(spec, split="train")
        test_x, test_y = generate_blobs(spec, split="test")
        return train_x, train_y, test_x, test_y, ds.num_classes
    return cfg.dataset_files or load_dataset_files(ds)


def _build_transition(cfg: ExperimentConfig, num_classes: int) -> TransitionMatrix:
    noise = cfg.noise
    if noise.kind == "none":
        return build_symmetric_q(num_classes, 0.0)
    if noise.kind == "symmetric":
        return build_symmetric_q(num_classes, noise.eta,
                                 exclude_true_class=noise.exclude_true_class)
    mapping = load_mapping(noise.mapping_file)
    return build_asymmetric_q(num_classes, noise.eta, mapping)


@dataclass
class _TrialResult:
    seed: int
    activation_epoch: int | None
    last_test_acc: float
    last_correction_acc: float
    last_memorized_frac: float
    warm: dict
    plus_last_test_acc: float | None = None


class _Trajectory:
    """One trial's per-epoch main-run record, in an anonymous shared mapping.

    ``losses[e]`` holds epoch e's per-sample losses against the noisy
    labels; ``predicted[e]`` and ``target[e]`` the argmax of the
    training-set prediction and of the targets; ``noisy`` the injected
    labels. Labels take the smallest unsigned type that holds every class.
    Allocated before the workers fork, so a train job and a diagnose job
    see the same pages whichever workers run them.
    """

    def __init__(self, epochs: int, n: int, num_classes: int):
        # imported only here, so that commands that train nothing do not
        # load it
        import mmap

        label = np.min_scalar_type(num_classes - 1)
        floats = epochs * n * 8
        # the arrays keep the mapping alive
        buffer = mmap.mmap(-1, floats + (2 * epochs + 1) * n * label.itemsize)
        self.losses = np.frombuffer(buffer, np.float64, epochs * n).reshape(epochs, n)
        labels = np.frombuffer(buffer, label, (2 * epochs + 1) * n, floats).reshape(-1, n)
        self.predicted = labels[:epochs]
        self.target = labels[epochs:-1]
        self.noisy = labels[-1]


@dataclass
class _Run:
    """What every job of a run reads: the config, the data (train_x,
    train_y, test_x, test_y, num_classes) and noise model built once for
    all trials, and each job's (alpha, seed, trial_dir) and trajectory."""

    cfg: ExperimentConfig
    data: tuple
    transition: TransitionMatrix
    jobs: list
    trajectories: list


@dataclass
class _Trained:
    """A train job's result: the ``WARM_FIELDS`` of its warm phase, rows of
    (epoch, lr, train_loss, train_acc, test_acc) for the main run and the
    retrain, and the final targets."""

    activation_epoch: int | None
    warm: dict
    rows: list
    state: EnsembleState | None
    plus_rows: list | None


def _build_model(cfg: ExperimentConfig, view, seed: int, stream_name: str):
    """A fresh model for ``view``'s features and classes, initialized from
    ``stream(seed, stream_name)``, and its optimizer from ``cfg.optimizer``;
    returns (model, opt)."""
    dims = [view.features.shape[1], *cfg.model.hidden_dims, view.num_classes]
    model = init_mlp(dims, stream(seed, stream_name), activation=cfg.model.activation)
    opt = make_optimizer(model, base_lr=cfg.optimizer.lr, momentum=cfg.optimizer.momentum,
                         weight_decay=cfg.optimizer.weight_decay,
                         milestones=cfg.optimizer.milestones,
                         decay_factor=cfg.optimizer.decay_factor)
    return model, opt


def _write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line of each row dict's values."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[col]) for col in columns) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _estimate_activation_epoch(view, cfg: ExperimentConfig, seed: int, detector=None) -> int:
    """CE warm phase with the online separation detector: ``detector`` if
    given, which holds the raw estimate afterwards, and whether it fired.

    The warm model uses the same init and shuffle streams as the main run,
    so the main run's pre-activation epochs replay this phase exactly.
    """
    method = cfg.method
    detector = detector or OnlineTurningPointDetector(patience=method.detector_patience)
    noisy_onehot = one_hot(view.noisy_labels, view.num_classes)
    metric = METRIC_NAMES.index(method.metric_choice)

    def hook(event):
        per_sample, _ = soft_ce_loss(noisy_onehot, event.snapshot.probs)
        return detector.observe(event.epoch,
                                separation_metrics(normalize_losses(per_sample))[metric])

    model, opt = _build_model(cfg, view, seed, "init")
    warm_cfg = SelcRunConfig(total_epochs=cfg.optimizer.epochs)
    run_training(view, model, opt, warm_cfg, METHOD_CE,
                 cfg.optimizer.batch_size, seed, epoch_hook=hook)
    # fired or not, the running maximum is the earliest argmax so far
    return default_activation_epoch(detector.estimate)


def _epoch_row(event, model, test_x, test_y) -> dict:
    """An epoch's training record and the model's test accuracy."""
    test_probs = predict_proba(model, test_x)
    return {"epoch": event.epoch, "lr": event.lr, "train_loss": event.train_loss,
            "train_acc": event.train_acc,
            "test_acc": float(np.mean(test_probs.argmax(axis=1) == test_y))}


def _train_job(run: _Run, k: int) -> _Trained:
    """Train job ``k``: the warm phase, the main run, which records its
    trajectory, and, for ``selc_plus``, the retrain."""
    cfg, method = run.cfg, run.cfg.method
    alpha, seed, trial_dir = run.jobs[k]
    trajectory = run.trajectories[k]
    os.makedirs(trial_dir, exist_ok=True)
    train_x, train_y, test_x, test_y, num_classes = run.data
    view = TrainView(features=train_x, noisy_labels=inject_noise(train_y, run.transition, seed),
                     ids=np.arange(train_x.shape[0]), num_classes=num_classes)
    trajectory.noisy[:] = view.noisy_labels

    activation_epoch = None
    warm = dict.fromkeys(WARM_FIELDS)
    if method.name in ("selc", "option1", "selc_plus"):
        if method.activation_epoch == AUTO:
            detector = OnlineTurningPointDetector(patience=method.detector_patience)
            activation_epoch = _estimate_activation_epoch(view, cfg, seed, detector)
            warm = dict(zip(WARM_FIELDS, (
                detector.estimate, detector.fired,
                activation_epoch != detector.estimate - TURNING_POINT_OFFSET)))
        else:
            activation_epoch = int(method.activation_epoch)

    run_cfg = SelcRunConfig(
        total_epochs=cfg.optimizer.epochs,
        activation_epoch=activation_epoch if activation_epoch is not None else 0,
        alpha=alpha,
        bootstrap_beta=method.beta,
        mixup_beta_param=method.mixup_beta_param,
    )
    model, opt = _build_model(cfg, view, seed, "init")
    noisy_onehot = one_hot(view.noisy_labels, num_classes)
    rows = []

    def record(event):
        epoch, probs = event.epoch, event.snapshot.probs
        trajectory.losses[epoch] = soft_ce_loss(noisy_onehot, probs)[0]
        trajectory.predicted[epoch] = probs.argmax(axis=1)
        trajectory.target[epoch] = (view.noisy_labels if event.state is None
                                    else event.state.targets.argmax(axis=1))
        rows.append(_epoch_row(event, model, test_x, test_y))

    train_method = "selc" if method.name == "selc_plus" else method.name
    _, state, _ = run_training(view, model, opt, run_cfg, train_method,
                               cfg.optimizer.batch_size, seed, epoch_hook=record)

    plus_rows = None
    if method.name == "selc_plus":
        plus_cfg = replace(run_cfg, total_epochs=method.plus_epochs or cfg.optimizer.epochs)
        plus_model, plus_opt = _build_model(cfg, view, seed, "plus_init")
        plus_rows = []

        def record_plus(event):
            plus_rows.append(_epoch_row(event, plus_model, test_x, test_y))

        run_selc_plus(view.features, state.targets, plus_model, plus_opt, plus_cfg,
                      cfg.optimizer.batch_size, seed, epoch_hook=record_plus)
    return _Trained(activation_epoch, warm, rows, state, plus_rows)


def _diagnose_job(run: _Run, k: int, trained: _Trained) -> _TrialResult:
    """Diagnose job ``k``: the per-epoch separation metrics, correction
    accuracy and memorization stats, computed from the trajectory, and
    every artifact of the trial."""
    _, seed, trial_dir = run.jobs[k]
    trajectory = run.trajectories[k]
    true_labels, num_classes = run.data[1], run.data[4]
    rows = trained.rows
    series = compute_metric_series(np.arange(len(trajectory.losses)), trajectory.losses)
    for row, m1, m2, m3, predicted, target in zip(rows, series.m1, series.m2, series.m3,
                                                  trajectory.predicted, trajectory.target):
        row["m1"], row["m2"], row["m3"] = m1, m2, m3
        row["correction_acc"] = float(np.mean(target == true_labels))
        mem = memorization_stats(predicted, trajectory.noisy, true_labels, row["epoch"])
        for name in LEDGER_METRICS[1:]:  # the memorization fractions
            row[name] = getattr(mem, name)

    _write_csv(os.path.join(trial_dir, "epochs.csv"), EPOCH_COLUMNS, rows)
    save_loss_snapshots(trajectory.losses, os.path.join(trial_dir, "losses.csv"))
    ledger_path = os.path.join(trial_dir, "metrics.csv")
    if os.path.exists(ledger_path):
        os.remove(ledger_path)
    append_metrics_ledger(ledger_path, [(row["epoch"], name, row[name])
                                        for row in rows for name in LEDGER_METRICS])
    last = rows[-1]
    final_targets = (trained.state.targets if trained.state is not None
                     else one_hot(trajectory.noisy, num_classes))
    confusion = confusion_of_corrections(final_targets, true_labels)
    write_confusion_csv(confusion, os.path.join(trial_dir, f"confusion_epoch_{last['epoch']}.csv"))
    if trained.state is not None:
        save_state(trained.state, os.path.join(trial_dir, "targets_final.txt"))

    plus_acc = None
    if trained.plus_rows is not None:
        plus_acc = trained.plus_rows[-1]["test_acc"]
        _write_csv(os.path.join(trial_dir, "plus_epochs.csv"), PLUS_EPOCH_COLUMNS,
                   trained.plus_rows)

    return _TrialResult(
        seed=seed,
        activation_epoch=trained.activation_epoch,
        last_test_acc=last["test_acc"],
        last_correction_acc=last["correction_acc"],
        last_memorized_frac=last["mislabeled_memorized_frac"],
        warm=trained.warm,
        plus_last_test_acc=plus_acc,
    )


def _mean_stddev(values):
    values = [float(v) for v in values]
    if not values:
        return None, None
    mean = float(np.mean(values))
    stddev = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, stddev


def _aggregate(results, key):
    per_trial = {str(r.seed): getattr(r, key) for r in results}
    if any(v is None for v in per_trial.values()):
        return None
    mean, stddev = _mean_stddev(per_trial.values())
    return {"per_trial": per_trial, "mean": mean, "stddev": stddev}


def _outcome(job, *args):
    """Call a job; a failure comes back as its message, so it stays with
    its trial whether the job ran in a worker or in-process."""
    try:
        return job(*args)
    except (ValueError, RuntimeError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _run_trial(run: _Run, k: int):
    """Trial ``k`` in this process: its train job, then its diagnose job."""
    trained = _outcome(_train_job, run, k)
    if isinstance(trained, str):
        return trained
    return _outcome(_diagnose_job, run, k, trained)


# the run a forked worker serves, set by its pool's initializer; the
# fork hands the run over without pickling its data or shared mappings
_WORKER_RUN = None


def _serve(run: _Run) -> None:
    global _WORKER_RUN
    _WORKER_RUN = run


def _train_in_worker(k: int):
    return _outcome(_train_job, _WORKER_RUN, k)


def _diagnose_in_worker(k: int, trained: _Trained):
    return _outcome(_diagnose_job, _WORKER_RUN, k, trained)


def _run_jobs(cfg: ExperimentConfig, jobs) -> list:
    """Run the ``(alpha, seed, trial_dir)`` trials; outcomes in job order.

    Jobs go to as many forked worker processes as ``selc_lab.fork_workers``
    allows for the trials: one per usable core, when there is more than one
    trial and a fork is safe. Every train job is queued first; a trial's
    diagnose job is queued when its train job completes, and none is
    queued for a trial whose training failed. Otherwise the trials run one
    after another in this process.
    """
    if not jobs:
        return []
    workers = fork_workers(len(jobs))
    data = _build_clean_data(cfg)
    train_x, num_classes = data[0], data[4]

    def trajectory():
        return _Trajectory(cfg.optimizer.epochs, train_x.shape[0], num_classes)

    # trials in this process run one at a time and can share one trajectory
    trajectories = ([trajectory() for _ in jobs] if workers > 1
                    else [trajectory()] * len(jobs))
    run = _Run(cfg, data, _build_transition(cfg, num_classes), jobs, trajectories)
    if workers < 2:
        return [_run_trial(run, k) for k in range(len(jobs))]
    # imported only here: at module level they would lengthen the start-up
    # of every selc-lab command
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    outcomes = [None] * len(jobs)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_serve, initargs=(run,)) as pool:
        pending = {pool.submit(_train_in_worker, k): k for k in range(len(jobs))}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    k = pending.pop(future)
                    outcome = future.result()
                    if isinstance(outcome, _Trained):
                        pending[pool.submit(_diagnose_in_worker, k, outcome)] = k
                    else:
                        outcomes[k] = outcome
        finally:
            # a job that raised ends the run; what has not started is dropped
            for future in pending:
                future.cancel()
    return outcomes


def _summarize_alpha(cfg: ExperimentConfig, alpha: float, out_dir: str, outcomes) -> dict:
    """Write and return one alpha's ``summary.json`` from its trial outcomes,
    given in ``cfg.trials`` order."""
    ordered = []
    failures = {}
    for seed, outcome in zip(cfg.trials, outcomes):
        if isinstance(outcome, str):
            failures[str(seed)] = outcome
        else:
            ordered.append(outcome)

    summary = {
        "empty": len(ordered) == 0,
        "method": cfg.method.name,
        "alpha": alpha,
        "trials": list(cfg.trials),
        "completed": [r.seed for r in ordered],
        "failed": failures,
        "activation_epochs": {str(r.seed): r.activation_epoch for r in ordered},
        **{key: {str(r.seed): r.warm[key] for r in ordered} for key in WARM_FIELDS},
        "last_epoch_test_acc": _aggregate(ordered, "last_test_acc") if ordered else None,
        "last_epoch_correction_acc": _aggregate(ordered, "last_correction_acc") if ordered else None,
        "last_epoch_memorized_frac": _aggregate(ordered, "last_memorized_frac") if ordered else None,
    }
    if cfg.method.name == "selc_plus" and ordered:
        summary["plus_last_epoch_test_acc"] = _aggregate(ordered, "plus_last_test_acc")
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials (and the alpha sweep, if configured); returns the
    root summary dict that is also written to ``summary.json``.

    Every (alpha, seed) trial of the run is one trial for ``_run_jobs``.
    """
    out_dir = os.environ.get("SELC_OUT_DIR") or cfg.out_dir
    alphas = alpha_values(cfg.method)
    uses_alpha = cfg.method.name in ("selc", "option1", "selc_plus")
    sweep = uses_alpha and len(alphas) > 1
    if not sweep:
        alphas = alphas[:1]
    alpha_dirs = [os.path.join(out_dir, f"alpha_{a:g}") if sweep else out_dir for a in alphas]
    for alpha_dir in alpha_dirs:
        os.makedirs(alpha_dir, exist_ok=True)
    jobs = [(alpha, seed, os.path.join(alpha_dir, f"trial_{seed}"))
            for alpha, alpha_dir in zip(alphas, alpha_dirs) for seed in cfg.trials]
    outcomes = _run_jobs(cfg, jobs)
    per_alpha = len(cfg.trials)
    summaries = [_summarize_alpha(cfg, alpha, alpha_dir, outcomes[k * per_alpha:(k + 1) * per_alpha])
                 for k, (alpha, alpha_dir) in enumerate(zip(alphas, alpha_dirs))]
    if not sweep:
        return summaries[0]
    runs = {f"{alpha:g}": summary for alpha, summary in zip(alphas, summaries)}
    means = [r["last_epoch_test_acc"]["mean"] for r in runs.values()
             if r["last_epoch_test_acc"] is not None]
    summary = {
        "alpha_sweep": [f"{a:g}" for a in alphas],
        "runs": runs,
        "test_acc_spread": (max(means) - min(means)) if means else None,
    }
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary
