"""Run orchestration: noise injection, training per method, per-epoch
diagnostics, and deterministic result emission. The dataset and the noise
model come built from config load (``cfg.data``, ``cfg.transition``).

Outputs per trial directory: ``epochs.csv`` (one row per epoch),
``metrics.csv`` (long-form diagnostics ledger), ``losses.csv`` (per-sample
losses per epoch), ``confusion_epoch_<k>.csv`` for the last epoch, and a
targets checkpoint for the correcting methods. One ``summary.json`` sits at
the run root. Reruns with the same config are byte-identical: no
timestamps, fixed column orders, 6 significant digits, LF endings.

Every trial is two jobs, and a ``selc_plus`` trial three. The train job
runs the trial's one main run, whose first epochs are the warm phase of an
auto activation, rewound to the activation epoch. The main run's epoch
hook writes the epoch's per-sample losses into the trial's shared loss
matrix and its row of every diagnostic but the separation metrics. Once
it is done, two jobs can start that need nothing of each other: the
diagnose job fits the separation metrics to the loss matrix and writes
every artifact of the main run, and for ``selc_plus`` the retrain job
trains a fresh model with mixup on the final targets and writes
``plus_epochs.csv``. A trial's outcome is put together when both have
returned; a failed retrain is the trial's failure, but the diagnosis
still writes its artifacts. Diagnostics never feed back into training:
correction reads only the previous epoch's predictions.

A run with more than one trial sends its jobs to forked worker processes,
one per usable core, when ``selc_lab.fork_workers`` allows: every train
job first, and a trial's diagnose and retrain jobs as soon as its train
job completes, so they run beside the trials still training. The data
and each trial's loss matrix, an anonymous shared mapping, exist before
the workers fork; only the epoch rows, the final targets and their
confusion counts pass through the pool's pipe. A run of one trial runs
its train job in this process; there, a ``selc_plus`` trial's retrain
runs in this process while a child forked through
``selc_lab.run_shares`` diagnoses, when ``fork_workers`` allows. Otherwise
the jobs run one after the other in this process, with the same outputs;
there the diagnose job's mixture fits fan out over the cores
(``turning.compute_metric_series``), which they never do inside a pool
worker or a forked child. The data of every dataset kind is built at
config load, before any worker exists.

Environment: ``SELC_OUT_DIR`` overrides the config's output directory.
"""

import json
import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import fork_workers, run_shares, shared
from .config import AUTO, ExperimentConfig, alpha_values
from .data import TrainView
from .diagnostics import (
    append_metrics_ledger,
    confusion_of_corrections,
    correction_accuracy,
    memorization_stats,
    write_confusion_csv,
)
from .mlp import init_mlp, make_optimizer, one_hot, predict_proba, soft_ce_loss
from .noise import inject_noise
from .rng import stream
from .targets import EnsembleState, save_state
from .training import (
    METHODS,
    TURNING_POINT_OFFSET,
    SelcRunConfig,
    default_activation_epoch,
    run_selc_plus,
    run_training,
)
from .turning import (
    METRIC_NAMES,
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
# what summary.json records of each trial's warm phase: the raw turning
# point (the earliest argmax of the warm epochs' metric), whether the
# patience rule fired, and whether the activation epoch was clamped to 1;
# all null for a fixed activation epoch or no correction
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


@dataclass
class _TrialResult:
    """A completed trial as ``summary.json`` records it: the ``WARM_FIELDS``
    of its warm phase and the last epoch rows of its main run and, for
    ``selc_plus``, of its retrain (else None)."""

    seed: int
    activation_epoch: int | None
    warm: dict
    last: dict
    plus_last: dict | None


@dataclass
class _Run:
    """What every job of a run reads: the config, with the data and noise
    model built at its load, and each job's (alpha, seed, trial_dir) and
    shared loss matrix."""

    cfg: ExperimentConfig
    jobs: list
    losses: list


@dataclass
class _Trained:
    """A train job's result: the ``WARM_FIELDS`` of its warm phase, the main
    run's epoch rows, all but the separation metrics, the final targets
    and their confusion counts against the true labels."""

    activation_epoch: int | None
    warm: dict
    rows: list
    state: EnsembleState | None
    confusion: np.ndarray


def _build_model(cfg: ExperimentConfig, seed: int, stream_name: str):
    """A fresh model for the training features and classes of ``cfg.data``,
    initialized from ``stream(seed, stream_name)``, and its optimizer from
    ``cfg.optimizer``; returns (model, opt)."""
    train_x, *_, num_classes = cfg.data
    dims = [train_x.shape[1], *cfg.model.hidden_dims, num_classes]
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


def _epoch_row(event, model, test_x, test_y) -> dict:
    """An epoch's training record and the model's test accuracy."""
    test_acc = float(np.mean(predict_proba(model, test_x).argmax(axis=1) == test_y))
    return {"epoch": event.epoch, "lr": event.lr, "train_loss": event.train_loss,
            "train_acc": event.train_acc, "test_acc": test_acc}


def _train_job(run: _Run, k: int) -> _Trained:
    """Train job ``k``: the trial's main run. Its epoch hook writes the
    epoch's losses into the shared matrix and its row, all but the
    separation metrics. An ``auto`` activation's warm phase is the run's
    start, which estimates the turning point as the earliest argmax of its
    epochs' separation metric. Once ``detector_patience`` epochs pass
    without a new maximum, or the run ends, the run resumes at the
    activation epoch, rewound."""
    cfg, method = run.cfg, run.cfg.method
    alpha, seed, trial_dir = run.jobs[k]
    losses = run.losses[k]
    os.makedirs(trial_dir, exist_ok=True)
    train_x, train_y, test_x, test_y, num_classes = cfg.data
    view = TrainView(features=train_x, noisy_labels=inject_noise(train_y, cfg.transition, seed),
                     num_classes=num_classes)

    correcting = METHODS[method.name] is not None
    auto = correcting and method.activation_epoch == AUTO
    # the warm phase trains every epoch that the patience rule does not cut
    activation_epoch = ((cfg.optimizer.epochs if auto else int(method.activation_epoch))
                        if correcting else None)
    run_cfg = SelcRunConfig(total_epochs=cfg.optimizer.epochs, activation_epoch=activation_epoch or 0,
                            alpha=alpha, bootstrap_beta=method.beta,
                            mixup_beta_param=method.mixup_beta_param)
    model, opt = _build_model(cfg, seed, "init")
    noisy_onehot = one_hot(view.noisy_labels, num_classes)
    rows = []

    def record(event):
        losses[event.epoch] = soft_ce_loss(noisy_onehot, event.probs)[0]
        row = _epoch_row(event, model, test_x, test_y)
        row["correction_acc"] = correction_accuracy(
            view.noisy_labels if event.targets is None else event.targets, train_y)
        row.update(vars(memorization_stats(event.probs, view.noisy_labels, train_y)))
        rows.append(row)

    warm = dict.fromkeys(WARM_FIELDS)
    if auto:
        metric = METRIC_NAMES.index(method.metric_choice)
        values = []  # the metric of each warm epoch
        # (params, velocity) at the end of each of the last epochs; a new
        # maximum at epoch t pins the oldest, the end of epoch max(t - 11, 0),
        # where activation epoch max(t - 10, 1) starts
        ends = deque(maxlen=TURNING_POINT_OFFSET + 2)
        pinned = None

        def fired():
            # detector_patience epochs have passed since the earliest argmax
            return len(values) - 1 - int(np.argmax(values)) >= method.detector_patience

        def warm_hook(event):
            nonlocal pinned
            record(event)
            ends.append((opt.params.copy(), opt.velocity.copy()))
            values.append(separation_metrics(normalize_losses(losses[event.epoch]))[metric])
            if np.argmax(values) == event.epoch:
                pinned = ends[0]
            return fired()

        run_training(view, model, opt, run_cfg, method.name,
                     cfg.optimizer.batch_size, seed, epoch_hook=warm_hook)
        estimate = int(np.argmax(values))
        activation_epoch = default_activation_epoch(estimate)
        opt.params[:], opt.velocity[:] = pinned
        del rows[activation_epoch:]
        run_cfg = replace(run_cfg, activation_epoch=activation_epoch)
        warm = dict(zip(WARM_FIELDS, (estimate, fired(),
                                      activation_epoch != estimate - TURNING_POINT_OFFSET)))

    _, state, _ = run_training(view, model, opt, run_cfg, method.name, cfg.optimizer.batch_size,
                               seed, epoch_hook=record, first_epoch=activation_epoch if auto else 0)
    confusion = confusion_of_corrections(noisy_onehot if state is None else state.targets, train_y)
    return _Trained(activation_epoch, warm, rows, state, confusion)


def _retrain_job(run: _Run, k: int, trained: _Trained) -> list:
    """Retrain job ``k`` of a ``selc_plus`` trial: a fresh model trained
    with mixup on the main run's final targets, for ``plus_epochs``
    epochs. Writes ``plus_epochs.csv`` and returns its rows."""
    cfg, method = run.cfg, run.cfg.method
    _, seed, trial_dir = run.jobs[k]
    train_x, _, test_x, test_y, _ = cfg.data
    plus_cfg = SelcRunConfig(total_epochs=method.plus_epochs or cfg.optimizer.epochs,
                             mixup_beta_param=method.mixup_beta_param)
    model, opt = _build_model(cfg, seed, "plus_init")
    rows = []

    def record(event):
        rows.append(_epoch_row(event, model, test_x, test_y))

    run_selc_plus(train_x, trained.state.targets, model, opt, plus_cfg,
                  cfg.optimizer.batch_size, seed, epoch_hook=record)
    _write_csv(os.path.join(trial_dir, "plus_epochs.csv"), PLUS_EPOCH_COLUMNS, rows)
    return rows


def _diagnose_job(run: _Run, k: int, trained: _Trained) -> None:
    """Diagnose job ``k``: the per-epoch separation metrics, fitted to the
    shared loss matrix, and every artifact of the main run."""
    trial_dir = run.jobs[k][2]
    losses, rows = run.losses[k], trained.rows
    series = compute_metric_series(np.arange(len(losses)), losses)
    for row, *metrics in zip(rows, series.m1, series.m2, series.m3):
        row.update(zip(METRIC_NAMES, metrics))

    _write_csv(os.path.join(trial_dir, "epochs.csv"), EPOCH_COLUMNS, rows)
    save_loss_snapshots(losses, os.path.join(trial_dir, "losses.csv"))
    append_metrics_ledger(os.path.join(trial_dir, "metrics.csv"),
                          [(row["epoch"], name, row[name]) for row in rows for name in LEDGER_METRICS])
    write_confusion_csv(trained.confusion,
                        os.path.join(trial_dir, f"confusion_epoch_{rows[-1]['epoch']}.csv"))
    if trained.state is not None:
        save_state(trained.state, os.path.join(trial_dir, "targets_final.txt"))


def _aggregate(results, column, plus=False):
    """The ``column`` value of each trial's last main-run row, or with
    ``plus`` its last retrain row, with their mean and sample stddev; None
    when no trial completed."""
    if not results:
        return None
    per_trial = {str(r.seed): (r.plus_last if plus else r.last)[column] for r in results}
    values = list(per_trial.values())
    stddev = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"per_trial": per_trial, "mean": float(np.mean(values)), "stddev": stddev}


def _outcome(job, *args):
    """Call a job; a failure comes back as its message, so it stays with
    its trial whether the job ran in a worker or in-process."""
    try:
        return job(*args)
    except (ValueError, RuntimeError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _trial_outcome(run: _Run, k: int, trained, retrained, diagnosed):
    """Trial ``k``'s outcome from those of its jobs: the first failure
    message of its train, retrain and diagnose jobs, in that order, or its
    ``_TrialResult``. ``retrained`` is None for a trial with no retrain."""
    for outcome in (trained, retrained, diagnosed):
        if isinstance(outcome, str):
            return outcome
    return _TrialResult(run.jobs[k][1], trained.activation_epoch, trained.warm, trained.rows[-1],
                        None if retrained is None else retrained[-1])


def _run_trial(run: _Run, k: int):
    """Trial ``k`` in this process: its train job, then its diagnose job
    and, for ``selc_plus``, its retrain job. When ``fork_workers`` allows,
    the retrain runs here while a child forked through ``run_shares``
    diagnoses; if the child does not finish, the diagnosis runs again here
    for its error text."""
    trained = _outcome(_train_job, run, k)
    diagnosed = retrained = None
    if isinstance(trained, _Trained):
        plus = run.cfg.method.name == "selc_plus"
        forked = False
        if plus and fork_workers(2) > 1:
            def share(j):
                nonlocal retrained
                if j == 0:
                    retrained = _outcome(_retrain_job, run, k, trained)
                else:
                    _diagnose_job(run, k, trained)

            forked = run_shares(2, share)
        # what a share did not finish, this process does
        if not forked:
            diagnosed = _outcome(_diagnose_job, run, k, trained)
        if plus and retrained is None:
            retrained = _outcome(_retrain_job, run, k, trained)
    return _trial_outcome(run, k, trained, retrained, diagnosed)


# the run a forked worker serves, set by its pool's initializer; the
# fork hands the run over without pickling its data or shared mappings
_WORKER_RUN = None


def _serve(run: _Run) -> None:
    global _WORKER_RUN
    _WORKER_RUN = run


def _in_worker(job: str, k: int, *args):
    # the job by its name here, so that a worker calls what this module
    # holds under that name
    return _outcome(globals()[job], _WORKER_RUN, k, *args)


def _run_jobs(cfg: ExperimentConfig, jobs) -> list:
    """Run the ``(alpha, seed, trial_dir)`` trials; outcomes in job order.

    Jobs go to as many forked worker processes as ``selc_lab.fork_workers``
    allows for the trials: one per usable core, when there is more than one
    trial and a fork is safe. Every train job is queued first. When a
    trial's train job completes, its retrain job, for ``selc_plus``, and
    its diagnose job are queued; neither is for a trial whose training
    failed. A trial's outcome is put together once all its jobs have
    returned. Otherwise the trials run one after another through
    ``_run_trial``.
    """
    if not jobs:
        return []
    workers = fork_workers(len(jobs))
    shape = (cfg.optimizer.epochs, cfg.data[0].shape[0])
    # made before the workers fork, so that a trial's two jobs see the same
    # pages; trials in this process run one at a time and share one matrix
    losses = ([shared(shape, np.float64) for _ in jobs] if workers > 1
              else [shared(shape, np.float64)] * len(jobs))
    run = _Run(cfg, jobs, losses)
    if workers < 2:
        return [_run_trial(run, k) for k in range(len(jobs))]
    # imported only here: at module level they would lengthen the start-up
    # of every selc-lab command
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # each job's outcome, by job name and trial
    outcomes = {job: [None] * len(jobs) for job in ("_train_job", "_retrain_job", "_diagnose_job")}
    after_train = (("_retrain_job", "_diagnose_job") if cfg.method.name == "selc_plus"
                   else ("_diagnose_job",))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_serve, initargs=(run,)) as pool:
        pending = {pool.submit(_in_worker, "_train_job", k): ("_train_job", k)
                   for k in range(len(jobs))}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    job, k = pending.pop(future)
                    outcome = outcomes[job][k] = future.result()
                    if isinstance(outcome, _Trained):
                        for then in after_train:
                            pending[pool.submit(_in_worker, then, k, outcome)] = (then, k)
        finally:
            # a job that raised ends the run; what has not started is dropped
            for future in pending:
                future.cancel()
    return [_trial_outcome(run, k, *trial)
            for k, trial in enumerate(zip(*outcomes.values()))]


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
        "last_epoch_test_acc": _aggregate(ordered, "test_acc"),
        "last_epoch_correction_acc": _aggregate(ordered, "correction_acc"),
        "last_epoch_memorized_frac": _aggregate(ordered, "mislabeled_memorized_frac"),
    }
    if cfg.method.name == "selc_plus":
        summary["plus_last_epoch_test_acc"] = _aggregate(ordered, "test_acc", plus=True)
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials (and the alpha sweep, if configured); returns the
    root summary dict that is also written to ``summary.json``.

    Every (alpha, seed) trial of the run is one trial for ``_run_jobs``.
    """
    out_dir = os.environ.get("SELC_OUT_DIR") or cfg.out_dir
    alphas = alpha_values(cfg.method)
    sweep = METHODS[cfg.method.name] is not None and len(alphas) > 1
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
