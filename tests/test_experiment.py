import ast
import csv
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import selc_lab
import selc_lab.config as config
import selc_lab.data as data
import selc_lab.experiment as experiment
import selc_lab.noise as noise
from selc_lab.config import config_from_dict
from selc_lab.data import BlobSpec, TrainView, generate_blobs, save_csv_dataset
from selc_lab.diagnostics import correction_accuracy, memorization_stats
from selc_lab.errors import TrainingDivergenceError
from selc_lab.experiment import (
    EPOCH_COLUMNS,
    _aggregate,
    run_experiment,
)
from selc_lab.mlp import one_hot, predict_proba, soft_ce_loss
from selc_lab.noise import build_symmetric_q, inject_noise
from selc_lab.training import METHODS, TURNING_POINT_OFFSET, SelcRunConfig, run_training
from selc_lab.turning import (
    fit_gmm2,
    load_loss_snapshots,
    metric_m1,
    normalize_losses,
    separation_metrics,
)


def tiny_config_data(**overrides):
    data = {
        "dataset": {"kind": "blobs", "n": 60, "dim": 3, "num_classes": 3,
                    "cluster_std": 0.3, "seed": 0},
        "noise": {"kind": "symmetric", "eta": 0.4},
        "model": {"hidden_dims": [8], "activation": "tanh"},
        "optimizer": {"lr": 0.05, "epochs": 3, "batch_size": 16},
        "method": {"name": "selc", "alpha": 0.9, "activation_epoch": 1},
        "trials": [1, 2],
        "out_dir": "run",
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return data


def tiny_config(tmp_path, **overrides):
    return config_from_dict(tiny_config_data(**overrides), base_dir=str(tmp_path))


def test_trial_artifacts_and_summary(tmp_path):
    cfg = tiny_config(tmp_path)
    summary = run_experiment(cfg)
    out = cfg.out_dir
    assert summary["empty"] is False
    assert summary["method"] == "selc"
    assert summary["completed"] == [1, 2]
    assert summary["failed"] == {}
    assert summary["activation_epochs"] == {"1": 1, "2": 1}
    for key in experiment.WARM_FIELDS:  # no warm phase at a fixed activation epoch
        assert summary[key] == {"1": None, "2": None}
    for key in ("last_epoch_test_acc", "last_epoch_correction_acc", "last_epoch_memorized_frac"):
        agg = summary[key]
        assert set(agg) == {"per_trial", "mean", "stddev"}
        assert set(agg["per_trial"]) == {"1", "2"}

    for seed in (1, 2):
        trial = os.path.join(out, f"trial_{seed}")
        lines = Path(trial, "epochs.csv").read_text().splitlines()
        assert lines[0] == ",".join(EPOCH_COLUMNS)
        assert len(lines) == 4  # header + 3 epochs
        epochs, losses = load_loss_snapshots(os.path.join(trial, "losses.csv"))
        assert list(epochs) == [0, 1, 2]
        assert losses.shape == (3, 60)
        ledger = Path(trial, "metrics.csv").read_text().splitlines()
        assert ledger[0] == "epoch,metric_name,value"
        assert len(ledger) == 1 + 3 * 6  # epochs x diagnostics
        confusion = Path(trial, "confusion_epoch_2.csv").read_text().splitlines()
        total = sum(int(v) for line in confusion for v in line.split(","))
        assert total == 60
        checkpoint = os.path.join(trial, "targets_final.txt")
        with open(checkpoint) as fh:
            assert fh.readline() == "0.9 2 option2_selc\n"  # activation at 1 of 3 epochs
        rows = np.loadtxt(checkpoint, skiprows=1)
        assert rows.shape == (60, 4)
        assert np.array_equal(rows[:, 0], np.arange(60))
        assert np.allclose(rows[:, 1:].sum(axis=1), 1.0)

    on_disk = json.loads(Path(out, "summary.json").read_text())
    assert on_disk["completed"] == [1, 2]


@pytest.mark.parametrize("method", ["selc", "option1", "ce"])
def test_diagnosed_rows_match_an_inline_epoch_hook(tmp_path, method):
    """The diagnose job's epochs.csv and losses.csv hold what an epoch hook
    computing every diagnostic during training would have written."""
    cfg = tiny_config(tmp_path, method={"name": method, "activation_epoch": 1},
                      optimizer={"epochs": 4}, trials=[1])
    run_experiment(cfg)

    train_x, train_y, test_x, test_y, num_classes = cfg.data
    noisy = inject_noise(train_y, build_symmetric_q(num_classes, 0.4), 1)
    view = TrainView(train_x, noisy, num_classes)
    model, opt = experiment._build_model(cfg, 1, "init")
    noisy_onehot = one_hot(noisy, num_classes)
    rows, losses = [], []

    def observe(event):
        per_sample, _ = soft_ce_loss(noisy_onehot, event.probs)
        losses.append(per_sample)
        m1, m2, m3 = separation_metrics(normalize_losses(per_sample))
        test_acc = float(np.mean(predict_proba(model, test_x).argmax(axis=1) == test_y))
        targets = event.targets if event.targets is not None else noisy_onehot
        mem = memorization_stats(event.probs, noisy, train_y)
        rows.append([event.epoch, event.lr, event.train_loss, event.train_acc, test_acc,
                     m1, m2, m3, correction_accuracy(targets, train_y),
                     mem.clean_correct_frac, mem.clean_incorrect_frac,
                     mem.mislabeled_correct_frac, mem.mislabeled_memorized_frac,
                     mem.mislabeled_other_frac])

    run_training(view, model, opt, SelcRunConfig(total_epochs=4, activation_epoch=1),
                 method, 16, 1, epoch_hook=observe)
    trial = os.path.join(cfg.out_dir, "trial_1")
    expected = [",".join(EPOCH_COLUMNS)] + [",".join(experiment._fmt(v) for v in row)
                                            for row in rows]
    with open(os.path.join(trial, "epochs.csv")) as fh:
        assert fh.read().splitlines() == expected
    _, written = load_loss_snapshots(os.path.join(trial, "losses.csv"))
    assert np.array_equal(written, losses)


def test_ce_method_writes_no_targets(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "ce"})
    summary = run_experiment(cfg)
    assert summary["activation_epochs"] == {"1": None, "2": None}
    for key in experiment.WARM_FIELDS:
        assert summary[key] == {"1": None, "2": None}
    assert not os.path.exists(os.path.join(cfg.out_dir, "trial_1", "targets_final.txt"))


def test_auto_activation_resolves_to_int(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "selc", "activation_epoch": "auto"},
                      optimizer={"epochs": 4}, trials=[1])
    summary = run_experiment(cfg)
    resolved = summary["activation_epochs"]["1"]
    assert isinstance(resolved, int)
    assert 1 <= resolved < 4


def warm_config(tmp_path, epochs, patience):
    return tiny_config(tmp_path, dataset={"n": 120, "cluster_std": 0.6},
                       optimizer={"epochs": epochs},
                       method={"name": "selc", "activation_epoch": "auto",
                               "detector_patience": patience}, trials=[1])


def ce_m1_series(cfg):
    """m1 of each epoch of a CE run of trial 1's model, as the warm phase
    starts it: same data, noise, init and shuffle streams."""
    train_x, train_y, _, _, num_classes = cfg.data
    noisy = inject_noise(train_y, build_symmetric_q(num_classes, 0.4), 1)
    view = TrainView(train_x, noisy, num_classes)
    noisy_onehot = one_hot(noisy, num_classes)
    m1 = []

    def observe(event):
        per_sample, _ = soft_ce_loss(noisy_onehot, event.probs)
        m1.append(metric_m1(fit_gmm2(normalize_losses(per_sample))))

    model, opt = experiment._build_model(cfg, 1, "init")
    run_training(view, model, opt, SelcRunConfig(total_epochs=cfg.optimizer.epochs), "ce",
                 16, 1, epoch_hook=observe)
    return m1


def test_warm_phase_without_firing_estimates_the_m1_argmax(tmp_path):
    """A patience that outlasts the warm phase never fires; the estimate is
    then the earliest argmax of m1 over a CE run of the same model."""
    epochs = 12
    cfg = warm_config(tmp_path, epochs, epochs + 1)
    m1 = ce_m1_series(cfg)
    expected = int(np.argmax(m1))
    assert 0 < expected < epochs - 1  # a peak inside the run, not at either end

    summary = run_experiment(cfg)
    assert summary["detector_fired"] == {"1": False}
    with open(os.path.join(cfg.out_dir, "summary.json")) as fh:
        assert json.load(fh)["turning_point_estimate"] == {"1": expected}


@pytest.mark.parametrize("patience, fired", [(2, True), (13, False)])
def test_summary_records_the_warm_phase(tmp_path, patience, fired):
    """summary.json holds the raw turning point, whether the patience rule
    fired and whether the activation epoch was clamped: the outcome of the
    rule on the m1 series of a CE run of the same model. The rule stops the
    warm phase at the first epoch that lies ``patience`` epochs past the
    earliest argmax of the series so far."""
    cfg = warm_config(tmp_path, 12, patience)
    m1 = ce_m1_series(cfg)
    stops = [e for e in range(len(m1)) if e - int(np.argmax(m1[:e + 1])) >= patience]
    assert bool(stops) is fired
    estimate = int(np.argmax(m1[:stops[0] + 1] if stops else m1))
    summary = run_experiment(cfg)
    assert summary["turning_point_estimate"] == {"1": estimate}
    assert summary["detector_fired"] == {"1": fired}
    assert summary["activation_clamped"] == {"1": estimate - TURNING_POINT_OFFSET < 1}
    assert summary["activation_epochs"] == {"1": max(estimate - TURNING_POINT_OFFSET, 1)}


# a scripted warm-phase metric that peaks at epoch PEAK, late enough that the
# ring of end-of-epoch states is full when the peak pins its oldest entry
PEAK, PATIENCE, EPOCHS = 13, 2, 20


def scripted_warm_phase(tmp_path, monkeypatch, out_dir):
    """An ``auto`` trial whose warm phase reads the scripted metric
    -|e - PEAK| at epoch e, so it resolves to activation epoch PEAK - 10
    and the patience rule fires at epoch PEAK + PATIENCE; returns its
    config."""
    epochs = itertools.count()

    def scripted(losses):
        value = -abs(next(epochs) - PEAK)
        return value, value, value

    monkeypatch.setattr(experiment, "separation_metrics", scripted)
    return tiny_config(tmp_path, optimizer={"epochs": EPOCHS}, trials=[1], out_dir=out_dir,
                       method={"activation_epoch": "auto", "detector_patience": PATIENCE})


def test_auto_trial_matches_a_run_fixed_at_its_activation_epoch(tmp_path, monkeypatch):
    cfg = scripted_warm_phase(tmp_path, monkeypatch, "auto")
    summary = run_experiment(cfg)
    activation = PEAK - TURNING_POINT_OFFSET
    assert activation > 1
    assert summary["turning_point_estimate"] == {"1": PEAK}
    assert summary["detector_fired"] == {"1": True}
    assert summary["activation_epochs"] == {"1": activation}

    fixed = tiny_config(tmp_path, optimizer={"epochs": EPOCHS}, trials=[1], out_dir="fixed",
                        method={"activation_epoch": activation})
    run_experiment(fixed)
    auto_tree = read_tree(os.path.join(cfg.out_dir, "trial_1"))
    assert len(auto_tree) == 5
    assert read_tree(os.path.join(fixed.out_dir, "trial_1")) == auto_tree


def test_auto_trial_trains_its_warm_epochs_once(tmp_path, monkeypatch):
    """The warm phase trains epochs 0..f, f the epoch the patience rule
    fires at; the run resumes at activation epoch a, so the trial trains
    f + 1 + E - a epochs, not f + 1 + E."""
    cfg = scripted_warm_phase(tmp_path, monkeypatch, "run")
    trained = []
    real = experiment.run_training

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        trained.append(len(result[2]))
        return result

    monkeypatch.setattr(experiment, "run_training", counting)
    run_experiment(cfg)
    fired_at, activation = PEAK + PATIENCE, PEAK - TURNING_POINT_OFFSET
    assert sum(trained) == fired_at + 1 + EPOCHS - activation


def test_empty_trials_marker(tmp_path):
    cfg = tiny_config(tmp_path, trials=[])
    summary = run_experiment(cfg)
    assert summary["empty"] is True
    assert summary["completed"] == []
    assert summary["last_epoch_test_acc"] is None
    assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))


def test_mean_stddev_examples():
    def aggregate(values):
        last_rows = {str(seed): {"test_acc": value} for seed, value in enumerate(values)}
        return _aggregate(last_rows, "test_acc")

    agg = aggregate([90.0, 91.0, 92.0])
    assert agg["per_trial"] == {"0": 90.0, "1": 91.0, "2": 92.0}
    assert agg["mean"] == pytest.approx(91.0)
    assert agg["stddev"] == pytest.approx(1.0)  # sample stddev, ddof=1
    agg = aggregate([0.5])
    assert agg["mean"] == 0.5 and agg["stddev"] == 0.0
    assert aggregate([]) is None


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, trials=[1])
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SELC_OUT_DIR", str(override))
    run_experiment(cfg)
    assert (override / "summary.json").exists()
    assert not os.path.exists(os.path.join(cfg.out_dir, "summary.json"))


def test_failing_trial_is_isolated(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    real = experiment._train_job

    def flaky(run, k):
        if run.jobs[k][1] == 1:
            raise RuntimeError("injected failure")
        return real(run, k)

    monkeypatch.setattr(experiment, "_train_job", flaky)
    record_pids(monkeypatch)
    summary = run_experiment(cfg)
    assert summary["completed"] == [2]
    assert summary["failed"] == {"1": "RuntimeError: injected failure"}
    assert summary["empty"] is False
    assert summary["last_epoch_test_acc"]["per_trial"] == {"2": pytest.approx(
        summary["last_epoch_test_acc"]["mean"])}
    # no diagnose job for the trial whose training failed
    assert not os.path.exists(os.path.join(cfg.out_dir, "trial_1", "diagnose_job.pid"))
    assert os.path.exists(os.path.join(cfg.out_dir, "trial_2", "diagnose_job.pid"))


def test_failing_diagnose_job_stays_with_its_trial(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    # a directory where trial 2's epochs.csv belongs makes its write fail
    os.makedirs(os.path.join(cfg.out_dir, "trial_2", "epochs.csv"))
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 3]
    assert list(summary["failed"]) == ["2"]
    assert summary["failed"]["2"].startswith("IsADirectoryError: ")
    for seed in (1, 3):
        assert os.path.exists(os.path.join(cfg.out_dir, f"trial_{seed}", "losses.csv"))

    # one selc_plus trial: the diagnosis fails once, in its own child when
    # a fork is safe, and the trial fails with its message
    calls = tmp_path / "diagnose_calls"
    real = experiment._diagnose_job

    def logged(run, k, trained):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(run, k, trained)

    monkeypatch.setattr(experiment, "_diagnose_job", logged)
    cfg = tiny_config(tmp_path, method={"name": "selc_plus", "plus_epochs": 2}, trials=[1],
                      out_dir="plus")
    os.makedirs(os.path.join(cfg.out_dir, "trial_1", "epochs.csv"))
    summary = run_experiment(cfg)
    assert summary["completed"] == []
    assert summary["failed"]["1"].startswith("IsADirectoryError: ")
    pids = calls.read_text().split()
    assert len(pids) == 1
    assert (pids[0] == str(os.getpid())) is (selc_lab.fork_workers(2) < 2)


@pytest.mark.parametrize("trials", [[1], [1, 2]], ids=["one_trial", "pool"])
def test_failing_retrain_fails_its_trial_after_its_diagnosis(tmp_path, monkeypatch, trials):
    real = experiment.run_selc_plus

    def diverging(features, targets, model, opt, cfg, batch_size, seed, **kwargs):
        if seed == 1:
            raise TrainingDivergenceError("nonfinite gradient at epoch 0")
        return real(features, targets, model, opt, cfg, batch_size, seed, **kwargs)

    monkeypatch.setattr(experiment, "run_selc_plus", diverging)
    cfg = tiny_config(tmp_path, method={"name": "selc_plus", "plus_epochs": 2}, trials=trials)
    summary = run_experiment(cfg)
    # the summary a failed retrain has always written
    assert summary["failed"] == {"1": "TrainingDivergenceError: nonfinite gradient at epoch 0"}
    assert summary["completed"] == trials[1:]
    if trials[1:]:
        assert list(summary["plus_last_epoch_test_acc"]["per_trial"]) == ["2"]
    else:
        assert summary["empty"] and summary["plus_last_epoch_test_acc"] is None
    # the diagnosis of the main run is written all the same
    trial = Path(cfg.out_dir, "trial_1")
    assert sorted(os.listdir(trial)) == ["confusion_epoch_2.csv", "epochs.csv", "losses.csv",
                                         "metrics.csv", "targets_final.txt"]


def test_csv_files_parsed_once_per_run(tmp_path, monkeypatch):
    spec = BlobSpec(n=60, dim=3, num_classes=3, cluster_std=0.3, seed=0)
    for split in ("train", "test"):
        save_csv_dataset(tmp_path / f"{split}.csv", *generate_blobs(spec, split=split))
    parses = tmp_path / "parses.log"
    real = data.load_csv_dataset

    def counting(path):
        # appended to a file, so parses in worker processes count too
        with open(parses, "a") as fh:
            fh.write(os.path.basename(path) + "\n")
        return real(path)

    monkeypatch.setattr(data, "load_csv_dataset", counting)
    cfg = tiny_config(tmp_path, dataset={"kind": "csv", "train_csv": "train.csv",
                                         "test_csv": "test.csv"}, trials=[1, 2, 3])
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 2, 3]
    assert sorted(parses.read_text().split()) == ["test.csv", "train.csv"]


def test_mapping_file_read_once_per_run(tmp_path, replace_everywhere):
    (tmp_path / "pairs.txt").write_text("0 1\n2,3\n")
    reads = tmp_path / "reads.log"
    real = noise.load_mapping

    def counting(path):
        # appended to a file, so reads in worker processes count too
        with open(reads, "a") as fh:
            fh.write(os.path.basename(path) + "\n")
        return real(path)

    replace_everywhere(real, counting)
    cfg = tiny_config(tmp_path, dataset={"num_classes": 4}, trials=[1, 2, 3],
                      noise={"kind": "asymmetric", "mapping_file": "pairs.txt"})
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 2, 3]
    assert reads.read_text().split() == ["pairs.txt"]


def test_option1_rows_before_activation_score_the_noisy_labels(tmp_path):
    """Until correction starts, a trial's targets are its noisy labels, for
    option1 too, whose ensemble-only targets start at all zeros."""
    cfg = tiny_config(tmp_path, method={"name": "option1", "activation_epoch": 2}, trials=[1])
    run_experiment(cfg)
    train_y = cfg.data[1]
    noisy = inject_noise(train_y, cfg.transition, 1)
    with open(os.path.join(cfg.out_dir, "trial_1", "epochs.csv")) as fh:
        rows = list(csv.DictReader(fh))
    expected = experiment._fmt(np.mean(noisy == train_y))
    assert [row["correction_acc"] for row in rows[:2]] == [expected] * 2


@pytest.mark.parametrize("name", list(METHODS))
def test_every_method_in_the_table_runs(tmp_path, name):
    """A method with a targets mode writes its final targets in that mode;
    only selc_plus retrains."""
    cfg = tiny_config(tmp_path, method={"name": name, "activation_epoch": 1, "plus_epochs": 2},
                      optimizer={"epochs": 2}, trials=[1])
    summary = run_experiment(cfg)
    assert summary["completed"] == [1]
    trial = os.path.join(cfg.out_dir, "trial_1")
    targets = os.path.join(trial, "targets_final.txt")
    assert os.path.exists(targets) is (METHODS[name] is not None)
    if METHODS[name] is not None:
        with open(targets) as fh:
            assert fh.readline().split()[-1] == METHODS[name]
    assert os.path.exists(os.path.join(trial, "plus_epochs.csv")) is (name == "selc_plus")


def test_divergent_trial_recorded_not_raised(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "ce"},
                      model={"activation": "relu"},
                      optimizer={"lr": 1e9, "weight_decay": 0.0, "epochs": 30}, trials=[1, 2])
    summary = run_experiment(cfg)
    assert summary["empty"] is True
    assert set(summary["failed"]) == {"1", "2"}
    for message in summary["failed"].values():
        assert "TrainingDivergenceError" in message


def test_rerun_is_byte_identical(tmp_path):
    cfg = tiny_config(tmp_path, trials=[1])
    run_experiment(cfg)
    files = ["summary.json", "trial_1/epochs.csv", "trial_1/losses.csv",
             "trial_1/metrics.csv", "trial_1/targets_final.txt"]
    first = {f: Path(cfg.out_dir, f).read_bytes() for f in files}
    run_experiment(cfg)
    for f in files:
        assert Path(cfg.out_dir, f).read_bytes() == first[f], f


def test_alpha_sweep_layout(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "selc", "alpha": [0.5, 0.9],
                                        "activation_epoch": 1}, trials=[1])
    summary = run_experiment(cfg)
    assert summary["alpha_sweep"] == ["0.5", "0.9"]
    assert set(summary["runs"]) == {"0.5", "0.9"}
    assert isinstance(summary["test_acc_spread"], float)
    for tag in ("0.5", "0.9"):
        sub = os.path.join(cfg.out_dir, f"alpha_{tag}")
        assert os.path.exists(os.path.join(sub, "summary.json"))
        assert os.path.exists(os.path.join(sub, "trial_1", "epochs.csv"))
        assert summary["runs"][tag]["alpha"] == float(tag)
    root = json.loads(Path(cfg.out_dir, "summary.json").read_text())
    assert root["alpha_sweep"] == ["0.5", "0.9"]


def test_selc_plus_stage_outputs(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "selc_plus", "activation_epoch": 1,
                                        "plus_epochs": 2}, trials=[1])
    summary = run_experiment(cfg)
    plus = summary["plus_last_epoch_test_acc"]
    assert set(plus["per_trial"]) == {"1"}
    lines = Path(cfg.out_dir, "trial_1", "plus_epochs.csv").read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_acc,test_acc"
    assert len(lines) == 3  # header + 2 plus epochs


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_CLI = "import sys; from selc_lab.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env(**extra):
    """This environment with selc_lab importable, for a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(selc_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("SELC_OUT_DIR", None)
    env.update(extra)
    return env


def run_bounded(args, timeout=120):
    """Run ``args`` in a session of its own and return its stdout; on a
    timeout, kill the whole session, the job children included, so that
    none is left blocked on its pipe."""
    proc = subprocess.Popen(args, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return out


def read_tree(root):
    tree = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def record_pids(monkeypatch):
    """Make every train, diagnose and retrain job append the id of the
    process that ran it to ``train_job.pid``, ``diagnose_job.pid`` and
    ``retrain_job.pid`` in its trial, one line each time it runs."""
    for name in ("_train_job", "_diagnose_job", "_retrain_job"):
        real = getattr(experiment, name)

        def recording(run, k, *args, real=real, name=name):
            result = real(run, k, *args)
            with open(os.path.join(run.jobs[k][2], name.strip("_") + ".pid"), "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return result

        monkeypatch.setattr(experiment, name, recording)


def job_pids(cfg, seed, jobs=("train", "diagnose")):
    """The pid that ran each of ``jobs`` of trial ``seed``; a job that ran
    twice gives two lines, which no pid equals."""
    pids = []
    for job in jobs:
        with open(os.path.join(cfg.out_dir, f"trial_{seed}", f"{job}_job.pid")) as fh:
            pids.append(fh.read().strip())
    return pids


def test_cli_run_matches_in_process_trials(tmp_path, monkeypatch):
    sweep = {"method": {"alpha": [0.5, 0.9]}, "trials": [1, 2]}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tiny_config_data(**sweep, out_dir="cli")))
    subprocess.run([sys.executable, "-c", RUN_CLI, "run", str(path)],
                   env=child_env(), check=True, timeout=120, capture_output=True)

    # the same jobs, each a call of _run_trial in this process
    monkeypatch.setattr(selc_lab, "BLAS_PINNED", False)
    cfg = tiny_config(tmp_path, **sweep, out_dir="in_process")
    run_experiment(cfg)
    in_process = read_tree(cfg.out_dir)
    assert len(in_process) == 3 + 4 * 5  # three summaries, five files per trial
    assert read_tree(tmp_path / "cli") == in_process


@pytest.mark.parametrize("method", [
    {"name": "selc"},
    {"name": "selc_plus", "plus_epochs": 2},
    {"name": "ce"},
])
def test_three_trial_cli_run_matches_in_process_trials(tmp_path, monkeypatch, method):
    # three trials, two children at a time: a diagnose job runs beside the
    # third train job
    overrides = {"method": method, "trials": [1, 2, 3]}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tiny_config_data(**overrides, out_dir="cli")))
    subprocess.run([sys.executable, "-c", RUN_CLI, "run", str(path)],
                   env=child_env(), check=True, timeout=120, capture_output=True)

    monkeypatch.setattr(selc_lab, "BLAS_PINNED", False)
    cfg = tiny_config(tmp_path, **overrides, out_dir="in_process")
    run_experiment(cfg)
    in_process = read_tree(cfg.out_dir)
    per_trial = {"selc": 5, "selc_plus": 6, "ce": 4}[method["name"]]
    assert len(in_process) == 1 + 3 * per_trial
    assert read_tree(tmp_path / "cli") == in_process


def test_trials_run_in_worker_processes(tmp_path, monkeypatch):
    if selc_lab.fork_workers(3) < 2:
        pytest.skip("trials run in-process here")
    record_pids(monkeypatch)
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 2, 3]
    # train and diagnose jobs alike
    pids = {pid for seed in (1, 2, 3) for pid in job_pids(cfg, seed)}
    assert str(os.getpid()) not in pids


def test_trials_run_in_process_beside_another_thread(tmp_path, monkeypatch):
    record_pids(monkeypatch)
    cfg = tiny_config(tmp_path)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        run_experiment(cfg)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    for seed in (1, 2):
        assert job_pids(cfg, seed) == [str(os.getpid())] * 2


def test_one_trial_runs_in_process(tmp_path, monkeypatch):
    record_pids(monkeypatch)
    cfg = tiny_config(tmp_path, trials=[1])
    run_experiment(cfg)
    assert job_pids(cfg, 1) == [str(os.getpid())] * 2


def test_one_selc_plus_trial_diagnoses_beside_its_retrain(tmp_path, monkeypatch):
    if selc_lab.fork_workers(2) < 2:
        pytest.skip("trials run in-process here")
    plus = {"method": {"name": "selc_plus", "plus_epochs": 3}, "trials": [1]}
    with monkeypatch.context() as patch:
        record_pids(patch)
        cfg = tiny_config(tmp_path, **plus, out_dir="forked")
        run_experiment(cfg)
        # each job once, in a child of its own, and none in this process
        pids = job_pids(cfg, 1, ("train", "diagnose", "retrain"))
        assert len({*pids, str(os.getpid())}) == 4
        assert all(pid.isdigit() for pid in pids)
        for job in ("train", "diagnose", "retrain"):
            os.remove(os.path.join(cfg.out_dir, "trial_1", f"{job}_job.pid"))
    forked = read_tree(cfg.out_dir)

    monkeypatch.setattr(config, "fork_workers", lambda tasks: 1)
    cfg = tiny_config(tmp_path, **plus, out_dir="in_process")
    run_experiment(cfg)
    assert len(forked) == 1 + 6
    assert forked == read_tree(cfg.out_dir)


@pytest.mark.parametrize("death, ended", [
    (lambda: os._exit(3), "exited with code 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
], ids=["exit_code", "signal"])
def test_dead_child_fails_only_its_trial(tmp_path, monkeypatch, death, ended):
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    if config.run_workers(cfg) < 2:
        pytest.skip("trials run in-process here")
    real = experiment._train_job
    this = os.getpid()

    def dying(run, k):
        if run.jobs[k][1] == 2 and os.getpid() != this:
            death()
        return real(run, k)

    monkeypatch.setattr(experiment, "_train_job", dying)
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 3]
    assert summary["failed"] == {"2": f"ChildProcessError: the process of the train job {ended}"}
    # a trial whose training died gets no diagnose job
    assert not os.path.exists(os.path.join(cfg.out_dir, "trial_2", "epochs.csv"))


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
def test_uncaught_job_exception_ends_the_run(tmp_path, monkeypatch, forked):
    real = experiment._diagnose_job

    def broken(run, k, trained):
        if run.jobs[k][1] == 2:
            raise KeyError("injected")
        return real(run, k, trained)

    monkeypatch.setattr(experiment, "_diagnose_job", broken)
    if not forked:
        monkeypatch.setattr(config, "fork_workers", lambda tasks: 1)
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    with pytest.raises(KeyError, match="injected"):
        run_experiment(cfg)
    assert not os.path.exists(os.path.join(cfg.out_dir, "summary.json"))
    # every child was reaped before the exception left the run
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_uncaught_exception_beside_big_outcomes_ends_the_run(tmp_path):
    # three children at once: trial 3's train job raises while trials 1
    # and 2 train towards outcomes larger than a pipe holds; a child that
    # kept a copy of its own read end or an older sibling's would stay
    # blocked on its full pipe, and the run would wait for ever
    code = """
import json, sys, time
import selc_lab.config as config
import selc_lab.experiment as experiment
from selc_lab.config import config_from_dict

config.fork_workers = lambda tasks: 3
real = experiment._train_job

def broken(run, k):
    if run.jobs[k][1] == 3:
        raise KeyError("injected")
    time.sleep(1)  # still training when the exception comes back
    return real(run, k)

experiment._train_job = broken
cfg = config_from_dict(json.loads(sys.argv[1]), base_dir=sys.argv[2])
try:
    experiment.run_experiment(cfg)
except KeyError as exc:
    print("raised", exc)
"""
    big = tiny_config_data(dataset={"n": 3000}, trials=[1, 2, 3])
    out = run_bounded([sys.executable, "-c", code, json.dumps(big), str(tmp_path)])
    assert out == "raised 'injected'\n"
    assert not (tmp_path / big["out_dir"] / "summary.json").exists()


@pytest.mark.parametrize("step", ["pipe", "fork_child"])
def test_a_job_that_does_not_start_fails_only_its_trial(tmp_path, monkeypatch, step):
    # trial 2's train job, whose pipe does not open or whose child does not
    # fork: the train jobs start first
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    if config.run_workers(cfg) < 2:
        pytest.skip("trials run in-process here")
    call = {"pipe": "pipe", "fork_child": "fork"}[step]
    real = getattr(os, call)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real(*args)

    monkeypatch.setattr(os, call, failing)
    open_fds = len(os.listdir("/proc/self/fd"))
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 3]
    assert summary["failed"] == {
        "2": "OSError: the process of the train job did not start: "
             "[Errno 11] Resource temporarily unavailable"}
    assert len(os.listdir("/proc/self/fd")) == open_fds  # no pipe was left open


def test_outcomes_larger_than_a_pipe_come_back_whole(tmp_path, monkeypatch):
    big = {"dataset": {"n": 3000}, "trials": [1, 2]}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tiny_config_data(**big, out_dir="cli")))
    # a parent that read no pipe before reaping would wait here for ever
    run_bounded([sys.executable, "-c", RUN_CLI, "run", str(path)])

    sizes = []
    real = experiment._train_job

    def sized(run, k):
        trained = real(run, k)
        sizes.append(len(pickle.dumps(trained)))
        return trained

    monkeypatch.setattr(experiment, "_train_job", sized)
    monkeypatch.setattr(config, "fork_workers", lambda tasks: 1)
    cfg = tiny_config(tmp_path, **big, out_dir="in_process")
    run_experiment(cfg)
    assert len(sizes) == 2 and min(sizes) > 64 * 1024  # more than a pipe buffer holds
    in_process = read_tree(cfg.out_dir)
    assert len(in_process) == 1 + 2 * 5
    assert read_tree(tmp_path / "cli") == in_process


def test_a_run_imports_no_process_pool(tmp_path):
    code = """
import json, sys
import selc_lab.experiment as experiment
from selc_lab.config import config_from_dict

cfg = config_from_dict(json.loads(sys.argv[1]), base_dir=sys.argv[2])
summary = experiment.run_experiment(cfg)
print(summary["completed"], [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", code, json.dumps(tiny_config_data(trials=[1, 2, 3])),
                          str(tmp_path)], env=child_env(), check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[0] == "[1, 2, 3] []"


def test_only_the_package_init_forks():
    # selc_lab.fork_jobs is the one place that forks, pipes, waits and reaps
    calls = {("os", "fork"), ("os", "pipe"), ("select", "select"), ("os", "waitpid")}
    callers = set()
    for source in Path(selc_lab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                named = {(node.value.id, node.attr)}
            elif isinstance(node, ast.ImportFrom):
                named = {(node.module, alias.name) for alias in node.names}
            else:
                continue
            if named & calls:
                callers.add(source.name)
    assert callers == {"__init__.py"}


@pytest.mark.parametrize("overrides, ready", [
    ({"method": {"name": "selc_plus", "plus_epochs": 2}, "trials": [1]}, 2),
    ({"trials": [1, 2, 3]}, 3),
    ({"method": {"alpha": [0.5, 0.9]}}, 4),
], ids=["one_selc_plus_trial", "three_selc_trials", "two_alpha_sweep"])
def test_memory_floor_and_job_loop_ask_for_one_worker_count(tmp_path, monkeypatch, overrides,
                                                            ready):
    asked = []

    def recording(tasks):
        asked.append(tasks)
        return 1

    monkeypatch.setattr(config, "fork_workers", recording)
    cfg = tiny_config(tmp_path, **overrides)  # the memory check asks first
    run_experiment(cfg)
    assert asked == [ready, ready]


def import_report(env, numpy_first=False):
    code = ("import numpy\n" if numpy_first else "") + (
        "import os, selc_lab\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], selc_lab.BLAS_PINNED)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_sets_one_blas_thread_unless_set():
    env = child_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    assert import_report(env) == ["1", "True"]
    assert import_report(dict(env, OPENBLAS_NUM_THREADS="2")) == ["2", "False"]
    assert import_report(dict(env, **{var: "1" for var in BLAS_THREAD_VARS}),
                         numpy_first=True) == ["1", "True"]
    # numpy already started its BLAS: the default came too late
    assert import_report(env, numpy_first=True) == ["1", "False"]


def test_numpy_imported_first_runs_trials_in_process(tmp_path):
    env = child_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    code = """
import json, os, sys
import numpy
import selc_lab.experiment as experiment
from selc_lab.config import config_from_dict

cfg = config_from_dict(json.loads(sys.argv[1]), base_dir=sys.argv[2])
real = experiment._run_trial
pids = []

def recording(*args):
    pids.append(os.getpid())
    return real(*args)

experiment._run_trial = recording
summary = experiment.run_experiment(cfg)
print(summary["completed"], pids == [os.getpid()] * 2)
"""
    out = subprocess.run([sys.executable, "-c", code, json.dumps(tiny_config_data()),
                          str(tmp_path)], env=env, check=True, timeout=120, capture_output=True,
                         text=True).stdout
    assert out.split("\n")[0] == "[1, 2] True"
