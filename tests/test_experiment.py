import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import yaml

import selc_lab
import selc_lab.data as data
import selc_lab.experiment as experiment
from selc_lab.config import config_from_dict
from selc_lab.data import BlobSpec, TrainView, generate_blobs, save_csv_dataset
from selc_lab.diagnostics import correction_accuracy, memorization_stats
from selc_lab.experiment import (
    EPOCH_COLUMNS,
    _mean_stddev,
    run_experiment,
)
from selc_lab.mlp import one_hot, predict_proba, soft_ce_loss
from selc_lab.noise import build_symmetric_q, inject_noise
from selc_lab.targets import load_state
from selc_lab.training import METHOD_CE, TURNING_POINT_OFFSET, SelcRunConfig, run_training
from selc_lab.turning import (
    OnlineTurningPointDetector,
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
        lines = open(os.path.join(trial, "epochs.csv")).read().splitlines()
        assert lines[0] == ",".join(EPOCH_COLUMNS)
        assert len(lines) == 4  # header + 3 epochs
        epochs, losses = load_loss_snapshots(os.path.join(trial, "losses.csv"))
        assert list(epochs) == [0, 1, 2]
        assert losses.shape == (3, 60)
        ledger = open(os.path.join(trial, "metrics.csv")).read().splitlines()
        assert ledger[0] == "epoch,metric_name,value"
        assert len(ledger) == 1 + 3 * 6  # epochs x diagnostics
        confusion = open(os.path.join(trial, "confusion_epoch_2.csv")).read().splitlines()
        total = sum(int(v) for line in confusion for v in line.split(","))
        assert total == 60
        state = load_state(os.path.join(trial, "targets_final.txt"))
        assert state.epoch_k == 2  # activation at 1 of 3 epochs
        assert state.targets.shape == (60, 3)

    on_disk = json.load(open(os.path.join(out, "summary.json")))
    assert on_disk["completed"] == [1, 2]


@pytest.mark.parametrize("method", ["selc", "option1", "ce"])
def test_diagnosed_rows_match_an_inline_epoch_hook(tmp_path, method):
    """The diagnose job's epochs.csv and losses.csv hold what an epoch hook
    computing every diagnostic during training would have written."""
    cfg = tiny_config(tmp_path, method={"name": method, "activation_epoch": 1},
                      optimizer={"epochs": 4}, trials=[1])
    run_experiment(cfg)

    train_x, train_y, test_x, test_y, num_classes = experiment._build_clean_data(cfg)
    noisy = inject_noise(train_y, build_symmetric_q(num_classes, 0.4), 1)
    view = TrainView(train_x, noisy, np.arange(noisy.size), num_classes)
    model, opt = experiment._build_model(cfg, view, 1, "init")
    noisy_onehot = one_hot(noisy, num_classes)
    rows, losses = [], []

    def observe(event):
        per_sample, _ = soft_ce_loss(noisy_onehot, event.snapshot.probs)
        losses.append(per_sample)
        m1, m2, m3 = separation_metrics(normalize_losses(per_sample))
        test_acc = float(np.mean(predict_proba(model, test_x).argmax(axis=1) == test_y))
        targets = event.state.targets if event.state is not None else noisy_onehot
        mem = memorization_stats(event.snapshot.probs, noisy, train_y, event.epoch)
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
    train_x, train_y, _, _, num_classes = experiment._build_clean_data(cfg)
    noisy = inject_noise(train_y, build_symmetric_q(num_classes, 0.4), 1)
    view = TrainView(train_x, noisy, np.arange(noisy.size), num_classes)
    noisy_onehot = one_hot(noisy, num_classes)
    m1 = []

    def observe(event):
        per_sample, _ = soft_ce_loss(noisy_onehot, event.snapshot.probs)
        m1.append(metric_m1(fit_gmm2(normalize_losses(per_sample))))

    model, opt = experiment._build_model(cfg, view, 1, "init")
    run_training(view, model, opt, SelcRunConfig(total_epochs=cfg.optimizer.epochs), METHOD_CE,
                 16, 1, epoch_hook=observe)
    return view, m1


def test_warm_phase_without_firing_estimates_the_m1_argmax(tmp_path, monkeypatch):
    """A detector whose patience outlasts the warm phase never fires; its
    running maximum is then the estimate, the earliest argmax of m1 over a
    CE run of the same model."""
    epochs = 12
    cfg = warm_config(tmp_path, epochs, epochs + 1)
    view, m1 = ce_m1_series(cfg)
    expected = int(np.argmax(m1))
    assert 0 < expected < epochs - 1  # a peak inside the run, not at either end

    # the estimate before the floor of default_activation_epoch
    monkeypatch.setattr(experiment, "default_activation_epoch", lambda estimate: estimate)
    assert experiment._estimate_activation_epoch(view, cfg, 1) == expected


@pytest.mark.parametrize("patience, fired", [(2, True), (13, False)])
def test_summary_records_the_warm_phase(tmp_path, patience, fired):
    """summary.json holds the detector's raw turning point, whether it
    fired and whether the activation epoch was clamped: the outcome of the
    patience rule on the m1 series of a CE run of the same model."""
    cfg = warm_config(tmp_path, 12, patience)
    detector = OnlineTurningPointDetector(patience)
    for epoch, value in enumerate(ce_m1_series(cfg)[1]):
        detector.observe(epoch, value)
    assert detector.fired is fired
    summary = run_experiment(cfg)
    estimate = detector.estimate
    assert summary["turning_point_estimate"] == {"1": estimate}
    assert summary["detector_fired"] == {"1": fired}
    assert summary["activation_clamped"] == {"1": estimate - TURNING_POINT_OFFSET < 1}
    assert summary["activation_epochs"] == {"1": max(estimate - TURNING_POINT_OFFSET, 1)}


def test_empty_trials_marker(tmp_path):
    cfg = tiny_config(tmp_path, trials=[])
    summary = run_experiment(cfg)
    assert summary["empty"] is True
    assert summary["completed"] == []
    assert summary["last_epoch_test_acc"] is None
    assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))


def test_mean_stddev_examples():
    mean, stddev = _mean_stddev([90.0, 91.0, 92.0])
    assert mean == pytest.approx(91.0)
    assert stddev == pytest.approx(1.0)  # sample stddev, ddof=1
    mean, stddev = _mean_stddev([0.5])
    assert mean == 0.5 and stddev == 0.0
    assert _mean_stddev([]) == (None, None)


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


def test_failing_diagnose_job_stays_with_its_trial(tmp_path):
    cfg = tiny_config(tmp_path, trials=[1, 2, 3])
    # a directory where trial 2's epochs.csv belongs makes its write fail
    os.makedirs(os.path.join(cfg.out_dir, "trial_2", "epochs.csv"))
    summary = run_experiment(cfg)
    assert summary["completed"] == [1, 3]
    assert list(summary["failed"]) == ["2"]
    assert summary["failed"]["2"].startswith("IsADirectoryError: ")
    for seed in (1, 3):
        assert os.path.exists(os.path.join(cfg.out_dir, f"trial_{seed}", "losses.csv"))


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    first = {f: open(os.path.join(cfg.out_dir, f), "rb").read() for f in files}
    run_experiment(cfg)
    for f in files:
        assert open(os.path.join(cfg.out_dir, f), "rb").read() == first[f], f


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
    root = json.load(open(os.path.join(cfg.out_dir, "summary.json")))
    assert root["alpha_sweep"] == ["0.5", "0.9"]


def test_selc_plus_stage_outputs(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "selc_plus", "activation_epoch": 1,
                                        "plus_epochs": 2}, trials=[1])
    summary = run_experiment(cfg)
    plus = summary["plus_last_epoch_test_acc"]
    assert set(plus["per_trial"]) == {"1"}
    lines = open(os.path.join(cfg.out_dir, "trial_1", "plus_epochs.csv")).read().splitlines()
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


def read_tree(root):
    tree = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def record_pids(monkeypatch):
    """Make every train and diagnose job write the id of the process that
    ran it to ``train_job.pid`` and ``diagnose_job.pid`` in its trial."""
    for name in ("_train_job", "_diagnose_job"):
        real = getattr(experiment, name)

        def recording(run, k, *args, real=real, name=name):
            result = real(run, k, *args)
            with open(os.path.join(run.jobs[k][2], name.strip("_") + ".pid"), "w") as fh:
                fh.write(str(os.getpid()))
            return result

        monkeypatch.setattr(experiment, name, recording)


def job_pids(cfg, seed):
    pids = []
    for job in ("train", "diagnose"):
        with open(os.path.join(cfg.out_dir, f"trial_{seed}", f"{job}_job.pid")) as fh:
            pids.append(fh.read())
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
    # three trials on a pool of two workers: a diagnose job runs beside the
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

def recording(run, k):
    pids.append(os.getpid())
    return real(run, k)

experiment._run_trial = recording
summary = experiment.run_experiment(cfg)
print(summary["completed"], pids == [os.getpid()] * 2)
"""
    out = subprocess.run([sys.executable, "-c", code, json.dumps(tiny_config_data()),
                          str(tmp_path)], env=env, check=True, timeout=120, capture_output=True,
                         text=True).stdout
    assert out.split("\n")[0] == "[1, 2] True"
