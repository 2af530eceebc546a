import json
import os

import numpy as np
import pytest

import selc_lab.experiment as experiment
from selc_lab.config import config_from_dict, validate_config
from selc_lab.experiment import (
    EPOCH_COLUMNS,
    _mean_stddev,
    desk_benchmark_config,
    run_experiment,
)
from selc_lab.targets import load_state
from selc_lab.turning import load_loss_snapshots


def tiny_config(tmp_path, **overrides):
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
    return config_from_dict(data, base_dir=str(tmp_path))


def test_trial_artifacts_and_summary(tmp_path):
    cfg = tiny_config(tmp_path)
    summary = run_experiment(cfg)
    out = cfg.out_dir
    assert summary["empty"] is False
    assert summary["method"] == "selc"
    assert summary["completed"] == [1, 2]
    assert summary["failed"] == {}
    assert summary["activation_epochs"] == {"1": 1, "2": 1}
    for key in ("last_epoch_test_acc", "last_epoch_correction_acc", "last_epoch_memorized_frac"):
        agg = summary[key]
        assert set(agg) == {"per_trial", "mean", "stddev"}
        assert set(agg["per_trial"]) == {"1", "2"}

    for seed in (1, 2):
        trial = os.path.join(out, f"trial_{seed}")
        lines = open(os.path.join(trial, "epochs.csv")).read().splitlines()
        assert lines[0] == ",".join(EPOCH_COLUMNS)
        assert len(lines) == 4  # header + 3 epochs
        snaps = load_loss_snapshots(os.path.join(trial, "losses.csv"))
        assert [s.epoch for s in snaps] == [0, 1, 2]
        assert snaps[0].losses.size == 60
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


def test_ce_method_writes_no_targets(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "ce"})
    summary = run_experiment(cfg)
    assert summary["activation_epochs"] == {"1": None, "2": None}
    assert not os.path.exists(os.path.join(cfg.out_dir, "trial_1", "targets_final.txt"))


def test_auto_activation_resolves_to_int(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "selc", "activation_epoch": "auto"},
                      optimizer={"epochs": 4}, trials=[1])
    summary = run_experiment(cfg)
    resolved = summary["activation_epochs"]["1"]
    assert isinstance(resolved, int)
    assert 1 <= resolved < 4


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
    real = experiment._run_trial

    def flaky(cfg_, alpha, seed, trial_dir):
        if seed == 1:
            raise RuntimeError("injected failure")
        return real(cfg_, alpha, seed, trial_dir)

    monkeypatch.setattr(experiment, "_run_trial", flaky)
    summary = run_experiment(cfg)
    assert summary["completed"] == [2]
    assert summary["failed"] == {"1": "RuntimeError: injected failure"}
    assert summary["empty"] is False
    assert summary["last_epoch_test_acc"]["per_trial"] == {"2": pytest.approx(
        summary["last_epoch_test_acc"]["mean"])}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_trial_recorded_not_raised(tmp_path):
    cfg = tiny_config(tmp_path, method={"name": "ce"},
                      model={"activation": "relu"},
                      optimizer={"lr": 1e9, "weight_decay": 0.0, "epochs": 30}, trials=[1])
    summary = run_experiment(cfg)
    assert summary["empty"] is True
    assert "1" in summary["failed"]
    assert "TrainingDivergenceError" in summary["failed"]["1"]


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


def test_desk_benchmark_config_is_valid():
    cfg = desk_benchmark_config()
    validate_config(cfg)
    assert cfg.dataset.n == 4000 and cfg.dataset.dim == 16
    assert cfg.dataset.num_classes == 4 and cfg.dataset.cluster_std == 1.0
    assert cfg.noise.eta == 0.4
    assert cfg.model.hidden_dims == [64, 64]
    assert cfg.optimizer.epochs == 60 and cfg.optimizer.milestones == [24, 48]
    assert cfg.optimizer.batch_size == 128 and cfg.optimizer.momentum == 0.9
    assert cfg.trials == [1, 2, 3]
    assert cfg.method.activation_epoch == "auto"
