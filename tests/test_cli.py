import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import selc_lab
import selc_lab.cli as cli
import selc_lab.turning as turning
from selc_lab.cli import main
from selc_lab.data import BlobSpec, generate_blobs, load_csv_dataset, save_csv_dataset, write_idx
from selc_lab.rng import stream
from selc_lab.turning import (
    compute_metric_series,
    load_loss_snapshots,
    save_loss_snapshots,
)


def write_tiny_config(tmp_path, **overrides):
    data = {
        "dataset": {"kind": "blobs", "n": 60, "dim": 3, "num_classes": 3,
                    "cluster_std": 0.3, "seed": 0},
        "noise": {"kind": "symmetric", "eta": 0.4},
        "model": {"hidden_dims": [8], "activation": "tanh"},
        "optimizer": {"lr": 0.05, "epochs": 2, "batch_size": 16},
        "method": {"name": "selc", "alpha": 0.9, "activation_epoch": 1},
        "trials": [1],
        "out_dir": "run",
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_run_verb_success(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "summary.json" in out
    assert "test acc" in out
    assert os.path.exists(tmp_path / "run" / "summary.json")


def test_run_verb_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_verb_invalid_config(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, noise={"kind": "speckle"})
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


# blob datasets that load as YAML but would fail every trial
@pytest.mark.parametrize("dataset, field", [
    ({"n": 3}, "dataset.n"),
    ({"n": 8, "num_classes": 3}, "dataset.test_n"),
    ({"dim": 2, "num_classes": 3, "cluster_std": 1.0}, "dataset.cluster_std"),
], ids=["too_few_samples", "test_split_too_small", "centers_do_not_fit"])
def test_run_verb_unrunnable_blobs_are_config_errors(tmp_path, capsys, dataset, field):
    cfg = write_tiny_config(tmp_path, dataset=dataset)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("overrides,field", [
    ({"dataset": {"n": 60.5}}, "dataset.n"),
    ({"dataset": {"dim": 3.0}}, "dataset.dim"),
    ({"dataset": {"num_classes": True}}, "dataset.num_classes"),
    ({"dataset": {"test_n": 20.5}}, "dataset.test_n"),
    ({"dataset": {"seed": 0.5}}, "dataset.seed"),
    ({"optimizer": {"epochs": 2.0}}, "optimizer.epochs"),
    ({"optimizer": {"batch_size": 16.5}}, "optimizer.batch_size"),
    ({"optimizer": {"milestones": [1.5]}}, "optimizer.milestones"),
    ({"model": {"hidden_dims": [8.0]}}, "model.hidden_dims"),
    ({"model": {"hidden_dims": 8}}, "model.hidden_dims"),
    ({"trials": [1, 2.5]}, "trials"),
    ({"method": {"name": "selc_plus", "plus_epochs": 1.5}}, "method.plus_epochs"),
    ({"method": {"detector_patience": "ten"}}, "method.detector_patience"),
    ({"method": {"alpha": "high"}}, "method.alpha"),
    ({"method": {"alpha": [0.5, "high"]}}, "method.alpha"),
    ({"optimizer": {"lr": "fast"}}, "optimizer.lr"),
    ({"optimizer": {"lr": True}}, "optimizer.lr"),
    ({"noise": {"exclude_true_class": "no"}}, "noise.exclude_true_class"),
    ({"dataset": {"cluster_std": "wide"}}, "dataset.cluster_std"),
    # no alpha to run, and two alphas that would share alpha_0.9/ in a sweep
    ({"method": {"alpha": []}}, "method.alpha"),
    ({"method": {"alpha": [0.9, 0.9000001]}}, "method.alpha"),
    # seeds that would share the streams of 1 and 0
    ({"trials": [1, 2**64 + 1]}, "trials"),
    ({"trials": [1, 1 - 2**64]}, "trials"),
    ({"dataset": {"seed": 2**64}}, "dataset.seed"),
    ({"dataset": {"seed": -2**63 - 1}}, "dataset.seed"),
    # runs that cannot fit in memory, rejected before any data is built
    ({"optimizer": {"epochs": 10**11}}, "optimizer.epochs"),
    ({"dataset": {"n": 10**11}}, "dataset.n"),
    ({"dataset": {"dim": 10**12}}, "dataset.dim"),
    ({"model": {"hidden_dims": [8, 10**11]}}, "model.hidden_dims"),
    # class counts whose C x C matrices cannot fit, rejected before any is built
    ({"dataset": {"n": 200_000, "test_n": 200_000, "num_classes": 200_000, "dim": 2,
                  "cluster_std": 0.0001}}, "dataset.num_classes"),
    ({"dataset": {"kind": "csv", "train_csv": "train.csv", "test_csv": "test.csv"}},
     "dataset.train_csv"),
    # a string field, a path among them, that holds no string
    ({"method": {"name": ["selc"]}}, "method.name"),
    ({"noise": {"kind": "asymmetric", "mapping_file": 5}}, "noise.mapping_file"),
    ({"dataset": {"kind": "csv", "train_csv": 5, "test_csv": "test.csv"}}, "dataset.train_csv"),
    ({"out_dir": 5}, "out_dir"),
])
def test_run_verb_non_integer_field_is_config_error(monkeypatch, tmp_path, capsys, overrides,
                                                    field):
    if overrides.get("dataset", {}).get("kind") == "csv":
        # 400 rows, one of them labelled 3,000,000
        labels = np.arange(400) % 3
        labels[7] = 3_000_000
        save_csv_dataset(tmp_path / "train.csv", np.zeros((400, 3)), labels)
        save_csv_dataset(tmp_path / "test.csv", np.zeros((100, 3)), labels[:100] % 3)
    built = []
    for name in ("build_symmetric_q", "build_asymmetric_q"):
        monkeypatch.setattr(selc_lab.config, name, lambda *args, **kwargs: built.append(args))
    cfg = write_tiny_config(tmp_path, **{"trials": [1, 2], **overrides})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{field} must be" in err
    assert not os.path.exists(tmp_path / "run")
    assert built == []


# every method's training run takes alpha, beta and mixup_beta_param, so a
# value out of range fails at load whichever method the config names
@pytest.mark.parametrize("method, field", [
    ({"name": "selc", "beta": 5}, "method.beta"),
    ({"name": "selc", "mixup_beta_param": 0}, "method.mixup_beta_param"),
    ({"name": "ce", "alpha": 1.5}, "method.alpha"),
    ({"name": "bootstrap", "alpha": 1.5}, "method.alpha"),
    ({"name": "ce", "mixup_beta_param": -1}, "method.mixup_beta_param"),
], ids=["selc_beta", "selc_mixup_beta_param", "ce_alpha", "bootstrap_alpha",
        "ce_mixup_beta_param"])
def test_run_verb_out_of_range_method_field_is_config_error(tmp_path, capsys, method, field):
    cfg = write_tiny_config(tmp_path, trials=[1, 2], method=method)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not os.path.exists(tmp_path / "run")


def test_run_verb_reports_failed_trials(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, method={"name": "ce"},
                            model={"activation": "relu"},
                            optimizer={"lr": 1e9, "weight_decay": 0.0, "epochs": 30})
    assert main(["run", str(cfg)]) == 2
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ce", "bootstrap", "selc", "selc_plus"])
def test_run_verb_reports_a_diverged_model_as_divergence(tmp_path, method):
    """A model whose predictions overflow fails its trial as diverged, on
    one stderr line and without numpy warnings, whether or not it corrects
    its targets."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "dataset": {"kind": "blobs", "n": 60, "seed": 0}, "model": {"activation": "relu"},
        "optimizer": {"lr": 1.0e9, "weight_decay": 0.0},
        "method": {"name": method, "activation_epoch": 1}, "trials": [1],
        "out_dir": str(tmp_path / "run")}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(selc_lab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "selc_lab.cli", "run", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    message = "TrainingDivergenceError: nonfinite predictions at epoch 3"
    assert done.returncode == 2
    assert done.stderr == f"trial 1 failed: {message}\n"
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["failed"] == {"1": message}
    if method == "selc_plus":
        assert summary["plus_last_epoch_test_acc"] is None


def test_run_verb_empty_trials(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, trials=[])
    assert main(["run", str(cfg)]) == 0
    assert "no trials ran" in capsys.readouterr().out
    # an alpha sweep says so too
    (tmp_path / "sweep").mkdir()
    cfg = write_tiny_config(tmp_path / "sweep", trials=[],
                            method={"name": "selc", "alpha": [0.5, 0.9], "activation_epoch": 1})
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["no trials ran"]


def test_run_verb_alpha_sweep_output(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, method={"name": "selc", "alpha": [0.5, 0.9],
                                              "activation_epoch": 1})
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "alpha 0.5" in out and "alpha 0.9" in out
    assert "spread" in out


def write_mapping_config(tmp_path, mapping_text):
    (tmp_path / "pairs.csv").write_text(mapping_text)
    return write_tiny_config(tmp_path,
                             dataset={"num_classes": 4},
                             noise={"kind": "asymmetric", "eta": 0.4,
                                    "mapping_file": "pairs.csv"})


def test_run_verb_comma_mapping(tmp_path, capsys):
    cfg = write_mapping_config(tmp_path, "0,1\n2,3\n")
    assert main(["run", str(cfg)]) == 0
    assert "failed" not in capsys.readouterr().err


def test_run_verb_bad_mapping_is_config_error(tmp_path, capsys):
    cfg = write_mapping_config(tmp_path, "0,1\n2;3\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "pairs.csv:2" in err
    assert not os.path.exists(tmp_path / "run")


def test_run_verb_bad_csv_data_is_config_error(tmp_path, capsys):
    rng = stream(0, "csv")
    for split in ("train", "test"):
        save_csv_dataset(tmp_path / f"{split}.csv", rng.standard_normal((12, 3)),
                         np.arange(12) % 3)
    lines = (tmp_path / "train.csv").read_text().splitlines()
    lines[2] = "1,abc,0.5,0.5"
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    cfg = write_tiny_config(tmp_path, trials=[1, 2],
                            dataset={"kind": "csv", "train_csv": "train.csv",
                                     "test_csv": "test.csv"})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "train.csv:3" in err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_run_verb_one_class_labels_name_the_labels_file(tmp_path, capsys, kind):
    # 20 training rows, every label 0
    if kind == "csv":
        for split, n in (("train", 20), ("test", 5)):
            save_csv_dataset(tmp_path / f"{split}.csv", np.zeros((n, 3)), np.zeros(n, dtype=int))
        dataset, labels = {"kind": "csv", "train_csv": "train.csv", "test_csv": "test.csv"}, "train.csv"
    else:
        for split, n in (("train", 20), ("test", 5)):
            write_idx(tmp_path / f"{split}-img", tmp_path / f"{split}-lbl",
                      np.zeros((n, 2, 2), dtype=np.uint8), np.zeros(n, dtype=np.uint8))
        dataset = {"kind": "idx", "train_images": "train-img", "train_labels": "train-lbl",
                   "test_images": "test-img", "test_labels": "test-lbl"}
        labels = "train-lbl"
    assert main(["run", str(write_tiny_config(tmp_path, dataset=dataset))]) == 1
    assert capsys.readouterr().err == (f"config error: {tmp_path / labels}: labels must span "
                                       "at least 2 classes, got 1\n")
    assert not os.path.exists(tmp_path / "run")


def test_run_verb_nan_csv_feature_is_config_error(tmp_path, capsys):
    rng = stream(0, "csv")
    for split in ("train", "test"):
        save_csv_dataset(tmp_path / f"{split}.csv", rng.standard_normal((12, 3)),
                         np.arange(12) % 3)
    lines = (tmp_path / "train.csv").read_text().splitlines()
    lines[5] = "2,0.5,nan,0.5"
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    cfg = write_tiny_config(tmp_path, dataset={"kind": "csv", "train_csv": "train.csv",
                                               "test_csv": "test.csv"})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "train.csv:6: feature must be finite" in err
    assert not os.path.exists(tmp_path / "run")


def make_losses_csv(tmp_path):
    from statistics import NormalDist
    zs = np.array([NormalDist().inv_cdf((i + 0.5) / 30) for i in range(30)])
    gaps = [0.05, 0.15, 0.3, 0.2, 0.1]
    losses = np.array([np.concatenate([1.0 + 0.03 * zs, 1.0 + g + 0.03 * zs]) for g in gaps])
    path = tmp_path / "losses.csv"
    save_loss_snapshots(losses, path)
    return path


def test_detect_verb(tmp_path, capsys):
    path = make_losses_csv(tmp_path)
    assert main(["detect-turning-point", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "turning_point 2"
    assert "m1 2" in out and "m2 2" in out and "m3 2" in out


def test_detect_verb_series_out_and_metric(tmp_path, capsys):
    path = make_losses_csv(tmp_path)
    series_path = tmp_path / "series.csv"
    assert main(["detect-turning-point", str(path), "--metric", "m2",
                 "--smooth", "--series-out", str(series_path)]) == 0
    series = np.loadtxt(series_path, delimiter=",", skiprows=1)
    assert list(series[:, 0]) == [0, 1, 2, 3, 4]


def test_detect_verb_checks_the_series_out_directory_before_any_fit(tmp_path, capsys,
                                                                    monkeypatch):
    fits = []
    real = turning.separation_metrics

    def counting(normalized_losses):
        fits.append(1)
        return real(normalized_losses)

    monkeypatch.setattr(turning, "separation_metrics", counting)
    series_path = tmp_path / "missing" / "series.csv"
    assert main(["detect-turning-point", str(make_losses_csv(tmp_path)),
                 "--series-out", str(series_path)]) == 1
    assert capsys.readouterr().err == (f"config error: --series-out {series_path}: "
                                       f"no directory {tmp_path / 'missing'}\n")
    assert fits == []


def test_detect_verb_reloads_written_losses_bit_for_bit(tmp_path, capsys):
    losses = stream(8, "reload").lognormal(0.0, 1.5, size=(6, 40))
    losses[0, :3] = [0.0, 5e-324, 27.631021115928547]
    path = tmp_path / "losses.csv"
    save_loss_snapshots(losses, path)
    epochs, back = load_loss_snapshots(path)
    assert list(epochs) == list(range(6))
    assert np.array_equal(back, losses)
    series_path = tmp_path / "series.csv"
    assert main(["detect-turning-point", str(path), "--series-out", str(series_path)]) == 0
    reloaded = np.loadtxt(series_path, delimiter=",", skiprows=1)
    direct = compute_metric_series(np.arange(6), losses)
    assert np.array_equal(reloaded[:, 0], direct.epochs)
    for j, name in enumerate(("m1", "m2", "m3"), start=1):
        assert reloaded[:, j].tobytes() == getattr(direct, name).tobytes(), name


def test_detect_verb_bad_csv(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("not,a,losses\nfile,at,all\n")
    assert main(["detect-turning-point", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("edit, where", [
    (lambda lines: lines[:-1], "losses.csv: epoch 4 holds 59 samples, epoch 0 holds 60"),
    (lambda lines: lines[:40] + ["0,40,nan"] + lines[41:], "losses.csv:42: loss must be finite"),
    (lambda lines: lines[:40] + ["0,40,inf"] + lines[41:], "losses.csv:42: loss must be finite"),
    (lambda lines: [line for line in lines if line.split(",")[1] in ("0", "1", "2")],
     "losses.csv: each epoch needs at least 4 samples, got 3"),
    (lambda lines: [], "losses.csv: no losses after the header"),
], ids=["uneven_epochs", "nan_loss", "inf_loss", "three_samples", "header_only"])
def test_detect_verb_bad_losses_name_the_file(tmp_path, capsys, edit, where):
    path = make_losses_csv(tmp_path)
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(lines)]) + "\n")
    assert main(["detect-turning-point", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err


def test_detect_verb_bad_metric_flag(tmp_path, capsys):
    path = make_losses_csv(tmp_path)
    assert main(["detect-turning-point", str(path), "--metric", "m9"]) == 1


# the modules that load after importing the CLI, the exit status of a
# detect-turning-point run, and the modules loaded after it
DEFERRED_IMPORTS = """
import json, sys
import selc_lab.cli
def loaded():
    return [name for name in ("numpy.random", "yaml") if name in sys.modules]
after_import = loaded()
status = selc_lab.cli.main(["detect-turning-point", sys.argv[1]])
print(json.dumps([after_import, status, loaded()]))
"""


def test_detect_verb_loads_neither_numpy_random_nor_yaml(tmp_path):
    path = make_losses_csv(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(selc_lab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", DEFERRED_IMPORTS, str(path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert json.loads(out.splitlines()[-1]) == [[], 0, []]


# the modules of OpenSSL's bindings that are loaded after importing the
# CLI, after a detect-turning-point run and after an inspect run
NO_OPENSSL = """
import json, sys
import selc_lab.cli
def loaded():
    return [name for name in ("hashlib", "_hashlib") if name in sys.modules]
seen = [loaded()]
seen.append(selc_lab.cli.main(["detect-turning-point", sys.argv[1]]))
seen.append(loaded())
seen.append(selc_lab.cli.main(["inspect", sys.argv[2]]))
print(json.dumps(seen + [loaded()]))
"""


def test_detect_and_inspect_verbs_load_no_openssl(tmp_path):
    path = make_losses_csv(tmp_path)
    summary = {"method": "selc", "alpha": 0.9, "completed": [1], "failed": {},
               "activation_epochs": {"1": 1}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    src = os.path.dirname(os.path.dirname(os.path.abspath(selc_lab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", NO_OPENSSL, str(path), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert json.loads(out.splitlines()[-1]) == [[], 0, [], 0, []]


def test_inspect_verb(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "method: selc" in out
    assert "test acc" in out
    assert "correction acc" in out
    # a fixed activation epoch: no warm phase to report
    assert "trial 1: activation epoch 1" in out.splitlines()


def test_inspect_verb_prints_the_warm_phase(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, optimizer={"epochs": 6}, trials=[1, 2],
                            method={"activation_epoch": "auto", "detector_patience": 2})
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out.splitlines()
    for seed in ("1", "2"):
        fired, clamped = (("yes" if summary[key][seed] else "no")
                          for key in ("detector_fired", "activation_clamped"))
        assert (f"trial {seed}: activation epoch {summary['activation_epochs'][seed]}, "
                f"turning point estimate {summary['turning_point_estimate'][seed]}, "
                f"detector fired {fired}, activation clamped {clamped}") in out


def test_inspect_verb_prints_no_warm_phase_for_ce(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, method={"name": "ce"})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run")]) == 0
    assert not any(line.startswith("trial ") for line in capsys.readouterr().out.splitlines())


def test_inspect_verb_lists_the_failed_trials_of_a_sweep(tmp_path, capsys):
    acc = {"mean": 0.5, "stddev": 0.0}
    runs = {"0.5": {"last_epoch_test_acc": acc, "activation_epochs": {"1": 1},
                    "failed": {"2": "training diverged"}},
            "0.9": {"last_epoch_test_acc": None, "activation_epochs": {},
                    "failed": {"1": "boom", "2": "bang"}}}
    summary = {"alpha_sweep": ["0.5", "0.9"], "runs": runs, "test_acc_spread": 0.0}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert main(["inspect", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha sweep: 0.5, 0.9",
        "  alpha 0.5: test acc 0.5 +/- 0",
        "    trial 1: activation epoch 1",
        "    trial 2 failed: training diverged",
        "  alpha 0.9: no completed trials",
        "    trial 1 failed: boom",
        "    trial 2 failed: bang",
        "spread: 0",
    ]


def test_inspect_verb_missing_dir(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nowhere")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"method": "selc",', "summary.json:1: not valid JSON"),
    (b'{"method": "selc"}', "summary.json: not a run summary: missing key 'alpha'"),
    (b"[1, 2]", "summary.json: not a run summary"),
    (b'{"method": "\xff"}', "summary.json: not valid JSON"),
], ids=["truncated", "missing_key", "not_an_object", "not_utf8"])
def test_inspect_verb_bad_summary_names_the_file(tmp_path, capsys, content, message):
    (tmp_path / "summary.json").write_bytes(content)
    assert main(["inspect", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.out == ""


# PyYAML follows YAML 1.1, where 6e-2 and 1.0e9 are strings; both verbs
# read them as the floats of YAML 1.2, and a quoted one stays a string
@pytest.mark.parametrize("written, lr", [("6e-2", 0.06), ("1.0e-1", 0.1), ("5E-2", 0.05),
                                         ('"6e-2"', None)],
                         ids=["no_dot", "unsigned_dot", "upper_e", "quoted"])
def test_run_verb_reads_exponent_floats(tmp_path, capsys, written, lr):
    cfg = write_tiny_config(tmp_path)
    text = cfg.read_text()
    assert "lr: 0.05\n" in text
    cfg.write_text(text.replace("lr: 0.05\n", f"lr: {written}\n"))
    if lr is None:
        assert main(["run", str(cfg)]) == 1
        assert "optimizer.lr must be a number, got '6e-2'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")
        return
    assert cli.load_config(cfg).optimizer.lr == lr
    assert main(["run", str(cfg)]) == 0


@pytest.mark.parametrize("written, std", [("2e-1", 0.2), ("2.0e-1", 0.2), ("'2e-1'", None)],
                         ids=["no_dot", "with_dot", "quoted"])
def test_make_blobs_reads_exponent_floats(tmp_path, capsys, written, std):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(f"n: 40\ndim: 3\nnum_classes: 2\ncluster_std: {written}\nseed: 4\n")
    out_dir = tmp_path / "data"
    if std is None:
        assert main(["make-blobs", str(spec), str(out_dir)]) == 1
        assert "blobs.yaml: cluster_std must be a number, got '2e-1'" in capsys.readouterr().err
        assert not os.path.exists(out_dir)
        return
    assert main(["make-blobs", str(spec), str(out_dir)]) == 0
    want = generate_blobs(BlobSpec(n=40, dim=3, num_classes=2, cluster_std=std, seed=4))
    got = load_csv_dataset(out_dir / "train.csv")
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_make_blobs_verb(tmp_path, capsys):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2,
                                    "cluster_std": 0.2, "seed": 4}))
    out_dir = tmp_path / "data"
    assert main(["make-blobs", str(spec), str(out_dir)]) == 0
    feats, labels = load_csv_dataset(out_dir / "train.csv")
    assert feats.shape == (40, 3)
    assert set(np.unique(labels)) == {0, 1}
    test_feats, _ = load_csv_dataset(out_dir / "test.csv")
    assert test_feats.shape == (10, 3)


@pytest.mark.parametrize("text, message", [
    ("n: 40\nnum_classes: 2\n", "missing keys in the blob spec: ['dim']"),
    ("", "missing keys in the blob spec: ['n', 'dim', 'num_classes']"),
    ("- 40\n", "the blob spec must be a mapping"),
], ids=["missing", "empty", "list"])
def test_make_blobs_names_a_missing_key(tmp_path, capsys, text, message):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(text)
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"config error: {spec}: {message}\n"
    assert not os.path.exists(tmp_path / "d")


def test_make_blobs_rejects_unknown_keys(tmp_path, capsys):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2, "shape": "moons"}))
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"config error: {spec}: unknown keys in the blob spec: ['shape']\n"


# BlobSpec holds every blob rule, so run and make-blobs word each alike
@pytest.mark.parametrize("fields, message", [
    ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
    ({"n": 5, "num_classes": 6}, "n must be >= num_classes, got 5"),
    ({"test_n": 1}, "test_n (default n // 4) must be >= num_classes, got 1"),
    ({"dim": 0}, "dim must be >= 1, got 0"),
    ({"cluster_std": 0}, "cluster_std must be positive, got 0"),
    ({"seed": 2**64}, "seed must be in [-2**63, 2**63), got 18446744073709551616"),
], ids=["one_class", "n_below_num_classes", "test_split_too_small", "no_dim",
        "no_cluster_std", "seed_past_64_bits"])
def test_run_and_make_blobs_word_a_blob_rule_alike(tmp_path, capsys, fields, message):
    blob = {"n": 40, "dim": 3, "num_classes": 2, "cluster_std": 0.2, "seed": 4, **fields}
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump(blob))
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"config error: {spec}: {message}\n"
    assert main(["run", str(write_tiny_config(tmp_path, dataset=blob))]) == 1
    assert capsys.readouterr().err == f"config error: dataset.{message}\n"
    assert not os.path.exists(tmp_path / "d") and not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("fields, message", [
    ({"n": 10.5}, "n must be an integer, got 10.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"dim": True}, "dim must be an integer, got True"),
    ({"test_n": 1}, "test_n (default n // 4) must be >= num_classes, got 1"),
    ({"cluster_std": "wide"}, "cluster_std must be a number, got 'wide'"),
    ({"seed": 2**64}, "seed must be in [-2**63, 2**63), got 18446744073709551616"),
    ({"n": 10**11}, "n must be smaller"),
], ids=["float_n", "float_seed", "bool_dim", "test_split_too_small", "str_cluster_std",
        "seed_past_64_bits", "too_large_for_memory"])
def test_make_blobs_bad_spec_writes_nothing(tmp_path, capsys, fields, message):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2,
                                    "cluster_std": 0.2, "seed": 4, **fields}))
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"blobs.yaml: {message}" in err
    assert not os.path.exists(tmp_path / "d")


def array_memory_error():
    """numpy's error for an allocation that failed, made without allocating."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy 1
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((2**40,), np.dtype(np.float64))


@pytest.mark.parametrize("callee, error, message", [
    ("run_experiment", MemoryError(), "MemoryError"),
    ("losses_file_series", array_memory_error(), "Unable to allocate 8.00 TiB"),
], ids=["run_bare", "detect_numpy"])
def test_memory_error_is_one_runtime_error_line(tmp_path, capsys, monkeypatch, callee, error,
                                                message):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, exhausted)
    argv = (["run", str(write_tiny_config(tmp_path))] if callee == "run_experiment"
            else ["detect-turning-point", str(make_losses_csv(tmp_path))])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {message}") and err.count("\n") == 1


def test_memory_error_in_the_data_build_leaves_no_out_dir(tmp_path, capsys,
                                                         replace_everywhere):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    replace_everywhere(generate_blobs, exhausted)
    assert main(["run", str(write_tiny_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err == "runtime error: MemoryError\n"
    assert not os.path.exists(tmp_path / "run")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1


def test_run_summary_readable_by_inspect_after_sweep(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, method={"name": "selc", "alpha": [0.5, 0.9],
                                              "activation_epoch": 1})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "alpha sweep: 0.5, 0.9" in out
    # each alpha's trials, indented under it
    lines = out.splitlines()
    under = [lines[i + 1] for i, line in enumerate(lines) if line.startswith("  alpha ")]
    assert under == ["    trial 1: activation epoch 1"] * 2


def csv_run(tmp_path):
    """A run on CSV data with mapping-file noise: config.yaml, train.csv,
    test.csv and pairs.txt."""
    rng = stream(0, "csv")
    for split in ("train", "test"):
        save_csv_dataset(tmp_path / f"{split}.csv", rng.standard_normal((12, 3)),
                         np.arange(12) % 3)
    (tmp_path / "pairs.txt").write_text("# flips\n0 1\n2,0\n")
    cfg = write_tiny_config(tmp_path, dataset={"kind": "csv", "train_csv": "train.csv",
                                               "test_csv": "test.csv"},
                            noise={"kind": "asymmetric", "eta": 0.3, "mapping_file": "pairs.txt"})
    return ["run", str(cfg)]


def idx_run(tmp_path):
    """A run on IDX data: config.yaml and four IDX files."""
    rng = stream(1, "idx")
    for split in ("train", "test"):
        write_idx(tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx",
                  rng.integers(0, 256, size=(12, 2, 2)), np.arange(12) % 3)
    cfg = write_tiny_config(tmp_path, dataset={
        "kind": "idx", "train_images": "train-images.idx", "train_labels": "train-labels.idx",
        "test_images": "test-images.idx", "test_labels": "test-labels.idx"})
    return ["run", str(cfg)]


def detect_run(tmp_path):
    return ["detect-turning-point", str(make_losses_csv(tmp_path))]


def inspect_run(tmp_path):
    summary = {"method": "selc", "alpha": 0.9, "completed": [1], "failed": {},
               "last_epoch_test_acc": {"mean": 0.5, "stddev": 0.0}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    return ["inspect", str(tmp_path)]


def replace_line(lineno, new):
    def edit(raw):
        lines = raw.split(b"\n")
        lines[lineno - 1] = new
        return b"\n".join(lines)
    return edit


# (command, file, edit of its bytes, what stderr must name)
MALFORMED = {
    "yaml_syntax": (csv_run, "config.yaml", lambda raw: raw.replace(b"kind: csv", b"kind: [csv"),
                    "config.yaml"),
    "yaml_not_utf8": (csv_run, "config.yaml", lambda raw: raw + b"# \xff\n", "config.yaml"),
    "yaml_field_type": (csv_run, "config.yaml", lambda raw: raw.replace(b"eta: 0.3", b"eta: high"),
                        "noise.eta"),
    "csv_non_ascii_label": (csv_run, "train.csv", replace_line(3, "ᅰ,0.5,0.5,0.5".encode()),
                            "train.csv:3"),
    "csv_separator_in_float": (csv_run, "train.csv", replace_line(4, b"1,0.5,1\x1c5,0.5"),
                               "train.csv:4"),
    "csv_nan_feature": (csv_run, "train.csv", replace_line(5, b"2,nan,0.5,0.5"), "train.csv:5"),
    "csv_not_utf8": (csv_run, "test.csv", replace_line(6, b"0,0.\xff5,0.5,0.5"), "test.csv:6"),
    "mapping_underscore": (csv_run, "pairs.txt", replace_line(2, b"0 1_0"), "pairs.txt:2"),
    "mapping_non_ascii_digit": (csv_run, "pairs.txt", replace_line(3, "2,٠".encode()),
                                "pairs.txt:3"),
    "mapping_three_fields": (csv_run, "pairs.txt", replace_line(2, b"0 1 2"), "pairs.txt:2"),
    "idx_truncated": (idx_run, "train-images.idx", lambda raw: raw[:-3], "train-images.idx"),
    "idx_trailing_bytes": (idx_run, "test-labels.idx", lambda raw: raw + b"\0",
                           "test-labels.idx"),
    "idx_bad_magic": (idx_run, "train-labels.idx", lambda raw: b"\0\0\x09" + raw[3:],
                      "train-labels.idx"),
    "idx_huge_count": (idx_run, "test-images.idx", lambda raw: raw[:4] + b"\x7f" + raw[5:],
                       "test-images.idx"),
    "losses_separator_in_float": (detect_run, "losses.csv", replace_line(3, b"0,1,1\x1c5"),
                                  "losses.csv:3"),
    "losses_header": (detect_run, "losses.csv", replace_line(1, b"epoch,id,loss"), "losses.csv"),
    "losses_not_utf8": (detect_run, "losses.csv", replace_line(4, b"0,2,1.\xff"), "losses.csv:4"),
    "summary_not_json": (inspect_run, "summary.json", lambda raw: raw[:-1], "summary.json"),
    "summary_not_utf8": (inspect_run, "summary.json", lambda raw: b"\xff" + raw, "summary.json"),
    "summary_missing_key": (inspect_run, "summary.json",
                            lambda raw: raw.replace(b'"alpha"', b'"beta"'), "summary.json"),
    "yaml_int_and_str_keys": (csv_run, "config.yaml",
                              lambda raw: raw.replace(b"dataset:\n", b"dataset:\n  1: a\n  b: c\n"),
                              "'dataset': [1, 'b']"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_one_and_names_the_file(tmp_path, capsys, case):
    command, name, edit, named = MALFORMED[case]
    argv = command(tmp_path)
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    # an exception escaping main would print a traceback and exit 2
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and named in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("command", [csv_run, idx_run, detect_run, inspect_run],
                         ids=lambda command: command.__name__)
def test_unedited_inputs_of_the_malformed_cases_succeed(tmp_path, capsys, command):
    assert main(command(tmp_path)) == 0


def blobs_run(tmp_path):
    (tmp_path / "blobs.yaml").write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2}))
    return ["make-blobs", str(tmp_path / "blobs.yaml"), str(tmp_path / "data")]


# (command, the input that is made a directory)
DIRECTORY_INPUTS = {
    "run": (csv_run, "config.yaml"),
    "detect-turning-point": (detect_run, "losses.csv"),
    "inspect": (inspect_run, "summary.json"),
    "make-blobs": (blobs_run, "blobs.yaml"),
    "dataset.train_csv": (csv_run, "train.csv"),
    "noise.mapping_file": (csv_run, "pairs.txt"),
}


@pytest.mark.parametrize("case", DIRECTORY_INPUTS)
def test_a_directory_input_exits_one_and_names_it(tmp_path, capsys, case):
    command, name = DIRECTORY_INPUTS[case]
    argv = command(tmp_path)
    path = tmp_path / name
    path.unlink()
    path.mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err, err
    assert not os.path.exists(tmp_path / "run")


def test_an_input_under_a_file_exits_one_and_names_it(tmp_path, capsys):
    path = make_losses_csv(tmp_path) / "losses.csv"
    assert main(["detect-turning-point", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err, err
