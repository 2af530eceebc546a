import json
import os

import numpy as np
import pytest
import yaml

from selc_lab.cli import main
from selc_lab.data import load_csv_dataset, save_csv_dataset
from selc_lab.rng import stream
from selc_lab.turning import (
    compute_metric_series,
    load_loss_snapshots,
    load_metric_series,
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
])
def test_run_verb_non_integer_field_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_tiny_config(tmp_path, **{"trials": [1, 2], **overrides})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{field} must be" in err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_verb_reports_failed_trials(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, method={"name": "ce"},
                            model={"activation": "relu"},
                            optimizer={"lr": 1e9, "weight_decay": 0.0, "epochs": 30})
    assert main(["run", str(cfg)]) == 2
    assert "failed" in capsys.readouterr().err


def test_run_verb_empty_trials(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, trials=[])
    assert main(["run", str(cfg)]) == 0
    assert "no trials ran" in capsys.readouterr().out


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
    series = load_metric_series(series_path)
    assert list(series.epochs) == [0, 1, 2, 3, 4]


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
    reloaded = load_metric_series(series_path)
    direct = compute_metric_series(np.arange(6), losses)
    for name in ("epochs", "m1", "m2", "m3"):
        assert np.array_equal(getattr(reloaded, name), getattr(direct, name)), name


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


def test_inspect_verb(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "method: selc" in out
    assert "test acc" in out
    assert "correction acc" in out


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


def test_make_blobs_rejects_unknown_keys(tmp_path, capsys):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2, "shape": "moons"}))
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"n": 10.5}, "n must be an integer, got 10.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"dim": True}, "dim must be an integer, got True"),
    ({"test_n": 1}, "test split of size 1 cannot balance 2 classes"),
    ({"cluster_std": "wide"}, "cluster_std must be a number, got 'wide'"),
], ids=["float_n", "float_seed", "bool_dim", "test_split_too_small", "str_cluster_std"])
def test_make_blobs_bad_spec_writes_nothing(tmp_path, capsys, fields, message):
    spec = tmp_path / "blobs.yaml"
    spec.write_text(yaml.safe_dump({"n": 40, "dim": 3, "num_classes": 2,
                                    "cluster_std": 0.2, "seed": 4, **fields}))
    assert main(["make-blobs", str(spec), str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"blobs.yaml: {message}" in err
    assert not os.path.exists(tmp_path / "d")


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
