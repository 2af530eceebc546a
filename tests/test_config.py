import os
import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from selc_lab.config import (
    AUTO,
    DATASET_KINDS,
    NOISE_KINDS,
    SECTIONS,
    MethodSpecConfig,
    alpha_values,
    config_from_dict,
    load_config,
    validate_config,
)
from selc_lab.data import save_csv_dataset, write_idx
from selc_lab.errors import FormatError, ParameterError
from selc_lab.mlp import ACTIVATIONS
from selc_lab.training import METHODS
from selc_lab.turning import METRIC_NAMES


def minimal_dict(**overrides):
    data = {
        "dataset": {"kind": "blobs", "n": 60, "dim": 3, "num_classes": 3, "cluster_std": 0.3},
        "noise": {"kind": "symmetric", "eta": 0.4},
        "model": {"hidden_dims": [8], "activation": "tanh"},
        "optimizer": {"lr": 0.05, "epochs": 2, "batch_size": 16},
        "method": {"name": "selc", "alpha": 0.9, "activation_epoch": 1},
        "trials": [1],
        "out_dir": "out",
    }
    data.update(overrides)
    return data


def test_defaults_fill_missing_sections():
    cfg = config_from_dict({"dataset": {"kind": "blobs"}})
    assert cfg.dataset.n == 4000
    assert cfg.noise.kind == "symmetric" and cfg.noise.eta == 0.4
    assert cfg.optimizer.batch_size == 128
    assert cfg.method.name == "ce"
    assert cfg.trials == [0]


def test_unknown_keys_rejected():
    with pytest.raises(ParameterError) as err:
        config_from_dict(minimal_dict(extra_section={}))
    assert "extra_section" in str(err.value)
    for section, key in (("optimizer", "turbo"), ("method", "smooth")):
        bad = minimal_dict()
        bad[section][key] = True
        with pytest.raises(ParameterError) as err:
            config_from_dict(bad)
        assert key in str(err.value)


def test_relative_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    save_csv_dataset(sub / "train.csv", np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    save_csv_dataset(sub / "test.csv", np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    data = minimal_dict()
    data["dataset"] = {"kind": "csv", "train_csv": "train.csv", "test_csv": "test.csv"}
    path = sub / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    cfg = load_config(path)
    assert cfg.dataset.train_csv == str(sub / "train.csv")
    assert cfg.out_dir == str(sub / "out")
    # absolute paths pass through untouched
    data["out_dir"] = str(tmp_path / "elsewhere")
    path.write_text(yaml.safe_dump(data))
    assert load_config(path).out_dir == str(tmp_path / "elsewhere")


def test_missing_dataset_files_rejected(tmp_path):
    data = minimal_dict()
    data["dataset"] = {"kind": "csv", "train_csv": "nope.csv", "test_csv": "nope2.csv"}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ParameterError) as err:
        load_config(path)
    assert "nope.csv" in str(err.value)


def test_dataset_files_parsed_on_load(tmp_path):
    # csv: a bad feature names its file and line, mismatched widths are caught
    save_csv_dataset(tmp_path / "train.csv", np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    save_csv_dataset(tmp_path / "test.csv", np.zeros((4, 3)), np.array([0, 1, 0, 1]))
    data = minimal_dict(dataset={"kind": "csv", "train_csv": "train.csv", "test_csv": "test.csv"})
    with pytest.raises(ParameterError, match=r"train\.csv has 2 features per sample"):
        config_from_dict(data, base_dir=str(tmp_path))
    save_csv_dataset(tmp_path / "test.csv", np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    assert config_from_dict(data, base_dir=str(tmp_path)).dataset.kind == "csv"
    # the labels give the class count, so a mapping class outside it fails here
    (tmp_path / "map.csv").write_text("0,1\n1,2\n")
    mapped = dict(data, noise={"kind": "asymmetric", "eta": 0.4, "mapping_file": "map.csv"})
    with pytest.raises(ParameterError, match=r"map\.csv:2: mapping 1->2"):
        config_from_dict(mapped, base_dir=str(tmp_path))
    lines = (tmp_path / "train.csv").read_text().splitlines()
    lines[2] = "1,abc,0.0"
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"train\.csv:3:"):
        config_from_dict(data, base_dir=str(tmp_path))
    # idx: a corrupt labels file is a config error, a good pair loads; a
    # training split too small for the turning-point GMM is rejected
    data = minimal_dict(dataset={"kind": "idx", "train_images": "train-img",
                                 "train_labels": "train-lbl", "test_images": "test-img",
                                 "test_labels": "test-lbl"})
    for n in (3, 4):
        for split in ("train", "test"):
            write_idx(tmp_path / f"{split}-img", tmp_path / f"{split}-lbl",
                      np.zeros((n, 2, 2), dtype=np.uint8), np.arange(n, dtype=np.uint8) % 3)
        if n == 3:
            with pytest.raises(ParameterError, match=r"dataset\.train_images: need at least 4"):
                config_from_dict(data, base_dir=str(tmp_path))
    assert config_from_dict(data, base_dir=str(tmp_path)).dataset.kind == "idx"
    (tmp_path / "test-lbl").write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="test-lbl"):
        config_from_dict(data, base_dir=str(tmp_path))
    write_idx(tmp_path / "test-img", tmp_path / "test-lbl", np.zeros((0, 2, 2), dtype=np.uint8),
              np.zeros(0, dtype=np.uint8))
    with pytest.raises(FormatError, match="test-img: no samples"):
        config_from_dict(data, base_dir=str(tmp_path))


def test_alpha_list_forms():
    assert alpha_values(MethodSpecConfig(alpha=0.9)) == [0.9]
    assert alpha_values(MethodSpecConfig(alpha=[0.7, 0.9])) == [0.7, 0.9]
    cfg = config_from_dict(minimal_dict(method={"name": "selc", "alpha": [0.7, 0.9, 0.99]}))
    assert alpha_values(cfg.method) == [0.7, 0.9, 0.99]


def blobs(**fields):
    return {"dataset": {**minimal_dict()["dataset"], **fields}}


def test_validation_catches_bad_values():
    cases = [
        ({"dataset": {"kind": "parquet"}}, "dataset.kind"),
        (blobs(num_classes=1), "dataset.num_classes"),
        (blobs(n=5, num_classes=6), "dataset.n"),
        (blobs(test_n=1), "dataset.test_n"),
        (blobs(dim=0), "dataset.dim"),
        (blobs(cluster_std=0), "dataset.cluster_std"),
        (blobs(seed=2**64), "dataset.seed"),
        ({"noise": {"kind": "speckle"}}, "noise.kind"),
        ({"noise": {"kind": "symmetric", "eta": 1.0}}, "noise.eta"),
        ({"model": {"hidden_dims": []}}, "model.hidden_dims"),
        ({"model": {"hidden_dims": [8], "activation": "swish"}}, "model.activation"),
        ({"optimizer": {"lr": 0.0}}, "optimizer.lr"),
        ({"optimizer": {"milestones": [5, 3]}}, "optimizer.milestones"),
        ({"optimizer": {"epochs": 0}}, "optimizer.epochs"),
        ({"method": {"name": "selc", "alpha": 1.0}}, "method.alpha"),
        ({"method": {"name": "selc", "activation_epoch": "soon"}}, "method.activation_epoch"),
        ({"method": {"name": "selc", "activation_epoch": True}}, "method.activation_epoch"),
        ({"method": {"name": "selc", "metric_choice": "m9"}}, "method.metric_choice"),
        ({"method": {"name": "selc", "detector_patience": 0}}, "method.detector_patience"),
        ({"method": {"name": "bootstrap", "beta": 1.5}}, "method.beta"),
        ({"method": {"name": "selc_plus", "plus_epochs": 0}}, "method.plus_epochs"),
        ({"trials": [1, 1]}, "trials"),
        ({"trials": [1, True]}, "trials"),
        ({"out_dir": ""}, "out_dir"),
    ]
    for overrides, name in cases:
        with pytest.raises(ParameterError) as err:
            config_from_dict(minimal_dict(**overrides))
        assert str(err.value).startswith(f"{name} "), str(err.value)


def test_unknown_method_name_lists_every_method():
    with pytest.raises(ParameterError) as err:
        config_from_dict(minimal_dict(method={"name": "mixup"}))
    assert str(err.value) == ("method.name must be one of ('ce', 'bootstrap', 'selc', "
                              "'option1', 'selc_plus'), got 'mixup'")


def test_alphas_that_share_a_sweep_directory_are_named():
    data = minimal_dict(method={"name": "selc", "alpha": [0.7, 0.9, 0.9000001]})
    with pytest.raises(ParameterError, match=r"but 0\.9 and 0\.9000001 both write alpha_0\.9$"):
        config_from_dict(data)
    # only a sweep writes alpha directories
    assert alpha_values(config_from_dict(minimal_dict(
        method={"name": "ce", "alpha": [0.9, 0.9000001]})).method) == [0.9, 0.9000001]


def test_auto_activation_epoch_accepted():
    cfg = config_from_dict(minimal_dict(method={"name": "selc", "activation_epoch": AUTO}))
    assert cfg.method.activation_epoch == AUTO
    cfg = config_from_dict(minimal_dict(method={"name": "selc", "activation_epoch": 0}))
    assert cfg.method.activation_epoch == 0


def test_asymmetric_noise_requires_mapping(tmp_path):
    data = minimal_dict(noise={"kind": "asymmetric", "eta": 0.4})
    with pytest.raises(ParameterError):
        config_from_dict(data, base_dir=str(tmp_path))
    mapping = tmp_path / "map.txt"
    mapping.write_text("0 1\n1 0\n")
    data["noise"]["mapping_file"] = "map.txt"
    cfg = config_from_dict(data, base_dir=str(tmp_path))
    assert cfg.noise.mapping_file == str(mapping)


def test_asymmetric_mapping_checked_on_load(tmp_path):
    data = minimal_dict(noise={"kind": "asymmetric", "eta": 0.4, "mapping_file": "map.csv"})
    mapping = tmp_path / "map.csv"
    mapping.write_text("0,1\n1\n")
    with pytest.raises(FormatError, match=r"map\.csv:2:"):
        config_from_dict(data, base_dir=str(tmp_path))
    # blob class count is known at load, so out-of-range classes fail there
    # too, as do a self-map and a repeated source, each naming its line
    for text, message in (("0,1\n1,99\n", r"map\.csv:2: mapping 1->99 outside \[0, 3\)"),
                          ("0,1\n# self\n2 2\n", r"map\.csv:3: mapping 2->2 maps a class to itself"),
                          ("0,1\n1,2\n0,2\n", r"map\.csv:3: class 0 appears twice as a mapping source")):
        mapping.write_text(text)
        with pytest.raises(ParameterError, match=message):
            config_from_dict(data, base_dir=str(tmp_path))


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("dataset: [unclosed\n")
    with pytest.raises(ParameterError):
        load_config(p)
    p.write_text("")
    with pytest.raises(ParameterError):
        load_config(p)
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.yaml")


def test_scalar_section_rejected():
    with pytest.raises(ParameterError):
        config_from_dict(minimal_dict(model="big"))
    with pytest.raises(ParameterError):
        config_from_dict("just a string")


def test_validate_config_direct_call():
    cfg = config_from_dict(minimal_dict())
    validate_config(cfg)
    cfg.optimizer.batch_size = 0
    with pytest.raises(ParameterError):
        validate_config(cfg)


def test_readme_config_block_names_every_field_and_choice():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Config format", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
    words = set(re.findall(r"\w+", block))
    names = [f.name for cls in SECTIONS.values() for f in fields(cls)]
    names += [*DATASET_KINDS, *NOISE_KINDS, *METHODS, *ACTIVATIONS, *METRIC_NAMES]
    assert [name for name in names if name not in words] == []


def test_repo_desk_benchmark_config_loads():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(here, "configs", "desk_benchmark.yaml"))
    assert cfg.dataset.n == 4000 and cfg.dataset.dim == 16
    assert cfg.dataset.num_classes == 4 and cfg.dataset.cluster_std == 1.0
    assert cfg.noise.eta == 0.4
    assert cfg.model.hidden_dims == [64, 64]
    assert cfg.optimizer.epochs == 60
    assert cfg.optimizer.milestones == [24, 48]
    assert cfg.optimizer.batch_size == 128 and cfg.optimizer.momentum == 0.9
    assert cfg.method.activation_epoch == AUTO
    assert cfg.trials == [1, 2, 3]
