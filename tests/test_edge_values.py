"""Edge values in every config and blob-spec field.

Each field of ``config.SECTIONS``, ``trials`` and each ``BlobSpec`` field
is set in turn to each value of ``EDGE_VALUES``. The value must load, or
fail at load with a message that starts with its field; a rule between
two fields may start with the other one, if it names this field. A float
field whose value loads must then run: exit 0, or exit 2 only for a
training that diverged. The field lists come from the dataclasses, so a
new field is covered without editing this file.
"""

import math
import re
from dataclasses import fields

import pytest
import yaml

import selc_lab.config as config
from selc_lab.cli import main
from selc_lab.config import SECTIONS, config_from_dict
from selc_lab.data import BlobSpec
from selc_lab.errors import ParameterError

EDGE_VALUES = (0, -1, math.nan, math.inf, -math.inf, 1e30, 10**30, True, "x")
EDGE_IDS = ("zero", "minus_one", "nan", "inf", "minus_inf", "float_1e30", "int_1e30", "true",
            "string")
# floats whose value loads are run; counts are not, since a count that
# loads only lengthens a run (plus_epochs: 10**30 trains for ever)
FLOATS = (float, float | list[float])


def base_config(tmp_path):
    return {
        "dataset": {"kind": "blobs", "n": 40, "dim": 3, "num_classes": 2, "cluster_std": 0.3,
                    "seed": 0},
        "noise": {"kind": "symmetric", "eta": 0.4},
        # relu, so that a huge lr or weight_decay diverges
        "model": {"hidden_dims": [4], "activation": "relu"},
        "optimizer": {"lr": 0.05, "epochs": 2, "batch_size": 16},
        "method": {"name": "selc_plus", "alpha": 0.9, "activation_epoch": 1, "plus_epochs": 1},
        "trials": [1],
        "out_dir": str(tmp_path / "run"),
    }


CONFIG_FIELDS = [(section, f.name, f.type) for section, cls in SECTIONS.items()
                 for f in fields(cls)] + [(None, "trials", list[int])]


def starts_with_field(message, field, names):
    """Whether ``message`` starts with ``field``, or with another of the
    dotted ``names`` and then names ``field``'s last part."""
    if re.match(rf"{re.escape(field)}\b", message):
        return True
    bare = field.rsplit(".", 1)[-1]
    return (any(re.match(rf"{re.escape(name)}\b", message) for name in names)
            and re.search(rf"\b{re.escape(bare)}\b", message) is not None)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=EDGE_IDS)
def test_every_config_field_loads_or_names_itself(tmp_path, capsys, monkeypatch, value):
    # every run stays in this process
    monkeypatch.setattr(config, "fork_workers", lambda tasks: 1)
    names = [f"{section}.{name}" if section else name for section, name, _ in CONFIG_FIELDS]
    for (section, name, kind), field in zip(CONFIG_FIELDS, names):
        data = base_config(tmp_path)
        if section:
            data[section][name] = value
        else:
            data[name] = value
        try:
            config_from_dict(data)
        except ParameterError as exc:
            assert starts_with_field(str(exc), field, names), (field, value, str(exc))
            continue
        if kind not in FLOATS:
            continue
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        if code == 2:
            # only a trial whose training diverged may fail
            assert err.startswith("trial 1 failed: TrainingDivergenceError: "), (field, value, err)
        else:
            assert code == 0, (field, value, err)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=EDGE_IDS)
def test_every_blob_spec_field_loads_or_names_itself(tmp_path, capsys, value):
    names = [f.name for f in fields(BlobSpec)]
    for name in names:
        spec = {"n": 40, "dim": 3, "num_classes": 2, "cluster_std": 0.3, "seed": 4, name: value}
        path = tmp_path / "blobs.yaml"
        path.write_text(yaml.safe_dump(spec))
        code = main(["make-blobs", str(path), str(tmp_path / "d")])
        err = capsys.readouterr().err
        if code != 0:
            prefix = f"config error: {path}: "
            assert code == 1 and err.startswith(prefix), (name, value, err)
            assert starts_with_field(err[len(prefix):], name, names), (name, value, err)
