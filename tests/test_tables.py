"""Properties of the comma-separated-text reader, through each loader that
uses it and directly on the ``--series-out`` table.

A valid file with one field corrupted, dropped or added must fail with a
``FormatError`` that starts ``<file>:<line>:`` for the edited line; no
bare ``ValueError`` or ``IndexError`` may escape. Python-only spellings
that ``np.loadtxt`` rejects (``1_000``, non-ASCII digits, ints past 64
bits) count as corrupt too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selc_lab.data import load_csv_dataset, save_csv_dataset
from selc_lab.errors import FormatError
from selc_lab.rng import stream
from selc_lab.tables import open_text, read_rows
from selc_lab.turning import (
    METRIC_NAMES,
    MetricSeries,
    load_loss_snapshots,
    save_loss_snapshots,
    save_metric_series,
)

# Python's int() and float() read these; np.loadtxt does not, or reads a
# non-finite float
PYTHON_ONLY = {
    int: ["1_000", "١٢", "99999999999999999999"],
    float: ["1_000.5", "١.٥", "nan", "-inf", "Infinity", "1e999"],
}
# printable ASCII without whitespace or the comma, so a token stays one field
JUNK = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                      exclude_characters=","), min_size=1, max_size=6)


def write_losses(path):
    save_loss_snapshots(stream(1, "tables").uniform(0.1, 3.0, size=(2, 4)), path)


def write_csv(path):
    rng = stream(2, "tables")
    save_csv_dataset(path, rng.standard_normal((5, 3)), np.array([0, 1, 2, 0, 1]))


def write_series(path):
    m = stream(4, "tables").uniform(size=(3, 5))
    save_metric_series(MetricSeries(epochs=np.arange(5), m1=m[0], m2=m[1], m3=m[2]), path)


def read_series(path):
    # no command reads a series back; its table of scalar columns goes to
    # read_rows as is
    with open_text(path) as fh:
        fh.readline()
        return read_rows(path, fh, [("epoch", int), *((m, float) for m in METRIC_NAMES)])


# name -> (writer, loader, field kinds)
FORMATS = {
    "losses": (write_losses, load_loss_snapshots, (int, int, float)),
    "csv": (write_csv, load_csv_dataset, (int, float, float, float)),
    "series": (write_series, read_series, (int, float, float, float)),
}


def reads(kind, token) -> bool:
    try:
        value = kind(token)
    except ValueError:
        return False
    return kind is int or np.isfinite(value)


def bad_token(kind):
    return st.one_of(st.sampled_from(PYTHON_ONLY[kind]),
                     JUNK.filter(lambda token: not reads(kind, token)))


def assert_names_line(load, path, lineno):
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:{lineno}: "), str(info.value)


@pytest.mark.parametrize("name", FORMATS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_bad_field_names_its_line(tmp_path, name, data):
    write, load, kinds = FORMATS[name]
    path = tmp_path / f"{name}.txt"
    write(path)
    lines = path.read_text().splitlines()
    edit = data.draw(st.sampled_from(["corrupt", "drop", "add"]))
    lineno = data.draw(st.integers(2, len(lines)))
    fields = lines[lineno - 1].split(",")
    j = data.draw(st.integers(0, len(fields) - 1))
    if edit == "corrupt":
        fields[j] = data.draw(bad_token(kinds[j]))
    elif edit == "drop":
        del fields[j]
    else:
        fields.insert(j, "0")
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_names_line(load, path, lineno)


@pytest.mark.parametrize("kind", [int, float], ids=["int", "float"])
@pytest.mark.parametrize("name", FORMATS)
def test_python_only_spellings_name_their_line(tmp_path, name, kind):
    write, load, kinds = FORMATS[name]
    path = tmp_path / f"{name}.txt"
    write(path)
    lines = path.read_text().splitlines()
    j = kinds.index(kind)
    for token in PYTHON_ONLY[kind]:
        edited = list(lines)
        fields = edited[2].split(",")
        fields[j] = token
        edited[2] = ",".join(fields)
        path.write_text("\n".join(edited) + "\n", encoding="utf-8")
        assert_names_line(load, path, 3)


# np.loadtxt reads some of these inside a number (U+1170 as the digit 0);
# no loader may read any of them
STRAY = ["ᅰ", "\x1c", "\x1f", "\x00", "\x7f", "\x0b", "é"]


@pytest.mark.parametrize("stray", STRAY, ids=[f"U+{ord(c):04X}" for c in STRAY])
@pytest.mark.parametrize("field", [0, -1], ids=["int", "float"])
@pytest.mark.parametrize("name", FORMATS)
def test_stray_characters_name_their_line(tmp_path, name, field, stray):
    write, load, _ = FORMATS[name]
    path = tmp_path / f"{name}.txt"
    write(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[field] = fields[field][:1] + stray + fields[field][1:]
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_names_line(load, path, 3)


@pytest.mark.parametrize("name", FORMATS)
def test_bad_utf8_names_its_line(tmp_path, name):
    write, load, _ = FORMATS[name]
    path = tmp_path / f"{name}.txt"
    write(path)
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
    path.write_bytes(b"\n".join(lines))
    assert_names_line(load, path, 4)
