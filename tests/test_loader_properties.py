"""Properties of the two loaders that do not read delimited tables: IDX
image/label pairs and noise mapping files.

A valid file loads back exactly what was written. A valid file with one
edit fails with a ``FormatError`` that names the edited file (and, for a
mapping file, the edited line); no bare ``ValueError``, ``struct.error``
or ``MemoryError`` may escape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selc_lab.data import load_idx, write_idx
from selc_lab.errors import FormatError
from selc_lab.noise import load_mapping

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
# bytes in the header of each IDX file: magic, count, then rows and cols
HEADER = {"images": 16, "labels": 8}


@st.composite
def idx_pairs(draw):
    count, rows, cols = (draw(st.integers(1, 5)) for _ in range(3))
    pixels = draw(st.binary(min_size=count * rows * cols, max_size=count * rows * cols))
    labels = draw(st.binary(min_size=count, max_size=count))
    images = np.frombuffer(pixels, np.uint8).reshape(count, rows, cols)
    return images, np.frombuffer(labels, np.uint8)


def write_pair(tmp_path, images, labels):
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    write_idx(paths["images"], paths["labels"], images, labels)
    return paths


def assert_names_file(paths, path):
    with pytest.raises(FormatError) as info:
        load_idx(paths["images"], paths["labels"])
    assert str(info.value).startswith(f"{path}: "), str(info.value)


@PROPERTY
@given(pair=idx_pairs())
def test_idx_pair_loads_back_exactly(tmp_path, pair):
    images, labels = pair
    paths = write_pair(tmp_path, images, labels)
    features, back = load_idx(paths["images"], paths["labels"])
    assert np.array_equal(np.round(features * 255).astype(np.uint8),
                          images.reshape(len(images), -1))
    assert np.array_equal(back, labels)


@PROPERTY
@given(pair=idx_pairs(), data=st.data())
def test_idx_header_byte_edit_names_the_file(tmp_path, pair, data):
    # every header field counts: a new magic, count, rows or cols makes
    # the header disagree with the file's length
    paths = write_pair(tmp_path, *pair)
    which = data.draw(st.sampled_from(sorted(HEADER)))
    raw = bytearray(paths[which].read_bytes())
    at = data.draw(st.integers(0, HEADER[which] - 1))
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    paths[which].write_bytes(bytes(raw))
    assert_names_file(paths, paths[which])


@PROPERTY
@given(pair=idx_pairs(), data=st.data())
def test_idx_cut_or_padded_file_names_the_file(tmp_path, pair, data):
    paths = write_pair(tmp_path, *pair)
    which = data.draw(st.sampled_from(sorted(HEADER)))
    raw = paths[which].read_bytes()
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=8))
    paths[which].write_bytes(raw)
    assert_names_file(paths, paths[which])


PAIRS = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=8)
SEPARATORS = st.sampled_from([" ", ",", "\t", ", ", "  "])
COMMENTS = st.sampled_from(["", " # a comment", "#x"])
# printable ASCII without whitespace, the comma or '#', so a token stays one token
JUNK = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                      exclude_characters=",#"), min_size=1, max_size=5)


def is_decimal(token) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return "_" not in token


@st.composite
def mapping_files(draw):
    """(text, pairs, line numbers of the pair lines) of a valid mapping file
    with blank and comment lines between its pairs."""
    pairs = draw(PAIRS)
    lines, where = [], []
    for src, dst in pairs:
        lines.extend(draw(st.lists(st.sampled_from(["", "# pairs", "   "]), max_size=2)))
        lines.append(f"{src}{draw(SEPARATORS)}{dst}{draw(COMMENTS)}")
        where.append(len(lines))
    return "\n".join(lines) + "\n", pairs, where


@PROPERTY
@given(mapping=mapping_files())
def test_mapping_loads_back_exactly(tmp_path, mapping):
    text, pairs, where = mapping
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    assert list(load_mapping(path).items()) == [(f"{path}:{line}", pair)
                                                for line, pair in zip(where, pairs)]


@PROPERTY
@given(mapping=mapping_files(), data=st.data())
def test_mapping_edit_names_its_line(tmp_path, mapping, data):
    text, pairs, where = mapping
    k = data.draw(st.integers(0, len(pairs) - 1))
    tokens = [str(v) for v in pairs[k]]
    edit = data.draw(st.sampled_from(["corrupt", "drop", "add"]))
    if edit == "corrupt":
        j = data.draw(st.integers(0, 1))
        tokens[j] = data.draw(st.one_of(st.sampled_from(["1_0", "٣", "0x1", "1.0", "ᅰ"]),
                                        JUNK.filter(lambda token: not is_decimal(token))))
    elif edit == "drop":
        del tokens[data.draw(st.integers(0, 1))]
    else:
        tokens.insert(data.draw(st.integers(0, 2)), "0")
    lines = text.split("\n")
    lines[where[k] - 1] = data.draw(SEPARATORS).join(tokens)
    path = tmp_path / "pairs.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_mapping(path)
    assert str(info.value).startswith(f"{path}:{where[k]}: "), str(info.value)
