"""Dataset containers, synthetic blob generation, and IDX/CSV ingestion.

The training loop receives a :class:`TrainView`, which physically lacks
the true labels; the experiment harness keeps those apart and hands them
only to the diagnostics.
"""

import os
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, require
from .rng import check_seed, stream
from .tables import line_of_row, open_text, read_rows

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class TrainView:
    """What the training path is allowed to see: no true labels."""

    features: np.ndarray
    noisy_labels: np.ndarray
    num_classes: int


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field annotation -> (accepts the value, what a value must be)
_FIELD_TYPES = {
    int: (_is_int, "an integer"),
    int | None: (lambda v: v is None or _is_int(v), "an integer"),
    list[int]: (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    float: (_is_number, "a number"),
    float | list[float]: (lambda v: _is_number(v) or (isinstance(v, list) and len(v) > 0
                                                      and all(map(_is_number, v))),
                          "a number or a nonempty list of numbers"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    str | None: (lambda v: v is None or isinstance(v, str), "a string"),
}


def check_field_types(spec, prefix: str = "") -> None:
    """Check each field of dataclass ``spec``, and of the dataclasses nested
    in it, against its annotation in ``_FIELD_TYPES``: a bool is no
    number, and an integer is a number but a float is no integer. The
    ``ParameterError`` names the field."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        name = prefix + f.name
        if is_dataclass(value):
            check_field_types(value, name + ".")
        elif f.type in _FIELD_TYPES:
            accepts, what = _FIELD_TYPES[f.type]
            if not accepts(value):
                raise ParameterError(f"{name} must be {what}, got {value!r}")


@dataclass
class BlobSpec:
    """Isotropic Gaussian clusters around well-separated random centers.

    Building one checks every rule of a blob dataset, each error naming its
    field; a ``test_n`` of None becomes ``n // 4``."""

    n: int
    dim: int
    num_classes: int
    cluster_std: float = 1.0
    seed: int = 0
    test_n: int | None = None

    def __post_init__(self):
        check_field_types(self)
        check_seed(self.seed, "seed")
        require(self.num_classes >= 2, f"num_classes must be >= 2, got {self.num_classes}")
        require(self.n >= self.num_classes, f"n must be >= num_classes, got {self.n}")
        if self.test_n is None:
            self.test_n = self.n // 4
        require(self.test_n >= self.num_classes,
                f"test_n (default n // 4) must be >= num_classes, got {self.test_n}")
        require(self.dim >= 1, f"dim must be >= 1, got {self.dim}")
        require(self.cluster_std > 0, f"cluster_std must be positive, got {self.cluster_std}")


# Fixed center box; cluster_std against it sets task hardness. At std=1.0
# clusters sit 4-5 std apart, close enough that label noise can drag a small
# net's boundary while clean training stays near-perfect.
_CENTER_BOX = 1.6
_CENTER_ATTEMPTS = 1000


def _blob_centers(spec: BlobSpec) -> np.ndarray:
    """Centers drawn uniformly in a box, rejection-resampled so every pair
    is at least 4 * cluster_std apart."""
    rng = stream(spec.seed, "blobs", "centers")
    min_dist = 4.0 * spec.cluster_std
    centers = []
    for _ in range(spec.num_classes):
        for attempt in range(_CENTER_ATTEMPTS):
            cand = rng.uniform(-_CENTER_BOX, _CENTER_BOX, size=spec.dim)
            if all(np.linalg.norm(cand - c) >= min_dist for c in centers):
                centers.append(cand)
                break
        else:
            raise ParameterError(
                f"could not place {spec.num_classes} centers at pairwise distance "
                f">= {min_dist} in {spec.dim}-D after {_CENTER_ATTEMPTS} attempts; "
                "cluster_std too large for this dimension"
            )
    return np.stack(centers)


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    base = n // num_classes
    counts = [base + (1 if c < n % num_classes else 0) for c in range(num_classes)]
    return np.repeat(np.arange(num_classes), counts)


def generate_blobs(spec: BlobSpec, split: str = "train"):
    """Return (features, labels) for the requested split.

    Train and test splits share the same centers but use disjoint point
    streams; everything is deterministic per (spec, split).
    """
    if split not in ("train", "test"):
        raise ParameterError(f"split must be 'train' or 'test', got {split!r}")
    n = spec.n if split == "train" else spec.test_n
    centers = _blob_centers(spec)
    labels = _balanced_labels(n, spec.num_classes)
    rng = stream(spec.seed, "blobs", split)
    features = centers[labels] + spec.cluster_std * rng.standard_normal((n, spec.dim))
    return features, labels


def _read_be32(fh, path, what):
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated while reading {what} at offset {fh.tell() - len(raw)}")
    return struct.unpack(">I", raw)[0]


def _read_payload(fh, path, what, expected):
    # the header's sizes must match the rest of the file exactly, checked
    # before the read, so that a corrupt size cannot ask for a huge buffer
    start = fh.tell()
    got = os.fstat(fh.fileno()).st_size - start
    if got < expected:
        raise FormatError(f"{path}: expected {expected} {what} bytes, got {got} "
                          f"(truncated at offset {start + got})")
    if got > expected:
        raise FormatError(f"{path}: expected {expected} {what} bytes, got {got} "
                          f"({got - expected} trailing bytes)")
    return fh.read(expected)


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair.

    Returns (features, labels) with pixel values scaled to [0, 1] and
    images flattened to rows. Each file must end where its header says.
    """
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{images_path}: bad image magic {magic:#010x} at offset 0")
        count = _read_be32(fh, images_path, "count")
        rows = _read_be32(fh, images_path, "rows")
        cols = _read_be32(fh, images_path, "cols")
        pixels = _read_payload(fh, images_path, "pixel", count * rows * cols)
    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{labels_path}: bad label magic {magic:#010x} at offset 0")
        label_count = _read_be32(fh, labels_path, "count")
        raw = _read_payload(fh, labels_path, "label", label_count)
    if label_count != count:
        raise FormatError(
            f"count mismatch: {images_path} holds {count} images but {labels_path} holds {label_count} labels"
        )
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return features, labels


def write_idx(images_path, labels_path, images, labels) -> None:
    """Write uint8 images (n, rows, cols) and labels (n,) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise DimensionError(f"images must be (n, rows, cols), got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise DimensionError("labels length must match image count")
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        fh.write(labels.tobytes())


def save_csv_dataset(path, features, labels) -> None:
    """Header ``label,f0,...``; full-precision decimals, LF endings."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.shape[0]:
        raise DimensionError("features and labels must agree in length")
    with open(path, "w", newline="\n") as fh:
        fh.write("label," + ",".join(f"f{j}" for j in range(features.shape[1])) + "\n")
        for y, row in zip(labels, features):
            fh.write(str(int(y)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_csv_dataset(path):
    """(features, labels) of a CSV with header ``label,f0,...``: a float64
    (n, width) matrix of finite features and int64 labels >= 0."""
    with open_text(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("label,"):
            raise FormatError(f"{path}: expected header starting with 'label,', got {header!r}")
        rows = read_rows(path, fh, [("label", int), ("feature", float, (header.count(","),))])
    if rows.size == 0:
        raise FormatError(f"{path}: no data rows")
    labels = np.ascontiguousarray(rows["label"])
    if labels.min() < 0:
        row = int(np.argmax(labels < 0))
        raise FormatError(f"{path}:{line_of_row(path, row)}: negative label {labels[row]}")
    return np.ascontiguousarray(rows["feature"]), labels


def load_dataset_files(ds):
    """Read the train and test splits named by an ``idx`` or ``csv``
    dataset spec (a config's dataset section).

    Returns (train_x, train_y, test_x, test_y, num_classes), where the
    class count is one past the largest label. A split with no samples is
    a ``FormatError``; splits of different widths, or labels of fewer than
    2 classes, are a ``ParameterError``.
    """
    if ds.kind == "idx":
        train_path, test_path, labels_path = ds.train_images, ds.test_images, ds.train_labels
        train_x, train_y = load_idx(ds.train_images, ds.train_labels)
        test_x, test_y = load_idx(ds.test_images, ds.test_labels)
    else:
        train_path, test_path, labels_path = ds.train_csv, ds.test_csv, ds.train_csv
        train_x, train_y = load_csv_dataset(ds.train_csv)
        test_x, test_y = load_csv_dataset(ds.test_csv)
    for path, labels in ((train_path, train_y), (test_path, test_y)):
        if labels.size == 0:
            raise FormatError(f"{path}: no samples")
    if train_x.shape[1] != test_x.shape[1]:
        raise ParameterError(f"{train_path} has {train_x.shape[1]} features per sample but "
                             f"{test_path} has {test_x.shape[1]}")
    num_classes = int(max(train_y.max(), test_y.max())) + 1
    # below 2, every label is 0, so the training labels set the count
    require(num_classes >= 2, f"{labels_path}: labels must span at least 2 classes, got {num_classes}")
    return train_x, train_y, test_x, test_y, num_classes
