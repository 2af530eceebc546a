import numpy as np
import pytest

from selc_lab.data import (
    BlobSpec,
    TrainView,
    generate_blobs,
    load_csv_dataset,
    load_idx,
    save_csv_dataset,
    write_idx,
)
from selc_lab.errors import DimensionError, FormatError, ParameterError
from selc_lab.rng import stream


def test_blob_spec_validation():
    with pytest.raises(ParameterError):
        BlobSpec(n=10, dim=2, num_classes=1)
    with pytest.raises(ParameterError):
        BlobSpec(n=2, dim=2, num_classes=4)
    with pytest.raises(ParameterError):
        BlobSpec(n=10, dim=0, num_classes=2)
    with pytest.raises(ParameterError):
        BlobSpec(n=10, dim=2, num_classes=2, cluster_std=0.0)


def test_blobs_deterministic_per_spec():
    spec = BlobSpec(n=100, dim=5, num_classes=3, cluster_std=0.3, seed=9)
    xa, ya = generate_blobs(spec)
    xb, yb = generate_blobs(spec)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    xc, _ = generate_blobs(BlobSpec(n=100, dim=5, num_classes=3, cluster_std=0.3, seed=10))
    assert not np.array_equal(xa, xc)


def test_blobs_balanced_labels():
    _, y = generate_blobs(BlobSpec(n=103, dim=3, num_classes=4, cluster_std=0.2, seed=0))
    counts = np.bincount(y, minlength=4)
    # remainder spreads over the first classes
    assert list(counts) == [26, 26, 26, 25]


def test_blobs_class_centers_well_separated():
    spec = BlobSpec(n=400, dim=8, num_classes=4, cluster_std=0.3, seed=3)
    x, y = generate_blobs(spec)
    centers = np.stack([x[y == c].mean(axis=0) for c in range(4)])
    for a in range(4):
        for b in range(a + 1, 4):
            gap = np.linalg.norm(centers[a] - centers[b])
            assert gap >= 4.0 * spec.cluster_std - 3.0 * spec.cluster_std / np.sqrt(100)


def test_blobs_test_split_differs_but_shares_centers():
    spec = BlobSpec(n=200, dim=6, num_classes=2, cluster_std=0.2, seed=7)
    xtr, ytr = generate_blobs(spec, "train")
    xte, yte = generate_blobs(spec, "test")
    assert xte.shape == (50, 6)  # default test_n = n // 4
    assert not np.array_equal(xtr[:50], xte)
    for c in range(2):
        gap = np.linalg.norm(xtr[ytr == c].mean(axis=0) - xte[yte == c].mean(axis=0))
        assert gap < 0.5  # same centers, sampling error only
    with pytest.raises(ParameterError):
        generate_blobs(spec, "validate")


def test_blobs_test_n_override():
    spec = BlobSpec(n=40, dim=2, num_classes=2, cluster_std=0.1, seed=1, test_n=10)
    x, _ = generate_blobs(spec, "test")
    assert x.shape[0] == 10


def test_blobs_impossible_packing_raises():
    # 2-D box cannot hold 8 centers pairwise >= 4 * std apart at this std
    spec = BlobSpec(n=80, dim=2, num_classes=8, cluster_std=3.0, seed=0)
    with pytest.raises(ParameterError):
        generate_blobs(spec)


def test_train_view_has_no_true_labels():
    assert "true_labels" not in TrainView.__dataclass_fields__


def test_idx_roundtrip(tmp_path):
    rng = stream(8, "idx")
    images = rng.integers(0, 256, size=(12, 4, 3)).astype(np.uint8)
    labels = rng.integers(0, 10, size=12).astype(np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx(ip, lp, images, labels)
    feats, back = load_idx(ip, lp)
    assert feats.shape == (12, 12)
    assert feats.min() >= 0.0 and feats.max() <= 1.0
    assert np.array_equal(np.round(feats * 255).astype(np.uint8), images.reshape(12, 12))
    assert np.array_equal(back, labels)


def test_idx_bad_magic_names_file_and_offset(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx(ip, lp, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    raw = bytearray(ip.read_bytes())
    raw[3] = 0x99
    ip.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_idx(ip, lp)
    assert "img.idx" in str(err.value) and "offset 0" in str(err.value)


def test_idx_truncation_detected(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx(ip, lp, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    raw = ip.read_bytes()
    ip.write_bytes(raw[:-5])
    with pytest.raises(FormatError) as err:
        load_idx(ip, lp)
    assert "truncated" in str(err.value)


def test_idx_count_mismatch(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    ip2, lp2 = tmp_path / "img2.idx", tmp_path / "lbl2.idx"
    write_idx(ip, lp, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    write_idx(ip2, lp2, np.zeros((4, 2, 2), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(FormatError) as err:
        load_idx(ip, lp2)
    assert "mismatch" in str(err.value)


def test_write_idx_validation(tmp_path):
    with pytest.raises(DimensionError):
        write_idx(tmp_path / "a", tmp_path / "b", np.zeros((2, 4), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint8))
    with pytest.raises(DimensionError):
        write_idx(tmp_path / "a", tmp_path / "b", np.zeros((2, 2, 2), dtype=np.uint8),
                  np.zeros(3, dtype=np.uint8))


def test_csv_roundtrip_is_exact(tmp_path):
    rng = stream(4, "csv")
    feats = rng.standard_normal((9, 5))
    labels = rng.integers(0, 4, size=9)
    path = tmp_path / "data.csv"
    save_csv_dataset(path, feats, labels)
    bf, bl = load_csv_dataset(path)
    assert np.array_equal(bf, feats)
    assert np.array_equal(bl, labels)
    header = path.read_text().splitlines()[0]
    assert header == "label,f0,f1,f2,f3,f4"


def test_csv_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,f0\n0,1.0\n")
    with pytest.raises(FormatError):
        load_csv_dataset(p)
    p.write_text("label,f0,f1\n0,1.0\n")
    with pytest.raises(FormatError):
        load_csv_dataset(p)
    p.write_text("label,f0\n")
    with pytest.raises(FormatError):
        load_csv_dataset(p)


@pytest.mark.parametrize("row, reason", [
    ("1.5,2.0", "invalid literal for int()"),
    ("1,abc", "could not convert string to float"),
    ("-1,2.0", "negative label -1"),
    ("1,2.0,3.0", "expected 2 fields, got 3"),
])
def test_csv_load_names_file_and_line(tmp_path, row, reason):
    p = tmp_path / "bad.csv"
    p.write_text(f"label,f0\n0,1.0\n\n{row}\n")
    with pytest.raises(FormatError, match=reason) as info:
        load_csv_dataset(p)
    assert str(info.value).startswith(f"{p}:4: ")


def test_csv_save_validation(tmp_path):
    with pytest.raises(DimensionError):
        save_csv_dataset(tmp_path / "x.csv", np.zeros((3, 2)), np.zeros(4, dtype=int))
