import numpy as np
import pytest

from selc_lab.errors import DimensionError, FormatError, ParameterError
from selc_lab.noise import (
    TransitionMatrix,
    build_asymmetric_q,
    build_symmetric_q,
    empirical_noise_rate,
    inject_noise,
    load_mapping,
)


def test_symmetric_zero_eta_is_identity():
    tm = build_symmetric_q(10, 0.0)
    assert np.allclose(tm.q, np.eye(10))


def test_symmetric_default_convention():
    tm = build_symmetric_q(10, 0.4)
    assert np.allclose(np.diag(tm.q), 0.64)
    off = tm.q[~np.eye(10, dtype=bool)]
    assert np.allclose(off, 0.04)


def test_symmetric_two_class_half_eta():
    tm = build_symmetric_q(2, 0.5)
    assert np.allclose(tm.q, [[0.75, 0.25], [0.25, 0.75]])


def test_symmetric_exclude_true_class():
    tm = build_symmetric_q(5, 0.4, exclude_true_class=True)
    assert np.allclose(np.diag(tm.q), 0.6)
    off = tm.q[~np.eye(5, dtype=bool)]
    assert np.allclose(off, 0.1)


def test_symmetric_eta_range_errors():
    with pytest.raises(ParameterError):
        build_symmetric_q(4, 1.0)
    with pytest.raises(ParameterError):
        build_symmetric_q(4, -0.1)
    with pytest.raises(ParameterError):
        build_symmetric_q(1, 0.2)


def test_asymmetric_zero_eta_identity():
    tm = build_asymmetric_q(4, 0.0, [(0, 1)])
    assert np.allclose(tm.q, np.eye(4))


def test_asymmetric_pairwise_mapping():
    # flips modeled on confusable-pair corruption: one-way and two-way pairs
    mapping = [(9, 1), (2, 0), (4, 7), (3, 5), (5, 3)]
    tm = build_asymmetric_q(10, 0.4, mapping)
    for src, dst in mapping:
        assert tm.q[src, src] == pytest.approx(0.6)
        assert tm.q[src, dst] == pytest.approx(0.4)
    for c in range(10):
        if c not in [s for s, _ in mapping]:
            assert tm.q[c, c] == pytest.approx(1.0)


def test_asymmetric_three_class_example():
    tm = build_asymmetric_q(3, 0.3, [(0, 1)])
    assert np.allclose(tm.q, [[0.7, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_asymmetric_rejects_bad_mappings():
    with pytest.raises(ParameterError):
        build_asymmetric_q(4, 0.3, [(1, 1)])
    with pytest.raises(ParameterError):
        build_asymmetric_q(4, 0.3, [(0, 1), (0, 2)])
    with pytest.raises(ParameterError):
        build_asymmetric_q(4, 0.3, [(0, 4)])


def test_all_rows_stochastic():
    for tm in (build_symmetric_q(7, 0.35), build_symmetric_q(3, 0.9, exclude_true_class=True),
               build_asymmetric_q(6, 0.45, [(0, 3), (5, 2)])):
        assert np.allclose(tm.q.sum(axis=1), 1.0, atol=1e-12)
        assert tm.q.min() >= 0.0 and tm.q.max() <= 1.0


def test_transition_matrix_validation():
    bad = np.array([[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        TransitionMatrix(num_classes=2, q=bad)


def test_inject_identity_is_noop():
    labels = np.arange(50) % 4
    tm = build_symmetric_q(4, 0.0)
    assert np.array_equal(inject_noise(labels, tm, seed=3), labels)


def test_inject_deterministic_per_seed():
    labels = np.arange(2000) % 5
    tm = build_symmetric_q(5, 0.4)
    a = inject_noise(labels, tm, seed=9)
    b = inject_noise(labels, tm, seed=9)
    c = inject_noise(labels, tm, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_inject_calibration_and_rate():
    labels = np.repeat(np.arange(10), 10000)
    tm = build_symmetric_q(10, 0.4)
    noisy = inject_noise(labels, tm, seed=12)
    rate = empirical_noise_rate(noisy, labels)
    tol = 3.0 * np.sqrt(0.36 * 0.64 / 100000)
    assert abs(rate - 0.36) <= tol


def test_empirical_noise_rate_edges():
    a = np.array([0, 1, 2])
    assert empirical_noise_rate(a, a) == 0.0
    assert empirical_noise_rate(a, a + 1) == 1.0
    with pytest.raises(DimensionError):
        empirical_noise_rate(a, a[:2])


def test_load_mapping(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# confusable pairs\n9 1\n2 0\n\n4 7\n")
    assert list(load_mapping(path).items()) == [(f"{path}:2", (9, 1)), (f"{path}:3", (2, 0)),
                                                (f"{path}:5", (4, 7))]
    path.write_text("0,1\n2, 3  # spaced\n")
    assert list(load_mapping(path).items()) == [(f"{path}:1", (0, 1)), (f"{path}:2", (2, 3))]


@pytest.mark.parametrize("line", ["1 2 3", "0,1,2", "0,", "a,b", "0 1,2", "7"])
def test_load_mapping_bad_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "map.csv"
    path.write_text(f"# pairs\n0,1\n{line}\n")
    with pytest.raises(FormatError, match=r"map\.csv:3:"):
        load_mapping(path)
