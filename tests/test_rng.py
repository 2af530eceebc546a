import numpy as np
import pytest

from selc_lab.errors import ParameterError
from selc_lab.rng import check_seed, stream


def test_same_labels_same_sequence():
    a = stream(42, "init").random(8)
    b = stream(42, "init").random(8)
    assert np.array_equal(a, b)


def test_different_labels_different_sequences():
    a = stream(42, "init").random(8)
    b = stream(42, "shuffle").random(8)
    c = stream(42, "shuffle", 0).random(8)
    d = stream(42, "shuffle", 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(c, d)


def test_root_seed_separates_runs():
    a = stream(1, "noise").random(8)
    b = stream(2, "noise").random(8)
    assert not np.array_equal(a, b)


def test_large_root_seed_accepted():
    big = 2**63 - 1
    a = stream(big, "init").random(4)
    b = stream(big, "init").random(4)
    assert np.array_equal(a, b)


def test_label_types_distinguished():
    # int 1 and string "1" must land on different streams
    a = stream(7, 1).random(4)
    b = stream(7, "1").random(4)
    assert not np.array_equal(a, b)


def test_seeds_outside_int64_are_rejected_by_name():
    # the seeds at both ends of the range keep streams of their own
    ends = (-2**63, -1, 0, 2**63 - 1)
    for seed in ends:
        check_seed(seed, "trials")
    draws = {stream(seed, "noise").random(4).tobytes() for seed in ends}
    assert len(draws) == len(ends)
    for seed in (-2**63 - 1, 2**63, 2**64 + 1):
        with pytest.raises(ParameterError, match=f"^trials must be in .*, got {seed}$"):
            check_seed(seed, "trials")
