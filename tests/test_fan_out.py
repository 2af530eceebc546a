"""The fork fan-out of ``compute_metric_series``: the same series as in one
process, the same error, no child left behind, and no fork where the
rule in ``selc_lab.fork_workers`` or the size cut-off forbids one."""

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

import selc_lab
import selc_lab.turning as turning
from selc_lab.errors import ParameterError
from selc_lab.rng import stream
from selc_lab.turning import (
    FAN_OUT_MIN_ELEMENTS,
    compute_metric_series,
    normalize_losses,
    separation_metrics,
)

ROWS = 6
# the fewest samples per epoch that put the matrix over the cut-off
N_OVER = FAN_OUT_MIN_ELEMENTS // ROWS + 1


def two_mode_losses(rows, n, seed=5):
    """``rows`` epochs of a clean mode and a noisy mode whose gap grows."""
    rng = stream(seed, "fan_out")
    noisy = rng.permutation(n) < n // 3
    out = np.empty((rows, n))
    for e in range(rows):
        out[e] = np.where(noisy, 1.0 + 0.1 * e, 0.3) + 0.08 * rng.standard_normal(n)
    # first losses stay positive: a negative one marks a failing row below
    return np.maximum(out, 0.01)


def in_process_series(losses):
    # the metrics of each row in turn, fitted in this process
    m1, m2, m3 = zip(*(separation_metrics(normalize_losses(row)) for row in losses))
    return np.array(m1), np.array(m2), np.array(m3)


def fans_out():
    return selc_lab.fork_workers(ROWS) > 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes, counted around the real ``os.fork``."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def no_fork(monkeypatch):
    """``os.fork`` replaced by one that records the attempt and raises."""
    attempts = []

    def refusing_fork():
        attempts.append(1)
        raise OSError("fork attempted")

    monkeypatch.setattr(os, "fork", refusing_fork)
    return attempts


def test_fanned_out_series_equals_in_process_series(forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    losses = two_mode_losses(ROWS, N_OVER)
    series = compute_metric_series(np.arange(ROWS), losses)
    assert len(forks) == selc_lab.fork_workers(ROWS) - 1
    for got, want in zip((series.m1, series.m2, series.m3), in_process_series(losses)):
        assert got.tobytes() == want.tobytes()
    assert_no_child_left()


# a row's first loss picks the error it raises: row 3 falls to a child
# (rows 1, 3 and 5 of 6 for two processes), row 4 to this process
@pytest.mark.parametrize("bad_rows", [{3: "child row"}, {3: "child row", 4: "parent row"},
                                      {4: "parent row"}],
                         ids=["child", "child_and_parent", "parent"])
def test_a_failing_row_raises_as_in_one_process(monkeypatch, forks, bad_rows):
    if not fans_out():
        pytest.skip("this process may not fork")
    losses = two_mode_losses(ROWS, N_OVER)
    for row in bad_rows:
        losses[row, 0] = -float(row)
    real = turning.normalize_losses

    def failing(row):
        if row[0] < 0:
            raise ParameterError(bad_rows[int(-row[0])])
        return real(row)

    monkeypatch.setattr(turning, "normalize_losses", failing)
    with pytest.raises(ParameterError) as serial:
        [failing(row) for row in losses]
    with pytest.raises(ParameterError) as fanned:
        compute_metric_series(np.arange(ROWS), losses)
    assert len(forks) == selc_lab.fork_workers(ROWS) - 1
    assert str(fanned.value) == str(serial.value) == bad_rows[min(bad_rows)]
    assert_no_child_left()


def test_a_failed_fork_fits_every_row_here(monkeypatch):
    if not fans_out():
        pytest.skip("this process may not fork")
    losses = two_mode_losses(ROWS, N_OVER)

    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing_fork)
    series = compute_metric_series(np.arange(ROWS), losses)
    assert series.m1.tobytes() == in_process_series(losses)[0].tobytes()


def test_no_fork_below_the_cut_off(no_fork):
    losses = two_mode_losses(ROWS, N_OVER - 1)
    assert losses.size < FAN_OUT_MIN_ELEMENTS
    series = compute_metric_series(np.arange(ROWS), losses)
    assert no_fork == []
    assert series.m3.tobytes() == in_process_series(losses)[2].tobytes()


def test_no_fork_beside_another_python_thread(no_fork):
    losses = two_mode_losses(ROWS, N_OVER)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert selc_lab.fork_workers(ROWS) == 1
        series = compute_metric_series(np.arange(ROWS), losses)
    finally:
        stop.set()
        other.join(timeout=60)
    assert no_fork == []
    assert series.m2.tobytes() == in_process_series(losses)[1].tobytes()


def fit_in_worker(losses):
    attempts = []

    def refusing_fork():
        attempts.append(1)
        raise OSError("fork attempted")

    os.fork = refusing_fork  # this worker process only
    series = compute_metric_series(np.arange(len(losses)), losses)
    return selc_lab.fork_workers(len(losses)), len(attempts), series.m1.tobytes()


def test_no_fork_inside_a_pool_worker():
    if not fans_out():
        pytest.skip("this process may not fork")
    losses = two_mode_losses(ROWS, N_OVER)
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        workers, attempts, m1 = pool.submit(fit_in_worker, losses).result(timeout=120)
    assert (workers, attempts) == (1, 0)
    assert m1 == in_process_series(losses)[0].tobytes()
