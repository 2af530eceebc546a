"""The fork fan-outs of ``compute_metric_series`` and ``tables.read_rows``:
the same series and rows as in one process, the same error, no child left
behind, and no fork where the rule in ``selc_lab.fork_workers`` or a size
cut-off forbids one."""

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

import selc_lab
import selc_lab.tables as tables
import selc_lab.turning as turning
from selc_lab.data import load_csv_dataset, save_csv_dataset
from selc_lab.errors import FormatError, ParameterError
from selc_lab.rng import stream
from selc_lab.tables import FAN_OUT_MIN_BYTES
from selc_lab.targets import MODE_SELC, EnsembleState, load_state, save_state
from selc_lab.turning import (
    FAN_OUT_MIN_ELEMENTS,
    compute_metric_series,
    load_loss_snapshots,
    normalize_losses,
    save_loss_snapshots,
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


# --- the shared parse of tables.read_rows ---

LOSSES = [("epoch", int), ("sample_id", int), ("loss", float)]
# a losses.csv of 40 epochs of 2500 samples is about 2.6 MB
BIG_EPOCHS, BIG_N = 40, 2500


def read_losses_rows(path):
    with tables.open_text(path) as fh:
        fh.readline()
        return tables.read_rows(path, fh, LOSSES, ",")


def one_process(load, path):
    """``load(path)`` with the fork rule saying no, as one process reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "fork_workers", lambda tasks: 1)
        return load(path)


@pytest.fixture(scope="module")
def big_losses(tmp_path_factory):
    """A losses.csv over the cut-off, in the format ``run`` writes, and the
    bytes of its rows as one process reads them."""
    path = tmp_path_factory.mktemp("big") / "losses.csv"
    save_loss_snapshots(two_mode_losses(BIG_EPOCHS, BIG_N), path)
    assert os.path.getsize(path) >= FAN_OUT_MIN_BYTES
    return path, one_process(read_losses_rows, path).tobytes()


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    """A CSV dataset over the cut-off, and its arrays as one process reads
    them."""
    path = tmp_path_factory.mktemp("big") / "train.csv"
    rng = stream(7, "fan_out_csv")
    save_csv_dataset(path, rng.standard_normal((8000, 16)), rng.integers(0, 4, 8000))
    assert os.path.getsize(path) >= FAN_OUT_MIN_BYTES
    return path, [a.tobytes() for a in one_process(load_csv_dataset, path)]


def copy_of(tmp_path, source):
    path = tmp_path / source.name
    path.write_bytes(source.read_bytes())
    return path


def line_count(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def edit_line(path, lineno, text):
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = text
    path.write_bytes(b"\n".join(lines))


def test_shared_parse_equals_one_process_parse(big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path, want = big_losses
    got = read_losses_rows(path)
    assert len(forks) == selc_lab.fork_workers(len(got)) - 1
    assert got.tobytes() == want
    assert len(got) == line_count(path) - 1
    # the rows are those of the shared mapping, not of a read in one process
    assert isinstance(got.base, memoryview)
    _, losses = load_loss_snapshots(path)
    assert losses.tobytes() == two_mode_losses(BIG_EPOCHS, BIG_N).tobytes()
    assert_no_child_left()


def test_shared_parse_of_a_csv_dataset(big_csv, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path, want = big_csv
    assert [a.tobytes() for a in load_csv_dataset(path)] == want
    assert forks
    assert_no_child_left()


# line 3 falls in this process's share, the next-to-last line in the last
# child's; the error names the first bad line, as a read in one process does
@pytest.mark.parametrize("where", ["parent", "child", "both"])
def test_a_bad_line_raises_as_in_one_process(tmp_path, big_losses, forks, where):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = copy_of(tmp_path, big_losses[0])
    last = line_count(path) - 1
    bad = {"parent": [3], "child": [last], "both": [3, last]}[where]
    for lineno in bad:
        edit_line(path, lineno, b"0,1,1.5x")
    with pytest.raises(FormatError) as exc:
        load_loss_snapshots(path)
    assert str(exc.value) == f"{path}:{bad[0]}: could not convert string to float: '1.5x'"
    assert forks
    assert_no_child_left()


def test_a_bad_csv_line_in_a_child_share(tmp_path, big_csv, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = copy_of(tmp_path, big_csv[0])
    lineno = line_count(path) - 2
    edit_line(path, lineno, b"1,2")
    with pytest.raises(FormatError) as exc:
        load_csv_dataset(path)
    assert str(exc.value) == f"{path}:{lineno}: expected 17 fields, got 2"
    assert forks
    assert_no_child_left()


def test_a_non_finite_loss_in_a_child_share(tmp_path, big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = copy_of(tmp_path, big_losses[0])
    lineno = line_count(path) - 1
    edit_line(path, lineno, f"{BIG_EPOCHS - 1},{BIG_N - 2},nan".encode())
    with pytest.raises(FormatError) as exc:
        load_loss_snapshots(path)
    assert str(exc.value) == f"{path}:{lineno}: loss must be finite, got nan"
    assert forks
    assert_no_child_left()


def test_a_child_that_dies_is_read_again_here(monkeypatch, big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path, want = big_losses
    parent, real = os.getpid(), np.loadtxt

    def dying_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", dying_in_a_child)
    assert read_losses_rows(path).tobytes() == want
    assert forks
    assert_no_child_left()


def crlf(raw):
    return raw.replace(b"\n", b"\r\n")


def lone_cr(raw):
    return raw.replace(b"\n", b"\r")


def blank_line(raw):
    # an empty line before the last line, in the last share
    head, _, tail = raw[:-1].rpartition(b"\n")
    return head + b"\n\n" + tail + b"\n"


def early_blank_line(raw):
    # an empty line after line 2, in this process's share
    first, second, rest = raw.split(b"\n", 2)
    return first + b"\n" + second + b"\n\n" + rest


def no_trailing_lf(raw):
    return raw[:-1]


@pytest.mark.parametrize("edit", [crlf, lone_cr, blank_line, early_blank_line, no_trailing_lf])
def test_other_line_ends_load_the_same_arrays(tmp_path, big_losses, edit):
    path = tmp_path / "losses.csv"
    path.write_bytes(edit(big_losses[0].read_bytes()))
    assert read_losses_rows(path).tobytes() == big_losses[1]
    assert_no_child_left()


@pytest.mark.parametrize("edit", [crlf, lone_cr, blank_line, no_trailing_lf])
def test_no_shared_parse_unless_every_lf_ends_a_row(tmp_path, big_losses, no_fork, edit):
    path = tmp_path / "losses.csv"
    path.write_bytes(edit(big_losses[0].read_bytes()))
    read_losses_rows(path)
    assert no_fork == []


def test_no_shared_parse_of_a_whitespace_separated_file(tmp_path, no_fork):
    # np.loadtxt skips a line of blanks there, so max_rows could overrun a share
    path = tmp_path / "targets.txt"
    targets = stream(9, "fan_out_targets").dirichlet(np.ones(4), size=30_000)
    save_state(EnsembleState(targets=targets, alpha=0.9, epoch_k=3, mode=MODE_SELC), path)
    assert os.path.getsize(path) >= FAN_OUT_MIN_BYTES
    assert load_state(path).targets.tobytes() == targets.tobytes()
    assert no_fork == []


def test_no_shared_parse_below_the_cut_off(tmp_path, no_fork):
    path = tmp_path / "losses.csv"
    save_loss_snapshots(two_mode_losses(10, 1000), path)
    assert os.path.getsize(path) < FAN_OUT_MIN_BYTES
    assert len(read_losses_rows(path)) == 10_000
    assert no_fork == []


def test_no_shared_parse_beside_another_python_thread(big_losses, no_fork):
    path, want = big_losses
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        got = read_losses_rows(path)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert no_fork == []
    assert got.tobytes() == want


def test_a_failed_fork_parses_here(big_losses, no_fork):
    if not fans_out():
        pytest.skip("this process may not fork")
    path, want = big_losses
    assert read_losses_rows(path).tobytes() == want
    assert len(no_fork) == 1


def parse_in_worker(path):
    attempts = []

    def refusing_fork():
        attempts.append(1)
        raise OSError("fork attempted")

    os.fork = refusing_fork  # this worker process only
    return len(attempts), read_losses_rows(path).tobytes()


def test_no_shared_parse_inside_a_pool_worker(big_losses):
    if not fans_out():
        pytest.skip("this process may not fork")
    path, want = big_losses
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        attempts, got = pool.submit(parse_in_worker, path).result(timeout=120)
    assert (attempts, got) == (0, want)
