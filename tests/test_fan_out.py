"""The fork fan-out of ``turning.losses_file_series``, whose epoch shares
each parse and fit a window of a large losses file: the same series as in
one process, the same error, no child left behind, and no fork where the
rule in ``selc_lab.fork_workers`` or the size cut-off forbids one.
``tables.read_rows``, ``load_loss_snapshots`` and ``compute_metric_series``
never fork."""

import mmap
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
from selc_lab.turning import (
    FAN_OUT_MIN_BYTES,
    compute_metric_series,
    load_loss_snapshots,
    losses_file_series,
    normalize_losses,
    save_loss_snapshots,
    separation_metrics,
)


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


# --- selc_lab.shared, the arrays through which a child hands back results ---

@pytest.mark.parametrize("shape, dtype", [((3, 5), np.float64), (7, np.int64), (4, np.bool_)],
                         ids=["matrix", "vector", "flags"])
def test_a_shared_array_shows_the_parent_what_a_child_wrote(forks, shape, dtype):
    array = selc_lab.shared(shape, dtype)
    assert array.shape == np.empty(shape).shape and array.dtype == dtype
    assert array.flags.c_contiguous and array.flags.writeable
    assert not array.any()
    # every element nonzero, so that each one the child missed shows
    want = (np.arange(array.size) + 1).astype(dtype).reshape(shape)

    def write_in_the_child(j):
        if j == 1:
            array[...] = want

    assert selc_lab.run_shares(2, write_in_the_child)
    assert len(forks) == 1
    assert array.tobytes() == want.tobytes()
    assert_no_child_left()


LOSSES = [("epoch", int), ("sample_id", int), ("loss", float)]
# a losses.csv of 40 epochs of 4200 samples is about 4.4 MB
BIG_EPOCHS, BIG_N = 40, 4200


def fans_out():
    return selc_lab.fork_workers(BIG_EPOCHS) > 1


def read_losses_rows(path):
    with tables.open_text(path) as fh:
        fh.readline()
        return tables.read_rows(path, fh, LOSSES)


def one_process(load, path):
    """``load(path)`` with the fork rule saying no, as one process reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(turning, "fork_workers", lambda tasks: 1)
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
    save_csv_dataset(path, rng.standard_normal((14000, 16)), rng.integers(0, 4, 14000))
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


def series_bytes(series):
    return tuple(getattr(series, name).tobytes() for name in ("epochs", "m1", "m2", "m3"))


def assert_series_as_one_process(path):
    """``losses_file_series(path)`` gives the series, or raises the error,
    that a load and fits in one process do; the series, or the error's
    text."""
    try:
        want = one_process(losses_file_series, path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            losses_file_series(path)
        assert str(got.value) == str(exc)
        return str(exc)
    series = losses_file_series(path)
    assert series_bytes(series) == series_bytes(want)
    return series


def assert_fits_the_written_losses(series):
    """``series`` holds the metrics of ``big_losses``' epochs, each fitted
    in this process."""
    assert series.epochs.tolist() == list(range(BIG_EPOCHS))
    want = in_process_series(two_mode_losses(BIG_EPOCHS, BIG_N))
    assert [m.tobytes() for m in (series.m1, series.m2, series.m3)] == [m.tobytes() for m in want]


# --- the fork rules of losses_file_series ---

def test_a_failed_fork_fits_every_row_here(monkeypatch, big_losses):
    if not fans_out():
        pytest.skip("this process may not fork")

    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert_fits_the_written_losses(losses_file_series(big_losses[0]))


def test_no_fork_beside_another_python_thread(big_losses, no_fork):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert selc_lab.fork_workers(BIG_EPOCHS) == 1
        series = losses_file_series(big_losses[0])
    finally:
        stop.set()
        other.join(timeout=60)
    assert no_fork == []
    assert_fits_the_written_losses(series)


def fit_in_worker(path):
    attempts = []

    def refusing_fork():
        attempts.append(1)
        raise OSError("fork attempted")

    os.fork = refusing_fork  # this worker process only
    series = losses_file_series(path)
    return selc_lab.fork_workers(BIG_EPOCHS), len(attempts), series


def test_no_fork_inside_a_pool_worker(big_losses):
    if not fans_out():
        pytest.skip("this process may not fork")
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        workers, attempts, series = pool.submit(fit_in_worker, big_losses[0]).result(timeout=120)
    assert (workers, attempts) == (1, 0)
    assert_fits_the_written_losses(series)


# --- tables.read_rows, and the faults and fork rules of the epoch shares ---

def test_shared_parse_equals_one_process_parse(big_losses, forks):
    path, want = big_losses
    got = read_losses_rows(path)
    # read_rows and load_loss_snapshots parse a file over the cut-off in
    # this process alone
    assert got.tobytes() == want
    assert len(got) == line_count(path) - 1
    assert load_loss_snapshots(path)[1].tobytes() == two_mode_losses(BIG_EPOCHS, BIG_N).tobytes()
    assert forks == []
    # the shared parse left is that of the epoch shares
    if fans_out():
        assert_series_as_one_process(path)
        assert forks
        assert_no_child_left()


def test_shared_parse_of_a_csv_dataset(big_csv, forks):
    path, want = big_csv
    assert [a.tobytes() for a in load_csv_dataset(path)] == want
    # a CSV dataset has no epoch blocks, so no share is parsed in a child
    assert forks == []


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
        losses_file_series(path)
    assert str(exc.value) == f"{path}:{bad[0]}: could not convert string to float: '1.5x'"
    assert forks
    assert_no_child_left()


def counting_loadtxt(monkeypatch, raise_in_child=False):
    """The sources this process hands ``np.loadtxt``; with
    ``raise_in_child``, every call in a forked child raises ValueError."""
    parent, real, sources = os.getpid(), np.loadtxt, []

    def counting(source, *args, **kwargs):
        if raise_in_child and os.getpid() != parent:
            raise ValueError("a child's share raised")
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return sources


def test_a_share_that_raises_on_good_rows_is_parsed_again_here(monkeypatch, big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = big_losses[0]
    sources = counting_loadtxt(monkeypatch, raise_in_child=True)
    assert_series_as_one_process(path)
    # the load in one process from the handle, this process's share from the
    # path, then, as a child's share raised, the whole parse from the handle
    assert [isinstance(source, str) for source in sources] == [False, True, False]
    assert forks
    assert_no_child_left()


def test_a_non_finite_loss_in_a_child_share(tmp_path, big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = copy_of(tmp_path, big_losses[0])
    lineno = line_count(path) - 1
    edit_line(path, lineno, f"{BIG_EPOCHS - 1},{BIG_N - 2},nan".encode())
    with pytest.raises(FormatError) as exc:
        losses_file_series(path)
    assert str(exc.value) == f"{path}:{lineno}: loss must be finite, got nan"
    assert forks
    assert_no_child_left()


def test_a_child_that_dies_is_read_again_here(monkeypatch, big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    path = big_losses[0]
    parent, real = os.getpid(), np.loadtxt

    def dying_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", dying_in_a_child)
    assert_series_as_one_process(path)
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
    assert_series_as_one_process(path)
    assert no_fork == []


def test_no_shared_parse_below_the_cut_off(tmp_path, no_fork):
    path = tmp_path / "losses.csv"
    save_loss_snapshots(two_mode_losses(10, 1000), path)
    assert os.path.getsize(path) < FAN_OUT_MIN_BYTES
    assert assert_series_as_one_process(path).epochs.tolist() == list(range(10))
    assert no_fork == []


def test_no_shared_parse_beside_another_python_thread(big_losses, no_fork):
    path = big_losses[0]
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert_series_as_one_process(path)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert no_fork == []


def test_a_failed_fork_parses_here(big_losses, no_fork):
    if not fans_out():
        pytest.skip("this process may not fork")
    assert_series_as_one_process(big_losses[0])
    assert len(no_fork) == 1


def parse_in_worker(path):
    attempts = []

    def refusing_fork():
        attempts.append(1)
        raise OSError("fork attempted")

    os.fork = refusing_fork  # this worker process only
    series = assert_series_as_one_process(path)
    return len(attempts), series


def test_no_shared_parse_inside_a_pool_worker(big_losses):
    if not fans_out():
        pytest.skip("this process may not fork")
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        attempts, series = pool.submit(parse_in_worker, big_losses[0]).result(timeout=120)
    assert attempts == 0
    assert_fits_the_written_losses(series)


# --- the epoch shares of turning.losses_file_series ---

def big_losses_lines(big_losses):
    header, *lines = big_losses[0].read_bytes().splitlines(keepends=True)
    return header, lines


def write_lines(path, header, lines):
    path.write_bytes(header + b"".join(lines))
    return path


def by_epoch(lines):
    return [lines[e * BIG_N:(e + 1) * BIG_N] for e in range(BIG_EPOCHS)]


def in_order(lines):
    return lines


def ids_shuffled(lines):
    rng = stream(11, "ids_shuffled")
    return [epoch[i] for epoch in by_epoch(lines) for i in rng.permutation(BIG_N)]


def epochs_reversed(lines):
    return [line for epoch in by_epoch(lines)[::-1] for line in epoch]


def fully_shuffled(lines):
    return [lines[i] for i in stream(12, "fully_shuffled").permutation(len(lines))]


@pytest.mark.parametrize("order", [in_order, ids_shuffled, epochs_reversed, fully_shuffled])
def test_epoch_share_load_equals_one_process_load(tmp_path, big_losses, forks, order):
    if not fans_out():
        pytest.skip("this process may not fork")
    header, lines = big_losses_lines(big_losses)
    path = write_lines(tmp_path / "losses.csv", header, order(lines))
    assert_fits_the_written_losses(assert_series_as_one_process(path))
    # fully shuffled lines hold no epoch block to cut shares at
    if order is fully_shuffled:
        assert not forks
    else:
        assert forks
    assert_no_child_left()


def test_epoch_share_series_equals_one_process_series(big_losses, forks):
    if not fans_out():
        pytest.skip("this process may not fork")
    assert_fits_the_written_losses(losses_file_series(big_losses[0]))
    assert len(forks) == selc_lab.fork_workers(BIG_EPOCHS) - 1
    assert_no_child_left()


def shared_mapping(array):
    # the mmap under an array made by np.frombuffer, or None
    while array is not None and not isinstance(array, memoryview):
        array = array.base
    return None if array is None else array.obj


@pytest.mark.parametrize("order", [in_order, ids_shuffled])
def test_epoch_shares_keep_only_the_losses(monkeypatch, tmp_path, big_losses, order):
    # each share keeps only its own epochs' losses, and hands back their series
    if not fans_out():
        pytest.skip("this process may not fork")
    header, lines = big_losses_lines(big_losses)
    path = write_lines(tmp_path / "losses.csv", header, order(lines))
    fitted, real = [], turning.compute_metric_series

    def recording(epochs, losses):
        fitted.append(np.shape(losses))
        return real(epochs, losses)

    monkeypatch.setattr(turning, "compute_metric_series", recording)
    series = losses_file_series(path)
    # this process fits its own share's epochs only
    assert fitted == [(BIG_EPOCHS // selc_lab.fork_workers(BIG_EPOCHS), BIG_N)]
    metrics = shared_mapping(series.m1)
    assert isinstance(metrics, mmap.mmap) and len(metrics) == 3 * BIG_EPOCHS * 8
    assert shared_mapping(series.m3) is metrics
    assert len(shared_mapping(series.epochs)) == BIG_EPOCHS * 8
    assert series.epochs.dtype == np.int64 and series.epochs.shape == (BIG_EPOCHS,)


def uneven_in_a_child_share(lines):
    # a row of epoch 30 renumbered as epoch 31: the row count stays a
    # multiple of n, but epoch 30 holds n - 1 samples and epoch 31 n + 1
    lines = list(lines)
    row = 30 * BIG_N + 7
    lines[row] = lines[row].replace(b"30,", b"31,", 1)
    return lines


def bad_float_in_a_child_share(lines):
    lines = list(lines)
    lines[-3] = lines[-3].rstrip(b"\n") + b"x\n"
    return lines


def duplicated_epoch(lines, copied=29):
    # epoch 30's block replaced by epoch ``copied``'s: the row count stays a
    # multiple of n, but one epoch holds 2n samples
    blocks = by_epoch(lines)
    blocks[30] = blocks[copied]
    return [line for block in blocks for line in block]


def duplicated_epoch_in_another_share(lines):
    # epoch 10 falls in this process's share, its copy in a child's
    return duplicated_epoch(lines, copied=10)


def first_epoch_longer_than_a_share(lines):
    # one epoch of BIG_EPOCHS * BIG_N samples
    return [b"0,%d,%s" % (i, line.split(b",", 2)[2]) for i, line in enumerate(lines)]


@pytest.mark.parametrize("edit, error", [
    (uneven_in_a_child_share, f"epoch 30 holds {BIG_N - 1} samples, epoch 0 holds {BIG_N}"),
    (bad_float_in_a_child_share, f"{BIG_EPOCHS * BIG_N - 1}: could not convert string to float"),
    (duplicated_epoch, f"epoch 29 holds {2 * BIG_N} samples, epoch 0 holds {BIG_N}"),
    (duplicated_epoch_in_another_share,
     f"epoch 10 holds {2 * BIG_N} samples, epoch 0 holds {BIG_N}"),
    (first_epoch_longer_than_a_share, None),
], ids=["uneven_epoch", "bad_float", "duplicated_epoch", "duplicated_epoch_in_another_share",
        "first_epoch_longer_than_a_share"])
def test_epoch_share_faults_load_as_in_one_process(tmp_path, big_losses, forks, edit, error):
    if not fans_out():
        pytest.skip("this process may not fork")
    header, lines = big_losses_lines(big_losses)
    path = write_lines(tmp_path / "losses.csv", header, edit(lines))
    loaded = assert_series_as_one_process(path)
    if error is None:
        assert loaded.epochs.tolist() == [0]
        # an epoch longer than half the file leaves no epoch shares to cut
        assert not forks
    else:
        assert isinstance(loaded, str)
        with pytest.raises(FormatError, match=error):
            losses_file_series(path)
        assert forks
    assert_no_child_left()


@pytest.mark.parametrize("edit", [bad_float_in_a_child_share, epochs_reversed],
                         ids=["bad_float_in_a_child_share", "epochs_reversed"])
def test_a_failed_share_round_is_followed_by_one_parse_here(monkeypatch, tmp_path, big_losses,
                                                           forks, edit):
    if not fans_out():
        pytest.skip("this process may not fork")
    header, lines = big_losses_lines(big_losses)
    path = write_lines(tmp_path / "losses.csv", header, edit(lines))
    sources = counting_loadtxt(monkeypatch)
    try:
        got = series_bytes(losses_file_series(path))
    except FormatError as exc:
        got = str(exc)
    # one round of shares, this process's own from the path, then the
    # whole parse of the open file here
    assert len(forks) == selc_lab.fork_workers(BIG_EPOCHS) - 1
    assert [isinstance(source, str) for source in sources] == [True, False]
    assert_no_child_left()
    want = assert_series_as_one_process(path)
    assert got == (want if isinstance(want, str) else series_bytes(want))


# a row's first loss picks the error its fit raises: epoch 0 falls in this
# process's share, the last epoch in the last child's
@pytest.mark.parametrize("bad_rows", [{BIG_EPOCHS - 1: "child row"},
                                      {0: "parent row", BIG_EPOCHS - 1: "child row"},
                                      {0: "parent row"}],
                         ids=["child", "child_and_parent", "parent"])
def test_a_share_whose_fit_raises_gives_the_one_process_error(monkeypatch, tmp_path, forks,
                                                              bad_rows):
    if not fans_out():
        pytest.skip("this process may not fork")
    losses = two_mode_losses(BIG_EPOCHS, BIG_N)
    for row in bad_rows:
        losses[row, 0] = -1.0 - row
    path = tmp_path / "losses.csv"
    save_loss_snapshots(losses, path)
    real = turning.normalize_losses

    def failing(row):
        if row[0] < 0:
            raise ParameterError(bad_rows[int(-1.0 - row[0])])
        return real(row)

    monkeypatch.setattr(turning, "normalize_losses", failing)
    with pytest.raises(ParameterError) as shared_fits:
        losses_file_series(path)
    assert forks
    assert_no_child_left()
    with pytest.raises(ParameterError) as fits_here:
        one_process(losses_file_series, path)
    assert str(shared_fits.value) == str(fits_here.value) == bad_rows[min(bad_rows)]
