"""The one reader of comma-separated numeric text: CSV datasets and
losses. Each such file is a header line, which its loader checks, then one
row per line; empty lines are skipped. Only printable ASCII, tab, CR and
LF may appear in it.

``read_rows`` parses a file with one ``np.loadtxt`` call in this process.
A large losses file is first parsed in shares of whole epochs by this
process and forked children (``parse_shares``), which keep only the
losses (``turning.load_loss_snapshots``). The scan of its bytes that
``open_text`` makes anyway counts its lines and tells whether each LF
ends one row."""

import math
import os
import warnings
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import fork_workers, run_shares
from .errors import FormatError

# np.loadtxt reads some non-ASCII characters as digits (a field U+1170
# loads as the int 4416), and the separators 0x1c-0x1f inside a float
TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
TEXT_CHARS = frozenset(TEXT_BYTES.decode())
# the scan reads a file in chunks of this size, so that it adds no
# file-sized buffer to the peak
SCAN_CHUNK = 1 << 16
# a losses file is parsed in epoch shares only from this size on. On 2
# vCPUs np.loadtxt parses perfbench's losses.csv at about 30 ns per byte,
# and a fork, the child's exit and its reaping take 5-9 ms. A 4 MiB file
# in the order run writes loaded in 69 ms in epoch shares against 129 ms
# in one process (medians of 7, fresh processes); a later measurement on
# the same host read 95 ms for both (medians of 15 alternating runs), so
# the shares do not lose at this size.
FAN_OUT_MIN_BYTES = 1 << 21


class Lines(NamedTuple):
    """What the scan of ``open_text`` saw of a file: its ``size`` in
    bytes, the offset ``head`` where its second line starts, its ``count``
    of LF bytes, and whether it is ``plain``: no CR, no empty line and an
    LF at the end, so that each LF ends one row or the header."""

    size: int
    head: int | None
    count: int
    plain: bool


def open_text(path):
    """``path`` open for reading as text, once a scan of its bytes found
    only ``TEXT_BYTES``; a stray byte is a ``FormatError`` naming its line.
    The file's ``lines`` attribute holds the ``Lines`` of the scan."""
    size = count = 0
    head, plain, last = None, True, b"\n"
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(SCAN_CHUNK), b""):
            if chunk.translate(None, TEXT_BYTES):
                raise _first_stray_line(path)
            # numpy counts bytes about three times as fast as bytes.count
            lf = np.frombuffer(chunk, np.uint8) == 0x0A
            if head is None and lf.any():
                head = size + int(lf.argmax()) + 1
            count += int(np.count_nonzero(lf))
            size += len(chunk)
            # an empty line is two LFs in a row, across chunks too, or an
            # LF at the start
            plain = (plain and b"\r" not in chunk and not (lf[0] and last == b"\n")
                     and not (lf[1:] & lf[:-1]).any())
            last = chunk[-1:]
    fh = open(path)
    fh.lines = Lines(size, head, count, plain and last == b"\n")
    return fh


def read_rows(path, fh, columns) -> np.ndarray:
    """The comma-separated rows left in ``fh``, opened on ``path`` by
    ``open_text`` and read past its header, as a 1-D structured array of
    dtype ``columns`` (``(name, float, (width,))`` for ``width`` floats),
    parsed by one ``np.loadtxt`` call in this process. If that call
    raises, or a float is not finite, a rescan with Python's
    ``int``/``float`` names the bad line."""
    dtype = np.dtype(columns)
    try:
        with warnings.catch_warnings():
            # a header-only file has zero rows, it is not malformed
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise (_first_bad_line(path, dtype) or FormatError(f"{path}: {exc}")) from exc
    if not _finite(rows):
        raise (_first_bad_line(path, dtype) or FormatError(f"{path}: floats must be finite"))
    return rows


def share_workers(fh, tasks: int) -> int:
    """How many processes may parse the rows left in ``fh``, opened by
    ``open_text`` and read past its header, in shares of whole lines, at
    most one per task; 1 means this process alone. That is the answer of
    ``fork_workers``, for a ``plain`` file of at least
    ``FAN_OUT_MIN_BYTES`` with ``fh`` at its second line: ``max_rows``
    of ``np.loadtxt`` does not count a line that it skips."""
    lines = fh.lines
    if not lines.plain or lines.size < FAN_OUT_MIN_BYTES or fh.tell() != lines.head:
        return 1
    return fork_workers(tasks)


def parse_shares(path, dtype, bounds, keep) -> bool:
    """Parse lines ``bounds[j] + 1 .. bounds[j + 1]`` of ``path`` (line 1
    the header) as rows of ``dtype`` and call ``keep(j, rows)``: for j = 0
    in this process, for every other j in a forked child (``run_shares``).
    Its process hands ``np.loadtxt`` the file's path with ``skiprows`` and
    ``max_rows`` set to the share's lines, which reads in blocks, not line
    by line. ``keep`` must put what it keeps where this process sees it, in
    a shared mapping. True if every share was kept. If a share's lines did
    not parse into as many rows, all with finite floats, the rescan's
    ``FormatError`` is raised here; if the rescan names no line, if
    ``keep`` raised or if a share's process died or could not be forked,
    the answer is False."""
    # imported only here, so that a small file does not load it
    import mmap

    # raised[j]: share j's lines did not parse
    raised = np.frombuffer(mmap.mmap(-1, len(bounds) - 1), np.bool_)
    # an absolute path, which np.loadtxt cannot take for a URL
    source = os.path.abspath(path)

    def parse(j):
        skip, stop = bounds[j], bounds[j + 1]
        try:
            got = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                             skiprows=skip, max_rows=stop - skip)
            if got.size != stop - skip:
                raise ValueError(f"{stop - skip - got.size} rows missing")
            if not _finite(got):
                raise ValueError("floats must be finite")
        except ValueError:
            raised[j] = True
            raise
        keep(j, got)

    if run_shares(len(bounds) - 1, parse):
        return True
    if raised.any():
        bad = _first_bad_line(path, dtype)
        if bad is not None:
            raise bad
    return False


def _finite(rows) -> bool:
    # whether every float field of the structured rows is finite
    return all(np.isfinite(rows[f]).all() for f in rows.dtype.names
               if rows.dtype[f].base.kind == "f")


def line_of_row(path, row: int) -> int:
    """The line number in ``path`` of row ``row`` (from 0) of ``read_rows``."""
    return next(islice(_split_rows(path), row, None))[0]


def _split_rows(path):
    # (line number, fields) of each row as np.loadtxt splits it
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if lineno > 1 and fields != [""]:
                yield lineno, fields


def _first_stray_line(path) -> FormatError:
    # bad UTF-8 reads as U+FFFD, which is not printable ASCII either
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stray = next((c for c in line if c not in TEXT_CHARS), None)
            if stray is not None:
                return FormatError(f"{path}:{lineno}: only printable ASCII, tab, CR and LF "
                                   f"may appear, got {stray!r}")
    return FormatError(f"{path}: only printable ASCII, tab, CR and LF may appear")


def _first_bad_line(path, dtype):
    # the FormatError of the first line that Python's int and float, held to
    # np.loadtxt (no 1_000, no ints past 64 bits), reject; None if none does
    kinds = [(name, int if dtype[name].base.kind == "i" else float)
             for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    for lineno, fields in _split_rows(path):
        if len(fields) != len(kinds):
            return FormatError(f"{path}:{lineno}: expected {len(kinds)} fields, got {len(fields)}")
        for (name, kind), token in zip(kinds, fields):
            try:
                value = kind(token)
            except ValueError as exc:
                return FormatError(f"{path}:{lineno}: {exc}")
            if kind is float and not math.isfinite(value):
                return FormatError(f"{path}:{lineno}: {name} must be finite, got {token.strip()}")
            if "_" in token or kind is int and not -2**63 <= value < 2**63:
                return FormatError(f"{path}:{lineno}: {name} is not a 64-bit decimal: {token!r}")
    return None
