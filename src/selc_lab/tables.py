"""The one reader of delimited numeric text: CSV datasets, target
checkpoints, losses and metric series. Each such file is a header line,
which its loader checks, then one row per line; empty lines are skipped.
Only printable ASCII, tab, CR and LF may appear in it.

A large file is parsed in shares by this process and forked children
(``read_rows``); the scan of its bytes that ``open_text`` makes anyway
counts its lines and tells whether each LF ends one row."""

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
# read_rows parses a file in shares only from this size on. On 2 vCPUs
# np.loadtxt parses perfbench's losses.csv at about 30 ns per byte, and a
# fork, the child's exit and its reaping take 5-9 ms. In two processes, a
# 2 MB cut of that file took 42-46 ms against 58-66 ms in one, while 1 MB
# took 27-30 ms against 30-31 ms (medians of 15 reads, three runs).
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


def read_rows(path, fh, columns, delimiter=None) -> np.ndarray:
    """The rows left in ``fh``, opened on ``path`` by ``open_text`` and read
    past its header, as a 1-D structured array of dtype ``columns``
    (``(name, float, (width,))`` for ``width`` floats), parsed by
    ``np.loadtxt``: in shares (``_parse_shares``) or else in one call. If
    a share or that call fails, or a float is not finite, a rescan with
    Python's ``int``/``float`` names the bad line."""
    dtype = np.dtype(columns)
    rows = _parse_shares(path, fh, dtype, delimiter)
    if rows is None:
        try:
            with warnings.catch_warnings():
                # a header-only file has zero rows, it is not malformed
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
        except ValueError as exc:
            raise _first_bad_line(path, dtype, delimiter, exc) from exc
    if not all(np.isfinite(rows[f]).all() for f in dtype.names if dtype[f].base.kind == "f"):
        raise _first_bad_line(path, dtype, delimiter, "floats must be finite")
    return rows


def _parse_shares(path, fh, dtype, delimiter):
    """The rows after the header of ``fh`` parsed in shares, one per
    process that ``fork_workers`` allows, as a view of an anonymous shared
    mapping; or None if one process must parse them. Share j is a run of
    whole lines; its process hands ``np.loadtxt`` the file's path with
    ``skiprows`` and ``max_rows`` set to the share's lines, which reads in
    blocks, not line by line as from ``fh``, and writes the rows to their
    place in the mapping. If a share raises or returns fewer rows than it
    has lines, the answer is None.

    ``max_rows`` does not count a line that ``np.loadtxt`` skips, so there
    are no shares in a file that is not ``plain`` or whose delimiter is
    whitespace (a line of blanks is skipped), nor under
    ``FAN_OUT_MIN_BYTES`` or with ``fh`` not at the second line."""
    lines = fh.lines
    if (delimiter is None or not lines.plain or lines.size < FAN_OUT_MIN_BYTES
            or fh.tell() != lines.head):
        return None
    total = lines.count - 1
    workers = fork_workers(total)
    if workers < 2:
        return None
    # share j is lines bounds[j] + 1 .. bounds[j + 1] of the file, line 1
    # the header
    bounds = [1 + j * total // workers for j in range(workers + 1)]
    # imported only here, so that a small file does not load it
    import mmap

    rows = np.frombuffer(mmap.mmap(-1, total * dtype.itemsize), dtype)
    # an absolute path, which np.loadtxt cannot take for a URL
    source = os.path.abspath(path)

    def parse(j):
        skip, stop = bounds[j], bounds[j + 1]
        got = np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1,
                         skiprows=skip, max_rows=stop - skip)
        if got.size != stop - skip:
            raise ValueError(f"{stop - skip - got.size} rows missing")
        rows[skip - 1:stop - 1] = got

    return rows if run_shares(workers, parse) else None


def line_of_row(path, row: int, delimiter) -> int:
    """The line number in ``path`` of row ``row`` (from 0) of ``read_rows``."""
    return next(islice(_split_rows(path, delimiter), row, None))[0]


def _split_rows(path, delimiter):
    # (line number, fields) of each row as np.loadtxt splits it
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(delimiter)
            if lineno > 1 and fields not in ([], [""]):
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


def _first_bad_line(path, dtype, delimiter, why) -> FormatError:
    # Python's int and float, held to np.loadtxt: no 1_000, no ints past 64 bits
    kinds = [(name, int if dtype[name].base.kind == "i" else float)
             for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    for lineno, fields in _split_rows(path, delimiter):
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
    return FormatError(f"{path}: {why}")
