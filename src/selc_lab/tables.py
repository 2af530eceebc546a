"""The one reader of comma-separated numeric text: CSV datasets and
losses. Each such file is a header line, which its loader checks, then one
row per line; empty lines are skipped. Only printable ASCII, tab, CR and
LF may appear in it.

``read_rows`` parses a file, or a window of its lines, with one
``np.loadtxt`` call in the process that calls it. The scan of its bytes
that ``open_text`` makes anyway counts its lines and tells whether each
LF ends one row, which a parse in windows of lines needs (the epoch
shares of ``turning.losses_file_series``, each in a child of its own)."""

import math
import warnings
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import FormatError

# np.loadtxt reads some non-ASCII characters as digits (a field U+1170
# loads as the int 4416), and the separators 0x1c-0x1f inside a float
TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
TEXT_CHARS = frozenset(TEXT_BYTES.decode())
# the scan reads a file in chunks of this size, so that it adds no
# file-sized buffer to the peak
SCAN_CHUNK = 1 << 16


class Lines(NamedTuple):
    """What the scan of ``open_text`` saw of a file: its ``size`` in
    bytes, its ``count`` of LF bytes, and whether it is ``plain``: no CR,
    no empty line and an LF at the end, so that each LF ends one row or
    the header."""

    size: int
    count: int
    plain: bool


def open_text(path):
    """``path`` open for reading as text, once a scan of its bytes found
    only ``TEXT_BYTES``; a stray byte is a ``FormatError`` naming its line.
    The file's ``lines`` attribute holds the ``Lines`` of the scan."""
    size = count = 0
    plain, last = True, b"\n"
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(SCAN_CHUNK), b""):
            if chunk.translate(None, TEXT_BYTES):
                raise _first_stray_line(path)
            # numpy counts bytes about three times as fast as bytes.count
            lf = np.frombuffer(chunk, np.uint8) == 0x0A
            count += int(np.count_nonzero(lf))
            size += len(chunk)
            # an empty line is two LFs in a row, across chunks too, or an
            # LF at the start
            plain = (plain and b"\r" not in chunk and not (lf[0] and last == b"\n")
                     and not (lf[1:] & lf[:-1]).any())
            last = chunk[-1:]
    fh = open(path)
    fh.lines = Lines(size, count, plain and last == b"\n")
    return fh


def read_rows(path, source, columns, skiprows=0, max_rows=None) -> np.ndarray:
    """The comma-separated rows that one ``np.loadtxt`` call in this
    process reads from ``source`` as a 1-D structured array of dtype
    ``columns`` (``(name, float, (width,))`` for ``width`` floats).
    ``source`` is a file opened on ``path`` by ``open_text`` and read past
    its header, or ``path`` with the window of ``max_rows`` lines after
    ``skiprows``. A row that does not parse, or a float that is not
    finite, is a ``FormatError``; for a whole file, a rescan with Python's
    ``int``/``float`` names its first bad line."""
    dtype = np.dtype(columns)

    def bad(message):
        return (max_rows is None and _first_bad_line(path, dtype)
                or FormatError(f"{path}: {message}"))

    try:
        with warnings.catch_warnings():
            # a header-only file has zero rows, it is not malformed
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                              skiprows=skiprows, max_rows=max_rows)
    except ValueError as exc:
        raise bad(exc) from exc
    if not _finite(rows):
        raise bad("floats must be finite")
    return rows


def _finite(rows) -> bool:
    """Whether every float field of the structured ``rows`` is finite."""
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
    """The ``FormatError`` of the first row of ``dtype`` in ``path`` that
    Python's int and float, held to ``np.loadtxt`` (no 1_000, no ints past
    64 bits), reject; None if none does."""
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
