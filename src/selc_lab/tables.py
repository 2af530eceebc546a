"""The one reader of delimited numeric text: CSV datasets, target
checkpoints, losses and metric series. Each such file is a header line,
which its loader checks, then one row per line; empty lines are skipped.
Only printable ASCII, tab, CR and LF may appear in it."""

import math
import warnings
from itertools import islice

import numpy as np

from .errors import FormatError

# np.loadtxt reads some non-ASCII characters as digits (a field U+1170
# loads as the int 4416), and the separators 0x1c-0x1f inside a float
TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
TEXT_CHARS = frozenset(TEXT_BYTES.decode())
SCAN_CHUNK = 1 << 20


def open_text(path):
    """``path`` open for reading as text, once a scan of its bytes found
    only ``TEXT_BYTES``; a stray byte is a ``FormatError`` naming its line."""
    with open(path, "rb") as raw:
        # in chunks, so that the scan adds no file-sized buffer to the peak
        for chunk in iter(lambda: raw.read(SCAN_CHUNK), b""):
            if chunk.translate(None, TEXT_BYTES):
                raise _first_stray_line(path)
    return open(path)


def read_rows(path, fh, columns, delimiter=None) -> np.ndarray:
    """The rows left in ``fh``, opened on ``path`` by ``open_text`` and read
    past its header, as a 1-D structured array of dtype ``columns``
    (``(name, float, (width,))`` for ``width`` floats), parsed by one
    ``np.loadtxt``. If that fails or a float is not finite, a rescan with
    Python's ``int``/``float`` names the bad line."""
    dtype = np.dtype(columns)
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
