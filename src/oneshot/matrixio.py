"""Plain-text matrix container.

Format: a header line ``oneshot-matrix v1 <rows> <cols>`` followed by the
entries in row-major order, whitespace-separated, 17 significant digits
each (exact float64 round trip).  Vectors are stored as n x 1 matrices.
Output is byte-reproducible for fixed inputs.
"""

from __future__ import annotations

import io
import os
from itertools import chain, islice

import numpy as np

from .errors import OneShotError

HEADER_MAGIC = "oneshot-matrix"
FORMAT_VERSION = "v1"


class MatrixFormatError(OneShotError, ValueError):
    """Malformed matrix container file."""


def _matrix_lines(array):
    """The header line and an iterator over the entry lines of the container."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={arr.ndim}")
    rows, cols = arr.shape
    # '%.16e' % v is the text of f"{v:.16e}", one template formats a whole row
    template = " ".join(["%.16e"] * cols) + "\n"
    return (f"{HEADER_MAGIC} {FORMAT_VERSION} {rows} {cols}\n",
            (template % tuple(row.tolist()) for row in arr))


def format_matrix(array) -> str:
    header, lines = _matrix_lines(array)
    return header + "".join(lines)


def write_matrix(path, array):
    """Write the container row by row, without holding the whole text."""
    header, lines = _matrix_lines(array)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(lines)


#: Characters of whole lines that the reader splits and converts at a time.
READ_CHUNK = 1 << 16


def _parse_stream(fh, length: int) -> np.ndarray:
    """The matrix in a text stream of at most ``length`` characters,
    converted about READ_CHUNK characters at a time into one array."""
    first = fh.readline().rstrip("\n")
    header = first.split()
    if len(header) != 4 or header[0] != HEADER_MAGIC or header[1] != FORMAT_VERSION:
        raise MatrixFormatError(f"bad header: {first!r}")
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError as exc:
        raise MatrixFormatError(f"bad dimensions in header: {first!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"bad dimensions in header: {first!r}")
    size, found = rows * cols, 0

    def entries(lines):
        nonlocal found
        tokens = "".join(lines).split()
        found += len(tokens)
        return tokens

    stream = chain.from_iterable(map(entries, iter(lambda: fh.readlines(READ_CHUNK), [])))
    flat, error = None, None
    # each entry takes a character and a separator, so a header promising
    # more than the text can hold fails the count below without allocating
    if size <= (length + 1) // 2:
        try:
            flat = np.fromiter(map(float, islice(stream, size)), dtype=float, count=size)
        except ValueError as exc:  # a non-numeric entry, or fewer than size
            error = exc
    for _ in stream:  # count the entries left over
        pass
    if found != size:
        raise MatrixFormatError(f"expected {size} entries, found {found}")
    if error is not None:
        raise MatrixFormatError(f"non-numeric entry: {error}") from error
    return flat.reshape(rows, cols)


def parse_matrix(text: str) -> np.ndarray:
    return _parse_stream(io.StringIO(text), len(text))


def read_matrix(path) -> np.ndarray:
    """Read the container in chunks of lines, without holding the whole text."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_stream(fh, os.fstat(fh.fileno()).st_size)


def read_vector(path) -> np.ndarray:
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise MatrixFormatError(f"expected an n x 1 vector, got shape {mat.shape}")
    return mat[:, 0]
