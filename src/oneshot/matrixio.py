"""Plain-text matrix container.

Format: a header line ``oneshot-matrix v1 <rows> <cols>`` followed by the
entries in row-major order, whitespace-separated, 17 significant digits
each (exact float64 round trip).  Vectors are stored as n x 1 matrices.
Output is byte-reproducible for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import OneShotError

HEADER_MAGIC = "oneshot-matrix"
FORMAT_VERSION = "v1"


class MatrixFormatError(OneShotError):
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


def parse_matrix(text: str) -> np.ndarray:
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != HEADER_MAGIC or header[1] != FORMAT_VERSION:
        raise MatrixFormatError(f"bad header: {lines[0]!r}")
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError as exc:
        raise MatrixFormatError(f"bad dimensions in header: {lines[0]!r}") from exc
    values = " ".join(lines[1:]).split()
    if len(values) != rows * cols:
        raise MatrixFormatError(
            f"expected {rows * cols} entries, found {len(values)}")
    try:
        flat = np.array([float(v) for v in values])
    except ValueError as exc:
        raise MatrixFormatError(f"non-numeric entry: {exc}") from exc
    return flat.reshape(rows, cols)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def read_vector(path) -> np.ndarray:
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise MatrixFormatError(f"expected an n x 1 vector, got shape {mat.shape}")
    return mat[:, 0]
