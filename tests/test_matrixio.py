import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oneshot import matrixio
from oneshot.matrixio import (MatrixFormatError, format_matrix, parse_matrix,
                              read_matrix, read_vector, write_matrix)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def whole_text_parse(text):
    """The parser that joined and split the whole text at once, kept as the
    oracle of the chunked reader."""
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "oneshot-matrix" or header[1] != "v1":
        raise MatrixFormatError(f"bad header: {lines[0]!r}")
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError as exc:
        raise MatrixFormatError(f"bad dimensions in header: {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"bad dimensions in header: {lines[0]!r}")
    values = " ".join(lines[1:]).split()
    if len(values) != rows * cols:
        raise MatrixFormatError(
            f"expected {rows * cols} entries, found {len(values)}")
    try:
        flat = np.array([float(v) for v in values])
    except ValueError as exc:
        raise MatrixFormatError(f"non-numeric entry: {exc}") from exc
    return flat.reshape(rows, cols)


def outcome(parse, source):
    """The array's shape and bytes, or the type and text of the error."""
    try:
        array = parse(source)
    except (MatrixFormatError, ValueError) as exc:
        return type(exc), str(exc)
    return array.shape, array.tobytes()


HEADERS = ["oneshot-matrix v1 2 2", "oneshot-matrix v1 1 3", "oneshot-matrix v1 0 2",
           "oneshot-matrix v1 3 -1", "oneshot-matrix v1 100000 100000",
           "oneshot-matrix v1 2 x", "oneshot-matrix v2 1 1", "oneshot-matrix v1 1",
           " oneshot-matrix\tv1 1 2 ", ""]
TOKENS = ["1", "-2.5", "3.1415926535897931e+00", "nan", "-inf", "1_0", "abc", "0x1p3",
          " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028"]


class TestContainer:
    def test_header_layout(self):
        text = format_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = text.strip().split("\n")
        assert lines[0] == "oneshot-matrix v1 2 2"
        assert len(lines) == 3

    def test_vectors_stored_as_single_column(self, tmp_path):
        path = tmp_path / "v.txt"
        write_matrix(path, np.array([1.0, -2.5, 3.125]))
        assert read_matrix(path).shape == (3, 1)
        assert np.array_equal(read_vector(path), [1.0, -2.5, 3.125])

    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=finite_floats))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact(self, matrix):
        assert np.array_equal(parse_matrix(format_matrix(matrix)), matrix)

    def test_output_is_byte_stable(self, rng):
        matrix = rng.standard_normal((5, 3))
        assert format_matrix(matrix) == format_matrix(matrix.copy())

    @given(arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  elements=st.floats(width=64)))
    @settings(max_examples=200, deadline=None)
    def test_text_is_the_per_entry_format(self, matrix):
        # oracle: one f-string per entry, the lines joined whole
        lines = [f"oneshot-matrix v1 {matrix.shape[0]} {matrix.shape[1]}"]
        lines += [" ".join(f"{v:.16e}" for v in row) for row in matrix]
        assert format_matrix(matrix) == "\n".join(lines) + "\n"

    def test_written_file_is_the_formatted_text(self, tmp_path, rng):
        for array in (rng.standard_normal((7, 4)), rng.standard_normal(5), np.zeros((0, 3))):
            path = tmp_path / "m.txt"
            write_matrix(path, array)
            assert path.read_bytes() == format_matrix(array).encode()

    def test_bad_shape_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="ndim=3"):
            write_matrix(tmp_path / "m.txt", np.zeros((2, 2, 2)))
        assert not (tmp_path / "m.txt").exists()

    def test_seventeen_significant_digits(self):
        text = format_matrix(np.array([[np.pi]]))
        assert "3.1415926535897931e+00" in text

    def test_rejects_bad_header(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("not-a-matrix v1 2 2\n1 2\n3 4\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("oneshot-matrix v2 1 1\n1\n")

    @pytest.mark.parametrize("dims", ["-28 -169", "-28 169", "28 -169"])
    def test_rejects_negative_dimensions(self, dims):
        # -28 x -169 entries used to reach reshape, which failed with numpy's
        # "can only specify one unknown dimension"
        entries = " ".join(["1"] * (28 * 169 if dims == "-28 -169" else 0))
        text = f"oneshot-matrix v1 {dims}\n{entries}\n"
        message = f"bad dimensions in header: 'oneshot-matrix v1 {dims}'"
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    def test_rejects_wrong_count(self):
        with pytest.raises(MatrixFormatError, match="entries"):
            parse_matrix("oneshot-matrix v1 2 2\n1 2 3\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("oneshot-matrix v1 1 2\n1 abc\n")

    @given(header=st.sampled_from(HEADERS), newline=st.sampled_from(["\n", "\r\n", ""]),
           tokens=st.lists(st.sampled_from(TOKENS), max_size=12),
           chunk=st.sampled_from([1, 5, matrixio.READ_CHUNK]))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_whole_text_parser(self, tmp_path, header, newline, tokens, chunk):
        # same arrays to the bit, same errors to the letter, wherever the
        # chunks end; the file is read with universal newlines, as the
        # whole-text reader read it
        text = header + newline + "".join(tokens)
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as fh:
            expected = outcome(whole_text_parse, fh.read())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrixio, "READ_CHUNK", chunk)
            assert outcome(parse_matrix, text) == outcome(whole_text_parse, text)
            assert outcome(read_matrix, path) == expected

    def test_reading_holds_no_copy_of_the_text(self, tmp_path, rng):
        # the whole-text reader peaked at about 21 times the array here; a
        # chunk of text and its tokens take about 6 READ_CHUNK
        matrix = rng.standard_normal((300, 300))
        path = tmp_path / "m.txt"
        write_matrix(path, matrix)
        tracemalloc.start()
        try:
            loaded = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, matrix)
        assert peak <= matrix.nbytes + 16 * matrixio.READ_CHUNK

    def test_vector_reader_rejects_matrices(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        with pytest.raises(MatrixFormatError):
            read_vector(path)
