import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oneshot.matrixio import (MatrixFormatError, format_matrix, parse_matrix,
                              read_matrix, read_vector, write_matrix)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


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

    def test_rejects_wrong_count(self):
        with pytest.raises(MatrixFormatError, match="entries"):
            parse_matrix("oneshot-matrix v1 2 2\n1 2 3\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("oneshot-matrix v1 1 2\n1 abc\n")

    def test_vector_reader_rejects_matrices(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        with pytest.raises(MatrixFormatError):
            read_vector(path)
