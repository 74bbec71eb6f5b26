"""The code-line counter of ``tools/code_lines.py``, which the ROADMAP's
line count of ``src/`` reads."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        text = """a string that is
        not a docstring"""
        return x + \\
            len(text)
'''


def test_counts_lines_with_code_only():
    # import, class, def, the two lines of text and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "oneshot"
    package.mkdir()
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\n# done\n")
    (package / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    7 a.py", "    1 b.py", "    8 total", ""]
