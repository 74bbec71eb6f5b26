"""Count the code lines of the library: the lines of ``src/oneshot/*.py``
that are not blank and hold more than a comment or a docstring.

    python3 tools/code_lines.py [SRC_DIR]

Prints one ``<count> <module>`` line per module and a ``<count> total``
line.  A docstring is the string that opens a module, class or function
body; every line it spans counts as documentation, as does a line that
holds only a comment.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def docstring_lines(tree) -> set[int]:
    """The line numbers spanned by every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment, a line break, an indent or a docstring."""
    skipped = docstring_lines(ast.parse(source))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in ignored:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skipped)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = os.path.join(argv[0] if argv else os.path.join(ROOT, "src"), "oneshot")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print(f"{count:5d} {name}")
            total += count
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
