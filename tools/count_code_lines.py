"""Count code lines: lines that hold a token other than a comment, a
docstring or layout (newlines, indents, dedents).

A docstring is the string statement that opens a module, class or
function body. The count is per module and in total, over the Python
files under the paths given on the command line, `src/` by default:

    python3 tools/count_code_lines.py [PATH ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code. A docstring's own
    tokens are left out, not its lines, so `def f(): "doc"` is code."""
    text = source.splitlines()

    def position(line: int, byte_col: int) -> tuple[int, int]:
        # ast counts columns in UTF-8 bytes, tokenize in characters.
        return line, len(text[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _WITH_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            span = position(first.lineno, first.col_offset), position(first.end_lineno, first.end_col_offset)
            docstrings.append(span)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and not any(lo <= tok.start and tok.end <= hi for lo, hi in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
