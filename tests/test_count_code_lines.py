"""The code-line counter: docstrings, comments and blank lines do not
count; every other line that holds a token does."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

_MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class Reader:
    """Class docstring."""

    def read(self):
        """Function docstring,
        over two lines."""
        "a string statement that is not a docstring"
        return os.path.join(
            "a",
            "b",
        )
'''


@pytest.mark.parametrize(
    "source, expected",
    [
        # import, class, def, the string statement, the four lines of the return
        (_MODULE, 8),
        ('x = """one\n\ntwo"""\n', 3),  # a string that is not a docstring: each of its lines
        ("def f():\n    return {\n        1: 2,\n    }\n", 4),
        ('def f(): "docstring"; return 1\n', 1),  # the docstring shares its line with code
        # ast counts this docstring's end in UTF-8 bytes, past the whole line
        ('class A:\n    """éééééééééé"""; x = 1\n', 2),
        ('def f():\n    """docstring"""\n', 1),
    ],
)
def test_code_lines(source, expected):
    assert count_code_lines.code_lines(source) == expected
