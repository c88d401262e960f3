"""tools/code_lines.py: what counts as a code line."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string
        that is no docstring"""
        return (x +
                1)
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, def, the two lines of s and the two of the return.
    assert code_lines.code_lines(SOURCE) == 7
