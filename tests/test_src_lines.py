"""tools/src_lines.py, the package's line counter: code lines leave out
docstrings, comments and blank lines, and keep every line of other strings."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    sys.path.insert(0, str(TOOLS))
    try:
        import src_lines
    finally:
        sys.path.remove(str(TOOLS))
    source = (
        '"""Module doc."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Doc\n'
        '    over two lines."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
        "    return x  # trailing\n"
    )
    assert src_lines.count(source) == (9, 4)
