"""Count the lines of the package source: per file of src/surrogate_dfl and in
total, all lines and code lines.  Code lines leave out docstrings, comments
and blank lines: a code line holds at least one token that is not a comment
and not part of a docstring.

usage: python tools/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surrogate_dfl"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str):
    """(lines, code lines) of one Python source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or tok.start[0] in docs:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> int:
    total_lines = total_code = 0
    print(f"{'file':<16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6,} {total_code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
