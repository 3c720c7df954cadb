"""Count the code lines of each module in `src/nrpca`.

A code line holds a token other than a comment, a newline or
indentation, and is not part of a string statement (a docstring).
Blank lines, comments and docstrings are left out, so the count moves
only with code.

Usage: python tools/code_lines.py
"""

import ast
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


def code_lines(path: Path) -> int:
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = {
        line
        for token in tokens
        if token.type not in _LAYOUT
        for line in range(token.start[0], token.end[0] + 1)
    }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    package = Path(__file__).resolve().parents[1] / "src" / "nrpca"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")
