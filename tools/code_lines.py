"""Line counts of the Python modules under a directory.

    python tools/code_lines.py SRC_DIR

prints, for each `*.py` file under SRC_DIR, its lines and its code lines,
then the totals. A code line holds a token that is neither a comment nor
part of a docstring (the string that opens a module, class or function
body); blank lines do not count either.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that no code line needs
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python tools/code_lines.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(argv[1])
    total = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total += lines
        total_code += code
        print(f"{lines:6} {code:6}  {path.relative_to(root)}")
    print(f"{total:6} {total_code:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
