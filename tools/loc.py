"""Code lines of each projspec module, without docstrings, comments or blank lines.

    python3 tools/loc.py [--root CHECKOUT]

Counts CHECKOUT/src/projspec/*.py (default: this repository) and prints one
line per module and the total. A line counts when a token other than a
comment, a line break or an indentation change lies on it, so each line of a
multi-line expression counts; the lines of a module, class or function
docstring (found by ast) do not. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of Python source text that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = p.parse_args(argv)
    total = 0
    for path in sorted((args.root / "src" / "projspec").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:10s} {count:5d}")
    print(f"{'total':10s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
