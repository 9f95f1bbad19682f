"""Size of the library: total and code lines of each src/typesched module.

    python3 tools/size.py

A code line is one that is not blank, not a comment alone and not part of
a docstring (the leading string of a module, class or function body).  One
line per module, then the totals over all of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "typesched"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of tree span."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> None:
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    totals = [0, 0]
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path)
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main()
