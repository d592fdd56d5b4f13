"""Print the number of code lines in each module of ``src/latgraph`` and
their total.  A code line is a non-blank line that neither starts with
``#`` nor lies in a module, class or function docstring.

Run from the repository root::

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latgraph"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of the module, its classes and its
    functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    return sum(
        1 for i, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docstrings
    )


if __name__ == "__main__":
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
