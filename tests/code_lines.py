"""Count the code lines of Python files.

A code line is neither blank, nor a comment alone, nor inside the
docstring of a module, class or function.  Prints one count per file and
their total::

    python tests/code_lines.py src/spinqc/*.py

It imports nothing of spinqc, so one copy can count any tree.  pytest
does not collect this file.
"""

import ast
import sys


def code_lines(text: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for no, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and no not in docstrings)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            code = code_lines(fh.read())
        total += code
        print(f"{code:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
