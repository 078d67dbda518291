"""The Python examples of README.md, run as written.

The ```python blocks run in order in one namespace.  A comment that
closes a bare expression's line, or comment lines right below it, document
its value: their text, whitespace runs collapsed, must start with the
value's repr.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def documented_value(lines: list[str], stmt: ast.stmt) -> str | None:
    """The comment text after `stmt`: a comment closing its last line and
    the comment lines right below it, or None if there is none."""
    parts = []
    rest = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
    if rest.startswith("#"):
        parts.append(rest[1:])
    for line in lines[stmt.end_lineno :]:
        if not line.lstrip().startswith("#"):
            break
        parts.append(line.lstrip()[1:])
    return " ".join(" ".join(parts).split()) if parts else None


def test_readme_examples_show_their_values():
    namespace: dict = {}
    compared = 0
    for block in python_blocks(README.read_text()):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            want = documented_value(lines, stmt)
            if want is not None:
                assert want.startswith(" ".join(repr(got).split())), (want, got)
                compared += 1
    # a broken extractor must not pass by comparing nothing
    assert compared >= 6
