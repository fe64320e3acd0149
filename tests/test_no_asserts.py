"""Invariants in the library must survive ``python -O``.

``assert`` statements are stripped under ``-O``, so every runtime check
in ``src/superseq`` has to raise an explicit exception instead.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "superseq").glob("*.py"))


def test_sources_found():
    assert any(path.name == "linalg.py" for path in SOURCES)


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
