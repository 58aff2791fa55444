"""The library certifies with explicit checks that raise, never with an
``assert``: ``python -O`` strips assert statements, so a check guarded by
one would pass silently under it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twistr"


def assert_lines(source):
    """The line numbers of the assert statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_scan_finds_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == [], path.name
