"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import omflow

SOURCES = sorted(Path(omflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; invariants must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"


def _tu_status_literals(tree):
    """(line, value) of every constant compared with an `x.tu_status`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(getattr(x, "attr", None) == "tu_status" for x in operands):
            continue
        for x in operands:
            for leaf in getattr(x, "elts", [x]):  # a tuple, list or set literal
                if isinstance(leaf, ast.Constant):
                    yield leaf.lineno, leaf.value


def test_tu_status_comparisons_use_known_states():
    # a misspelt state would silently switch a suite's regularity gate
    found = [
        (path.name, line, value)
        for path in SOURCES
        for line, value in _tu_status_literals(ast.parse(path.read_text()))
    ]
    assert found, "no comparison with tu_status found"
    unknown = [f for f in found if f[2] not in ("true", "not-tu")]
    assert unknown == [], f"unknown tu_status states compared: {unknown}"
