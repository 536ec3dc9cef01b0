"""Design guards: rules about the source that no behavioural test can see."""
from __future__ import annotations

import ast
from pathlib import Path

import supercomod

SRC = Path(supercomod.__file__).resolve().parent

# A preset is described by its row of the preset table; code reads the row
# and never asks for a preset by name.  The corestrictions and the embedding
# check that they start from the one preset they are defined on.
ALLOWED_NAME_CHECKS = {
    ("comodule.py", "corestrict_psi"),
    ("comodule.py", "corestrict_theta"),
    ("comodule.py", "embed_xi_polynomial"),
}


def _name_comparisons(path: Path):
    """(file, enclosing function, line) of each `x.name ==`, `x.name !=`,
    `x.name in` or `x.name not in` comparison in the file."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops) \
                    and any(isinstance(x, ast.Attribute) and x.attr == "name" for x in operands):
                found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_branch_on_a_preset_name():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _name_comparisons(path)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_NAME_CHECKS, found
    assert len(found) == len(ALLOWED_NAME_CHECKS), found
