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


# Every answer the engine reports is decided; the only sampled check is the
# multiplicativity sample of the bialgebra axioms.
ALLOWED_RANDOM_USES = {("bialgebra.py", "check_bialgebra_axioms")}


# A J is cofree on one degree, so a morphism into it comes in closed form;
# `cofree_on` records that degree.  Only the J builder sets it (over the
# class default of None), and only the isomorphism verdict reads it, whose
# certificate does not depend on how its candidate was found: no check
# whose claim is a hom dimension can take the closed form.
ALLOWED_COFREE_USES = {
    ("comodule.py", None, "store"),
    ("objects.py", "_build_J_on", "store"),
    ("homsolver.py", "find_isomorphism", "load"),
}


# A monomial's packed integer key is an encoding private to bialgebra: only
# that module reads or sets the slot, so its layout can change in one place.
PACKED_KEY_SLOT = "_code"


def _find(path: Path, match):
    """(file, enclosing function, line) of each node of the file for which
    match(node) holds."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if match(node):
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _is_name_comparison(node) -> bool:
    """`x.name ==`, `x.name !=`, `x.name in` or `x.name not in`."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops) \
        and any(isinstance(x, ast.Attribute) and x.attr == "name" for x in operands)


def _is_random_use(node) -> bool:
    """An attribute of the `random` module, `np.random` / `numpy.random`, or
    an import of names from either (a plain `import random` is not a use)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "random" or (
            node.attr == "random" and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return node.module in ("random", "numpy.random") or (
            node.module == "numpy" and any(a.name == "random" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name == "numpy.random" or (a.name == "random" and a.asname)
                   for a in node.names)
    return False


def _cofree_use(node):
    """"store" or "load" for a use of `cofree_on` (an attribute, a name, or a
    string that getattr could take), else None."""
    if isinstance(node, ast.Attribute) and node.attr == "cofree_on":
        return "store" if isinstance(node.ctx, ast.Store) else "load"
    if isinstance(node, ast.Name) and node.id == "cofree_on":
        return "store" if isinstance(node.ctx, ast.Store) else "load"
    if isinstance(node, ast.Constant) and node.value == "cofree_on":
        return "load"
    return None


def _is_packed_key_use(node) -> bool:
    """The packed-key slot as an attribute, or as a string getattr could take."""
    return (isinstance(node, ast.Attribute) and node.attr == PACKED_KEY_SLOT) or (
        isinstance(node, ast.Constant) and node.value == PACKED_KEY_SLOT)


def test_no_branch_on_a_preset_name():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_name_comparison)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_NAME_CHECKS, found
    assert len(found) == len(ALLOWED_NAME_CHECKS), found


def test_random_generator_only_in_the_sampled_axiom_check():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_random_use)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_RANDOM_USES, found


def test_cofree_label_set_by_the_J_builder_read_by_the_verdict_only():
    found = {kind: [c for path in sorted(SRC.glob("*.py"))
                    for c in _find(path, lambda node: _cofree_use(node) == kind)]
             for kind in ("store", "load")}
    uses = sorted(((f, func, kind) for kind, cs in found.items() for f, func, _ in cs),
                  key=str)
    assert uses == sorted(ALLOWED_COFREE_USES, key=str), found


def test_packed_monomial_key_read_only_in_bialgebra():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_packed_key_use)]
    assert found and {f for f, _, _ in found} == {"bialgebra.py"}, found
