"""Design guards: rules about the source that no behavioural test can see."""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import supercomod
from supercomod import bialgebra, comodule, homsolver

SRC = Path(supercomod.__file__).resolve().parent

# A preset is described by its row of the preset table; code reads the row
# and never asks for a preset by name.  The corestrictions and the embedding
# check that they start from the one preset they are defined on.
ALLOWED_NAME_CHECKS = {
    ("comodule.py", "corestrict_psi"),
    ("comodule.py", "corestrict_theta"),
    ("comodule.py", "embed_xi_polynomial"),
}


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


# Dually, an F is free on one degree, so a morphism out of it comes in
# closed form; `free_on` records that degree, set only by the F builder and
# read only by the isomorphism verdict, for the same reason.
ALLOWED_FREE_USES = {
    ("comodule.py", None, "store"),
    ("objects.py", "_build_F_on", "store"),
    ("homsolver.py", "find_isomorphism", "load"),
}


# `_monomial` builds a monomial without validating it; only bialgebra, whose
# arithmetic keeps its operands valid, may call it.  Everywhere else goes
# through the validating `Monomial(...)`.
TRUSTED_CONSTRUCTOR = "_monomial"


# A monomial's packed integer key is an encoding private to bialgebra: only
# that module reads or sets the slot, so its layout can change in one place.
PACKED_KEY_SLOT = "_code"


# Gaussian elimination over F_p has one home, fplinalg._reduce; a row is made
# monic by _monic_row.  A modular inverse anywhere else in src/ is a second
# eliminator in the making.
ALLOWED_INVERSES = {
    ("fplinalg.py", "_monic_row"),
    ("fplinalg.py", "_reduce"),
}


# Exact blocks are Python ints mod p, so the engine imports no numpy.  How an
# FpMatrix stores them is private to fplinalg: everywhere else reads a block
# through its methods, so the storage can change in one place.
MATRIX_STORAGE = "_columns"


# Monomials are multiplied in bialgebra only.  The Koszul-signed product in
# B (x) B is TensorSum.mul, through which H's coaction is built; the tensor
# product of comodules multiplies through _coaction_product, given the
# parity of each label's degree.  No other module reads `product`.
ALLOWED_PRODUCT_USES: set = set()


# The sign of moving exterior letters past each other has one rule,
# bialgebra's _exterior_sign: `product` and the kernels of TensorSum.mul and
# of the comodule tensor product take it from there, and the kernels
# multiply packed keys themselves rather than calling `product` per pair of
# terms.
SIGN_RULE = "_exterior_sign"
SIGN_RULE_CALLERS = {"product", "mul", "_coaction_product"}


# Presets are interned like monomials: `get_preset` builds the one preset of
# each (name, p) on first use, so a preset is equal only to itself and
# compares and hashes by identity; no field-wise equality keeps copies in
# step.  Each preset holds its own degree memos, so no module-level table
# keeps them apart from it.
PRESET_CONSTRUCTORS = {("bialgebra.py", "get_preset")}


# The validating `Comodule(...)` checks and merges outside data: a JSON
# document, a test, a user.  Every builder in src/ emits the stored form and
# goes through `Comodule._trusted`, so in src/ only `Comodule.from_dict`
# reaches the validating constructor.
ALLOWED_VALIDATING_CONSTRUCTIONS = {("comodule.py", "from_dict")}


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
    """An attribute of the `random` module or of `np.random` / `numpy.random`,
    or an import of either module or of names from it."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "random" or (
            node.attr == "random" and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return node.module in ("random", "numpy.random") or (
            node.module == "numpy" and any(a.name == "random" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name in ("random", "numpy.random") for a in node.names)
    return False


def _attribute_use(node, attr: str):
    """"store" or "load" for a use of `attr` (an attribute, a name, or a
    string that getattr could take), else None."""
    if isinstance(node, ast.Attribute) and node.attr == attr:
        return "store" if isinstance(node.ctx, ast.Store) else "load"
    if isinstance(node, ast.Name) and node.id == attr:
        return "store" if isinstance(node.ctx, ast.Store) else "load"
    if isinstance(node, ast.Constant) and node.value == attr:
        return "load"
    return None


def _attribute_uses(attr: str) -> list:
    """(file, function, "store" or "load") of each use of `attr` in src/."""
    found = {kind: [c for path in sorted(SRC.glob("*.py"))
                    for c in _find(path, lambda node: _attribute_use(node, attr) == kind)]
             for kind in ("store", "load")}
    return sorted(((f, func, kind) for kind, cs in found.items() for f, func, _ in cs),
                  key=str)


def _is_trusted_constructor_use(node) -> bool:
    """`_monomial` as a name, an attribute, an imported name or a string."""
    return (isinstance(node, ast.Name) and node.id == TRUSTED_CONSTRUCTOR) or (
        isinstance(node, ast.Attribute) and node.attr == TRUSTED_CONSTRUCTOR) or (
        isinstance(node, ast.alias) and node.name == TRUSTED_CONSTRUCTOR) or (
        isinstance(node, ast.Constant) and node.value == TRUSTED_CONSTRUCTOR)


def _is_packed_key_use(node) -> bool:
    """The packed-key slot as an attribute, or as a string getattr could take."""
    return (isinstance(node, ast.Attribute) and node.attr == PACKED_KEY_SLOT) or (
        isinstance(node, ast.Constant) and node.value == PACKED_KEY_SLOT)


def _is_numpy_import(node) -> bool:
    """`import numpy`, `import numpy.x` or `from numpy[.x] import ...`."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _is_matrix_storage_use(node) -> bool:
    """The storage slot of FpMatrix as an attribute, or as a string getattr
    could take."""
    return (isinstance(node, ast.Attribute) and node.attr == MATRIX_STORAGE) or (
        isinstance(node, ast.Constant) and node.value == MATRIX_STORAGE)


def _is_modular_power(node) -> bool:
    """A call `pow(x, e, m)`: a modular power, `pow(x, -1, p)` the inverse."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "pow" and len(node.args) == 3


def _is_product_use(node) -> bool:
    """`product` read as a name or as an attribute (a call or a reference)."""
    return (isinstance(node, ast.Name) and node.id == "product"
            and isinstance(node.ctx, ast.Load)) or (
        isinstance(node, ast.Attribute) and node.attr == "product")


def test_monomials_are_multiplied_in_bialgebra_only():
    found = [c for path in sorted(SRC.glob("*.py")) if path.name != "bialgebra.py"
             for c in _find(path, _is_product_use)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_PRODUCT_USES, found


def _is_bit_counting_loop(node) -> bool:
    """A loop or comprehension that counts bits: the shape of an inversion
    count on exterior masks."""
    loops = (ast.While, ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    return isinstance(node, loops) and any(
        isinstance(n, ast.Attribute) and n.attr == "bit_count" for n in ast.walk(node))


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name


def test_only_outside_data_reaches_the_validating_constructor():
    # a call of `Comodule`, or of `cls` in the classmethods of comodule.py
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _calls("Comodule"))]
    found += _find(SRC / "comodule.py", _calls("cls"))
    assert {(f, func) for f, func, _ in found} == ALLOWED_VALIDATING_CONSTRUCTIONS, found
    assert len(found) == len(ALLOWED_VALIDATING_CONSTRUCTIONS), found


def test_one_exterior_sign_rule():
    path = SRC / "bialgebra.py"
    loops = _find(path, _is_bit_counting_loop)
    assert [func for _, func, _ in loops] == [SIGN_RULE], loops
    assert {func for _, func, _ in _find(path, _calls(SIGN_RULE))} == SIGN_RULE_CALLERS
    kernels = SIGN_RULE_CALLERS - {"product"}
    assert not [c for c in _find(path, _is_product_use) if c[1] in kernels]


def _dicts_keyed_by(m, objects, depth: int = 3) -> list:
    """The dicts with the key m among objects and, down to depth, among the
    values of the dicts, tuples and lists in them."""
    found = []
    for obj in objects:
        if isinstance(obj, dict):
            found += [obj] if m in obj else []
            found += _dicts_keyed_by(m, obj.values(), depth - 1) if depth else []
        elif isinstance(obj, (tuple, list)) and depth:
            found += _dicts_keyed_by(m, obj, depth - 1)
    return found


def test_presets_are_interned_and_hold_their_own_degree_memos():
    found = [c for path in sorted(SRC.glob("*.py"))
             for c in _find(path, _calls("CoalgebraPreset"))]
    assert {(f, func) for f, func, _ in found} == PRESET_CONSTRUCTORS, found
    assert len(found) == len(PRESET_CONSTRUCTORS), found
    for cls in (bialgebra.CoalgebraPreset, bialgebra.PresetRow):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
    # the degrees of a fresh monomial land in two dicts of the preset, and in
    # no dict that a module-level name of bialgebra reaches
    preset, m = bialgebra.get_preset("b", 3), bialgebra.Monomial(u=424242, xi=((5, 1),))
    preset.left_degree(m)
    preset.right_degree(m)
    assert len(_dicts_keyed_by(m, vars(preset).values(), 0)) == 2
    module_level = [v for k, v in vars(bialgebra).items() if not k.startswith("__")]
    assert not _dicts_keyed_by(m, module_level)


def test_no_branch_on_a_preset_name():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_name_comparison)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_NAME_CHECKS, found
    assert len(found) == len(ALLOWED_NAME_CHECKS), found


def test_no_random_generator_in_src():
    # every answer the engine reports is decided: no check samples and no
    # search is random
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_random_use)]
    assert not found, found


def test_cofree_label_set_by_the_J_builder_read_by_the_verdict_only():
    assert _attribute_uses("cofree_on") == sorted(ALLOWED_COFREE_USES, key=str)


def test_free_label_set_by_the_F_builder_read_by_the_verdict_only():
    assert _attribute_uses("free_on") == sorted(ALLOWED_FREE_USES, key=str)


def test_trusted_monomial_constructor_only_in_bialgebra():
    found = [c for path in sorted(SRC.glob("*.py"))
             for c in _find(path, _is_trusted_constructor_use)]
    assert found and {f for f, _, _ in found} == {"bialgebra.py"}, found


def test_packed_monomial_key_read_only_in_bialgebra():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_packed_key_use)]
    assert found and {f for f, _, _ in found} == {"bialgebra.py"}, found


def test_no_numpy_in_src():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_numpy_import)]
    assert not found, found


def test_matrix_storage_read_only_in_fplinalg():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_matrix_storage_use)]
    assert found and {f for f, _, _ in found} == {"fplinalg.py"}, found


def test_modular_inverses_only_in_the_one_elimination():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_modular_power)]
    assert {(f, func) for f, func, _ in found} == ALLOWED_INVERSES, found
    assert len(found) == len(ALLOWED_INVERSES), found


# functorcomb is the counting oracle that the suites check the engine
# against, so it shares no code with the engine.  Its counts are closed
# forms and module-level recursions: no function is built per call, which
# would also build a cache (and a reference cycle) per call.
ORACLE = SRC / "functorcomb.py"


def _is_package_import(node) -> bool:
    """A relative import, or an import of supercomod or of one of its modules."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "supercomod"
    return isinstance(node, ast.Import) and any(
        a.name.split(".")[0] == "supercomod" for a in node.names)


def _is_nested_function(node) -> bool:
    """A function whose body defines a function or a lambda."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
               for stmt in node.body for sub in ast.walk(stmt))


def test_the_counting_oracle_shares_no_code_and_builds_no_function_per_call():
    assert not _find(ORACLE, _is_package_import)
    assert not _find(ORACLE, _is_nested_function)


# Every top-level function, class and constant of src/ has a reader: a use
# of it (a loaded name or attribute, or the string by which getattr or the
# benchmark's tracer finds it) in src/, tests/ or perfbench/ outside its own
# definition.  An import alone is not a use.  Dunder names are read by Python.
READER_ROOTS = (SRC, SRC.parents[1] / "tests", SRC.parents[1] / "perfbench")


def _top_level_definitions(tree) -> list:
    """(name, node) of each top-level def, class and assigned name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in out if not name.startswith("__")]


def _reads(tree) -> list:
    """(name, node) of each read in the tree: a loaded name or attribute, or
    a string constant."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node))
    return out


def test_every_src_name_has_a_reader():
    trees = {path: ast.parse(path.read_text())
             for root in READER_ROOTS for path in sorted(root.glob("*.py"))}
    inside = {}  # id of a node -> the top-level definition of src/ around it
    definitions = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, node in _top_level_definitions(tree):
            definitions.append((path.name, name))
            for sub in ast.walk(node):
                inside[id(sub)] = (path.name, name)
    read = {(name, inside.get(id(node))) for tree in trees.values()
            for name, node in _reads(tree)}
    unread = [(f, name) for f, name in definitions
              if not any(n == name and where != (f, name) for n, where in read)]
    assert not unread, unread


# The degrees a computation trusts come from its objects (their box and
# margin, through comodule.TrustedRegion); a smaller box is had by
# truncating the objects, so no solver or check takes a second cap.
REGION_READERS = (
    comodule.TrustedRegion,
    comodule.ComoduleMorphism.check,
    homsolver.hom_space,
    homsolver.is_exact,
    homsolver.is_short_exact,
    homsolver.is_isomorphism,
    homsolver.find_isomorphism,
)


def test_the_trusted_region_has_no_caller_set_cap():
    capped = [fn.__qualname__ for fn in REGION_READERS
              if "box" in inspect.signature(fn).parameters]
    assert not capped, capped


# A computation applies the trusted region once, at the top: it restricts its
# objects (TrustedRegion.restrict) and then walks their coactions whole, so no
# loop tests a stored degree against the region.  Only route B of the
# coassociativity check tests membership: the degrees it tests are those of
# coproduct monomials, which no stored label carries.
ALLOWED_REGION_TESTS = {("comodule.py", "_coassoc_problems")}


def _is_region_test(node) -> bool:
    """`x in region` or `x not in region`."""
    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, ast.Name)
        and right.id == "region" for op, right in zip(node.ops, node.comparators))


def test_the_region_is_applied_by_restricting_the_objects():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _find(path, _is_region_test)]
    assert found and {(f, func) for f, func, _ in found} == ALLOWED_REGION_TESTS, found


# comodule reads monomials through bialgebra: the grouplike pad of a Steenrod
# action is the preset row's `is_padded`, and the instability thresholds are
# right degrees, so comodule reads no letter field of a monomial (only the
# generator flags of a preset's `row`) and asks no prime what it is.
LETTER_FIELDS = {"w", "tau", "u", "xi"}


def _is_letter_field_read(node) -> bool:
    """`x.w`, `x.tau`, `x.u` or `x.xi`, unless x is `<something>.row`."""
    return isinstance(node, ast.Attribute) and node.attr in LETTER_FIELDS and not (
        isinstance(node.value, ast.Attribute) and node.value.attr == "row")


def _is_prime_literal_comparison(node) -> bool:
    """A comparison of `p` or `x.p` with an int literal."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(getattr(x, "id", getattr(x, "attr", None)) == "p" for x in operands) and any(
        isinstance(x, ast.Constant) and type(x.value) is int for x in operands)


def _top_level_function(path: Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_comodule_reads_no_monomial_letter_and_no_prime():
    path = SRC / "comodule.py"
    assert not _find(path, _is_letter_field_read)
    assert not _find(path, _is_prime_literal_comparison)
    assert not _is_nested_function(_top_level_function(path, "steenrod_action"))


def test_the_parser_takes_its_sign_from_product():
    # parse_monomial multiplies its factors; it counts no inversions itself
    parser = _top_level_function(SRC / "bialgebra.py", "parse_monomial")
    assert any(_is_product_use(node) for node in ast.walk(parser))
    assert not any(isinstance(node, ast.comprehension) for node in ast.walk(parser))
