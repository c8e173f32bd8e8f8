"""Source hygiene of the package, read with the standard library's `ast`:
no module imports a name it does not use, no private module-level
function or class is left that nothing in the package references, and no
module but `polyring` and `quotient` does exponent-tuple arithmetic.

Failures are raised with pytest.fail, not assert, so that the checks hold
under `python -O` too."""

import ast
import pathlib

import pytest

import soscert

PACKAGE = pathlib.Path(soscert.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in MODULES}


def _exported(tree):
    """The names listed in the module's `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded(tree):
    """Every name the module reads, bare or as the base of an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imports(tree):
    """(bound name, line) of every import but `from __future__ import ...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    used = _loaded(tree) | _exported(tree)
    unused = [f"{name}:{line}: {bound}" for bound, line in _imports(tree) if bound not in used]
    if unused:
        pytest.fail("unused imports: " + ", ".join(unused))


def test_every_private_function_and_class_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded(tree) | _exported(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    orphans = [f"{name}:{node.lineno}: {node.name}"
               for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    if orphans:
        pytest.fail("private definitions nothing references: " + ", ".join(orphans))


def _monomial_uses(tree):
    """(line, what) of every import, name, attribute or `__all__` entry
    `Monomial`, and of every `.exponents` attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "Monomial":
            yield node.lineno, "imports Monomial"
        elif isinstance(node, ast.Name) and node.id == "Monomial":
            yield node.lineno, "names Monomial"
        elif isinstance(node, ast.Attribute) and node.attr in ("Monomial", "exponents"):
            yield node.lineno, f"reads .{node.attr}"
        elif isinstance(node, ast.Constant) and node.value == "Monomial":
            yield node.lineno, "exports Monomial"


@pytest.mark.parametrize("name", sorted(set(TREES) - {"polyring.py"}))
def test_monomial_is_only_the_terms_key(name):
    # a monomial is its exponent tuple everywhere but the `terms` view,
    # whose key `polyring.Monomial` nothing else in the package names
    uses = [f"{name}:{line}: {what}" for line, what in _monomial_uses(TREES[name])]
    if uses:
        pytest.fail("Monomial outside polyring: " + ", ".join(uses))


def _evaluate_uses(tree):
    """Lines that import `evaluate` or read it as an attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.alias) and node.name == "evaluate"
                or isinstance(node, ast.Attribute) and node.attr == "evaluate"):
            yield node.lineno


@pytest.mark.parametrize("name", sorted(set(TREES) - {"variety.py", "polyring.py", "__init__.py"}))
def test_only_variety_evaluates_at_the_points(name):
    # polyring defines `evaluate` and __init__ re-exports it; every value
    # at a root comes from `VarietyData.values`, `pair_values` or `signs`
    lines = list(_evaluate_uses(TREES[name]))
    if lines:
        pytest.fail(f"{name} imports or reads evaluate at lines {lines}")


def _tolerance_reads(node, in_message=False):
    """Lines that read `decision_tol` outside an f-string."""
    in_message = in_message or isinstance(node, ast.JoinedStr)
    if not in_message and (isinstance(node, ast.Attribute) and node.attr == "decision_tol"
                           or isinstance(node, ast.Name) and node.id == "decision_tol"):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _tolerance_reads(child, in_message)


@pytest.mark.parametrize("name", sorted(set(TREES) - {"variety.py"}))
def test_only_variety_compares_with_the_tolerance(name):
    # `VarietyData.signs` is the one sign rule; elsewhere the tolerance may
    # only be named in a message
    lines = list(_tolerance_reads(TREES[name]))
    if lines:
        pytest.fail(f"{name} reads decision_tol outside a message at lines {lines}")


def _operator_uses(tree):
    """Lines that import the `operator` module, or names from it, or read it."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.alias) and node.name == "operator"
                or isinstance(node, ast.ImportFrom) and node.module == "operator"
                or isinstance(node, ast.Name) and node.id == "operator"):
            yield node.lineno


@pytest.mark.parametrize("name", sorted(set(TREES) - {"polyring.py", "quotient.py"}))
def test_only_polyring_and_quotient_do_exponent_arithmetic(name):
    # exponent tuples are added by `map(operator.add, ...)`: every product of
    # integer polynomials elsewhere goes through `polyring.add_product` or
    # `polyring.add_gram`
    lines = sorted(set(_operator_uses(TREES[name])))
    if lines:
        pytest.fail(f"{name} imports or reads operator at lines {lines}")


STRICT_ROUTES = ("_idempotent_step", "_exact_gram_step", "_float_gram_step",
                 "certify_strict_nonradical")


def test_one_strict_route_dispatch():
    # both modes pick the strict route in `_strict_blocks`: no other
    # definition in `certifier` names a strict route
    uses = [f"{node.name}:{name.lineno}: {name.id}"
            for node in TREES["certifier.py"].body if getattr(node, "name", "") != "_strict_blocks"
            for name in ast.walk(node)
            if isinstance(name, ast.Name) and name.id in STRICT_ROUTES]
    if uses:
        pytest.fail("strict routes named outside _strict_blocks: " + ", ".join(uses))
