"""Guards on the size of the library's API: every public definition in
``src/extlift`` is used by the library itself (a command function
``cli.cmd_<command>`` by ``cli.main``, which looks it up by name for each
command of ``cli.COMMANDS``), every field a class lists in ``__slots__``
is read by it, every name a module imports is read by that module, and
the package exports exactly the names the README's "Library usage"
example imports.  Every module also parses with the oldest grammar that
``pyproject.toml``'s ``requires-python`` allows."""

import ast
import re
from pathlib import Path

import extlift
from extlift.cli import COMMANDS

SRC = Path(extlift.__file__).parent
README = SRC.parents[1] / "README.md"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public_definitions(tree: ast.Module):
    """Public top-level functions and classes, and the non-dunder methods
    of every class, as (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _read_names(tree: ast.Module) -> set[str]:
    """Every name and attribute the module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _slot_fields(tree: ast.Module):
    """The ``__slots__`` of every class, ``_``-prefixed memos aside, as
    (class name, field name)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    for name in ast.literal_eval(item.value):
                        if not name.startswith("_"):
                            yield node.name, name


def _read_attributes(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_definition_is_used_by_the_library():
    modules = _modules()
    dispatched = {f"cmd_{command}" for command in COMMANDS}
    # each command has the function main looks up for it
    assert dispatched <= {name for _, name in _public_definitions(modules["cli.py"])}
    used = set().union(*(_read_names(tree) for tree in modules.values())) | dispatched
    unused = [
        f"{module}:{qualified}"
        for module, tree in modules.items()
        for qualified, name in _public_definitions(tree)
        if name not in used
    ]
    assert unused == [], "defined in src/extlift but used only outside it; move to tests/ or delete"


def test_every_dataclass_field_is_read_by_the_library():
    modules = _modules()
    read = set().union(*(_read_attributes(tree) for tree in modules.values()))
    fields = [(module, cls, name) for module, tree in modules.items() for cls, name in _slot_fields(tree)]
    assert len(fields) > 10
    unread = [f"{module}:{cls}.{name}" for module, cls, name in fields if name not in read]
    assert unread == [], "a slotted field that no library code reads; delete it"


def _imported_names(tree: ast.Module):
    """Every name an import binds in the module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def test_every_import_is_read_by_its_module():
    modules = _modules()
    unread = [
        f"{module}:{name}"
        for module, tree in modules.items()
        for name in _imported_names(tree)
        if name not in _read_names(tree)
    ]
    assert unread == [], "imported but never read in that module; delete the import"


def test_exports_match_readme_library_usage():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library usage\s*```python\n(.*?)```", text, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "extlift"
        for alias in node.names
    ]
    assert len(imported) == 8
    assert sorted(extlift.__all__) == sorted(imported)


def test_every_module_parses_as_python_3_10():
    # pyproject.toml: requires-python = ">=3.10"
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# The functions of src/extlift that may use true division, with how many
# "/" each holds.  Parsed and transformed integral coefficients are ints,
# and an int divided by an int is a float, so every other quotient is
# integer (//) or a Fraction made explicitly.
TRUE_DIVISIONS = {
    "orders.monic_free": 1,  # 1 / Fraction(c): an int lead must not give a float
    "freealg.hilbert_rational": 1,  # Berlekamp-Massey on Fractions
    "lifting._multipliers": 2,  # monomial quotients, ExtMonomial.__truediv__
}


def _true_divisions(tree: ast.AST, scope: str):
    """The qualified name of the innermost function or class around each
    "/" and "/=" in tree, one per division."""
    for node in ast.iter_child_nodes(tree):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        inner = f"{scope}.{node.name}" if named else scope
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield inner
        yield from _true_divisions(node, inner)


def test_true_division_only_where_allowed():
    found: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for scope in _true_divisions(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            found[scope] = found.get(scope, 0) + 1
    assert found == TRUE_DIVISIONS, "a new '/' can divide two ints into a float: use // or a Fraction"


# The functions of src/extlift that may import ``fractions``, with how many
# imports each holds.  The commands stay on integer rows over a denominator,
# so a Fraction is made only by a public constructor or view, on first
# read, or on the branch that needs one: no module loads ``fractions`` (and
# with it ``decimal`` and ``numbers``) at import.
FRACTION_IMPORTS = {
    # the public constructors and arithmetic
    "algebra._TermPolynomial.__init__": 1,
    "algebra._TermPolynomial.scale": 1,
    "algebra._integral": 1,  # a GLMatrix entry that is not an int
    "orders.monic_free": 1,  # FreeGroebnerCandidate.elements and the free gin
    # the public views of the integer ones
    "parsing.IdealFile.generators": 1,
    "exterior.ExtGroebnerBasis.elements": 1,
    "lifting.LiftedBasis.lifted": 1,
    # the failure branch of verify, and Berlekamp-Massey for an infinite series
    "freealg.Obstruction.remainder": 1,
    "freealg.hilbert_rational": 1,
}


def _fraction_imports(tree: ast.AST, scope: str):
    """The qualified name of the innermost function or class around each
    import of ``fractions`` in tree, one per import."""
    for node in ast.iter_child_nodes(tree):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        inner = f"{scope}.{node.name}" if named else scope
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield inner
        elif isinstance(node, ast.Import) and any(alias.name == "fractions" for alias in node.names):
            yield inner
        yield from _fraction_imports(node, inner)


def test_fractions_imported_only_where_allowed():
    found: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for scope in _fraction_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            found[scope] = found.get(scope, 0) + 1
    assert found == FRACTION_IMPORTS, "a Fraction is made only by a public constructor or view, or a failure branch"
