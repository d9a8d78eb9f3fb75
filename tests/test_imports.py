"""Standing constraints on what the package imports, read from its source
files with ``ast``, so that no import is executed."""

import ast
import pathlib
import re
import sys

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rodbilliard"


def _imports(path):
    """(module, names) per import statement of a source file, at any
    depth; a relative module keeps its leading dots, and a plain
    ``import`` has names None."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level + (node.module or ""),
                   {alias.name for alias in node.names})


def test_package_imports_only_the_standard_library_and_itself():
    # runtime dependencies stay at zero
    paths = sorted(_PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        for module, _ in _imports(path):
            top = module.split(".")[0]
            assert (module.startswith(".") or top == "rodbilliard"
                    or top in sys.stdlib_module_names), (path.name, module)


def test_oracle_imports_from_the_package_only_core_and_one_error():
    # the oracle stays independent of the recurrences and the contact
    # solvers: of the package it takes only core and the error it raises
    # for an unsupported first contact
    for module, names in _imports(_PACKAGE / "oracle.py"):
        if module.split(".")[0] == "rodbilliard":
            module = "." + module[len("rodbilliard."):]
        if not module.startswith("."):
            continue
        assert module == ".core" or (module == ".rootfind"
                                     and names == {"UnsupportedFirstImpact"}
                                     ), (module, names)


def _readers(tree, wanted):
    """Names of the functions in ``tree`` that read a name in ``wanted``,
    bare or as an attribute of ``rootfind``."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "rootfind"):
                name = node.attr
            else:
                continue
            if name in wanted:
                found.add(fn.name)
    return found


def test_impact_map_takes_the_reversion_table_from_rootfind():
    # cascade sums the reversion series inline: its coefficients _Q* and
    # box edges REVERSION_* have one copy, in rootfind, and the edges are
    # read as rootfind's attributes, so a patched edge applies.  The delta
    # decision has one home: no function of rootfind reads a coefficient,
    # and in impact_map only cascade reads them and the box and window
    # edges
    table = re.compile(r"_Q\d+$|REVERSION_")
    tree = ast.parse((_PACKAGE / "impact_map.py").read_text(encoding="utf-8"))
    bound = set()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.arg)):
            bound.add(getattr(node, "name", None) or node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if table.match(alias.asname or alias.name.split(".")[-1]):
                    assert (isinstance(node, ast.ImportFrom)
                            and node.level == 1 and node.module == "rootfind"
                            and alias.asname in (None, alias.name)), alias.name
                    imported.add(alias.name)
    assert not {name for name in bound if table.match(name)}
    rootfind = ast.parse((_PACKAGE / "rootfind.py").read_text(
        encoding="utf-8"))
    coefficients = {node.id for node in ast.walk(rootfind)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and re.match(r"_Q\d+$", node.id)}
    assert imported == coefficients and len(coefficients) == 15
    edges = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "rootfind" and table.match(node.attr)}
    assert edges == {"REVERSION_A_MIN", "REVERSION_A_MAX", "REVERSION_W_MAX"}
    assert _readers(rootfind, coefficients) == set()
    decision = coefficients | {"REVERSION_W_MAX", "START_W_MAX"}
    readers = {name: _readers(tree, {name}) for name in decision}
    assert readers == dict.fromkeys(decision, {"cascade"})
