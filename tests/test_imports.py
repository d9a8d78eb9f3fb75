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
    bare or as an attribute of a name (a module)."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                name = node.attr
            else:
                continue
            if name in wanted:
                found.add(fn.name)
    return found


def _bound(tree):
    """Every name a source file binds: assigned, defined, an argument or
    imported (under its alias)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[-1]


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(_PACKAGE.glob("*.py"))}


def test_the_delta_equation_data_live_in_impact_map():
    # cascade sums the reversion series and the k series inline: the
    # coefficients _K* and _Q*, SERIES_MAX, REVERSION_Q and the box and
    # window edges have one copy, in impact_map, and no other module binds
    # them, not even by import.  cascade reads the edges as its own
    # module's globals when called, so a patched edge applies; impact_map
    # takes from rootfind only what the first contact and both phases
    # share.  The delta decision has one home: only reduced_arc and
    # cascade read a _K*, and only cascade a _Q* or an edge
    table = re.compile(r"_K\d+$|_Q\d+$|REVERSION_|START_W_MAX$|SERIES_MAX$")
    trees = _trees()
    homes = {}
    for name, tree in trees.items():
        for bound in _bound(tree):
            if table.match(bound):
                homes.setdefault(bound, set()).add(name)
    assert all(files == {"impact_map.py"} for files in homes.values()), homes
    k = {name for name in homes if re.match(r"_K\d+$", name)}
    q = {name for name in homes if re.match(r"_Q\d+$", name)}
    edges = {"REVERSION_A_MIN", "REVERSION_A_MAX", "REVERSION_W_MAX",
             "START_W_MAX"}
    assert (len(k), len(q)) == (9, 15)
    assert set(homes) == k | q | edges | {"REVERSION_Q", "SERIES_MAX"}
    tree = trees["impact_map.py"]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module is not None, "from . import"
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert imported["rootfind"] == {"ROOT_REL_TOL", "T_STAR",
                                    "monotone_newton", "require_arc",
                                    "small_root_guess"}
    readers = {fn: set() for fn in ("reduced_arc", "cascade")}
    for name in homes:
        for fn in _readers(tree, {name}):
            readers.setdefault(fn, set()).add(name)
    assert readers["reduced_arc"] == k | {"SERIES_MAX"}
    assert readers["cascade"] == k | q | edges | {"SERIES_MAX"}
    assert set(readers) == {"reduced_arc", "cascade"}
    for name, other in trees.items():
        if name != "impact_map.py":
            assert _readers(other, set(homes)) == set(), name
    # the edges are bare globals in cascade, bound once at its entry
    cascade = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "cascade")
    loads = [node.id for node in ast.walk(cascade)
             if isinstance(node, ast.Name) and node.id in edges]
    assert sorted(loads) == sorted(edges)


def test_the_delta_solve_has_one_home():
    # cascade's impact loop is the only delta solve and the only sum of p
    # and m: no source file defines or imports newton_delta or
    # recurrence_kernels (their bodies are the tests' references), and
    # across the package only reduced_arc and cascade read a _K*
    # coefficient, so a second copy of the solve fails here
    trees = _trees()
    for name, tree in trees.items():
        assert not {"newton_delta", "recurrence_kernels"} & set(
            _bound(tree)), name
    coefficients = {node.id for tree in trees.values()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and re.match(r"_K\d+$", node.id)}
    assert len(coefficients) == 9
    readers = {(name, fn) for name, tree in trees.items()
               for fn in _readers(tree, coefficients)}
    assert readers == {("impact_map.py", "reduced_arc"),
                       ("impact_map.py", "cascade")}


def _layout():
    """The modules of README's Layout table, top row first."""
    readme = (_PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Layout", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"^\| `(\w+)` +\|", table, re.M)


def test_each_module_imports_only_modules_above_it_in_the_readme():
    # README: each module imports only modules above it in the Layout
    # table, at module level, and the one import upward, of
    # impact_map.cascade, sits inside rootfind.solve_delta
    order = _layout()
    assert set(order) == {path.stem for path in _PACKAGE.glob("*.py")} - {
        "__init__", "__main__"}
    upward = []
    for module in order:
        tree = ast.parse((_PACKAGE / f"{module}.py").read_text(
            encoding="utf-8"))
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = (child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else scope)
                scopes.append((inner, child))
                targets = []
                if isinstance(child, ast.ImportFrom) and child.level:
                    targets = ([child.module] if child.module
                               else [alias.name for alias in child.names])
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    names = ([alias.name for alias in child.names]
                             if isinstance(child, ast.Import)
                             else [child.module])
                    targets = [name.split(".")[1] for name in names
                               if name.startswith("rodbilliard.")]
                for target in targets:
                    assert target in order, (module, target)
                    if order.index(target) >= order.index(module):
                        upward.append((module, scope, target))
                    else:
                        assert scope is None, (module, scope, target)
    assert upward == [("rootfind", "solve_delta", "impact_map")]
