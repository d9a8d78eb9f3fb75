"""Standing constraints on what the package imports, read from its source
files with ``ast``, so that no import is executed."""

import ast
import pathlib
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
