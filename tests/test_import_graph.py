"""The three legs do not lean on each other: the import graph of src/protspin.

The oracle is checked against the closed forms and first order, so it must
share no code with them: it imports only core from the package.  The closed
forms in turn import neither the oracle nor compare, the one module that
imports both sides.  The graph is read from the source with ast, because
importing any submodule runs protspin/__init__, which loads every module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "protspin"
CLOSED_FORMS = ("exact", "dyson", "design", "multimeas", "reconstruct")


def package_imports(module: str, package: Path = PACKAGE) -> set[str]:
    """Names of the protspin modules that module's source, in package, imports directly."""
    tree = ast.parse((package / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "protspin":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "protspin" and len(parts) > 1:
                    found.add(parts[1])
    return found


def reachable(module: str) -> set[str]:
    """Every protspin module that module imports, directly or through others."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_parser_sees_each_import_form(tmp_path):
    source = (
        "import math\nimport protspin.exact\nfrom protspin.dyson import x\nfrom protspin import design\n"
        "from . import multimeas\nfrom .core import y\nfrom .oracle.sub import z\nfrom numpy import array\n"
    )
    (tmp_path / "probe.py").write_text(source)
    assert package_imports("probe", tmp_path) == {"exact", "dyson", "design", "multimeas", "core", "oracle"}


def test_oracle_imports_only_core():
    assert package_imports("oracle") == {"core"}


def test_oracle_takes_only_public_names_from_core():
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    names = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "core"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if name.startswith("_")] == []


def test_core_imports_nothing_from_the_package():
    assert package_imports("core") == set()


@pytest.mark.parametrize("module", CLOSED_FORMS)
def test_closed_forms_reach_neither_oracle_nor_compare(module):
    assert not reachable(module) & {"oracle", "compare"}


def test_compare_joins_the_oracle_and_the_closed_forms():
    assert {"oracle", "exact", "dyson"} <= package_imports("compare")
