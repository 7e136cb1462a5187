"""The runtime is stdlib-only: every absolute import in the package names
a standard library module."""

import ast
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "logdiv")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_the_standard_library(module):
    names = list(absolute_imports(os.path.join(PACKAGE, module)))
    assert [n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names] == []


def mentioned_names(tree):
    """Every name a syntax tree mentions: names, attribute names and the
    names an import brings in."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_every_public_definition_has_a_use():
    # the design rule "no API that neither the CLI nor the acceptance
    # criteria use": each public module-level function and class of the
    # package is named in the package outside its own definition, or in
    # the acceptance tests
    used = set()
    defined = []
    for module in MODULES:
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((module, node.name))
                used |= mentioned_names(node) - {node.name}
            else:
                used |= mentioned_names(node)
    acceptance = os.path.join(REPO, "tests", "test_acceptance.py")
    with open(acceptance, encoding="utf-8") as fh:
        used |= mentioned_names(ast.parse(fh.read(), filename=acceptance))
    assert [f"{module[:-3]}.{name}" for module, name in defined
            if name not in used] == []
