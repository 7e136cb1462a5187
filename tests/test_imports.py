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
    names an import brings in; inside a function or class definition its
    own name is not counted."""
    out = set()
    for child in ast.iter_child_nodes(tree):
        out |= mentioned_names(child)
    if isinstance(tree, ast.Name):
        out.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        out.add(tree.attr)
    elif isinstance(tree, ast.alias):
        out.add(tree.name.split(".")[-1])
    elif isinstance(tree, (ast.FunctionDef, ast.ClassDef)):
        out.discard(tree.name)
    return out


def public_definitions(node, prefix=""):
    """The public functions and classes in the body of node, and the
    public methods of those classes, as qualified names."""
    for child in node.body:
        if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                and not child.name.startswith("_")):
            yield prefix + child.name
            if isinstance(child, ast.ClassDef):
                yield from public_definitions(child, f"{child.name}.")


def test_every_public_definition_has_a_use():
    # the design rule "no API that neither the CLI nor the acceptance
    # criteria use": each public module-level function and class of the
    # package, and each public method of its classes, is named in the
    # package outside its own definition, or in the acceptance tests
    used = set()
    defined = []
    for module in MODULES:
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        defined += [f"{module[:-3]}.{name}" for name in public_definitions(tree)]
        used |= mentioned_names(tree)
    acceptance = os.path.join(REPO, "tests", "test_acceptance.py")
    with open(acceptance, encoding="utf-8") as fh:
        used |= mentioned_names(ast.parse(fh.read(), filename=acceptance))
    assert [name for name in defined if name.split(".")[-1] not in used] == []
