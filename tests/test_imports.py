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
