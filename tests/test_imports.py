"""Every name a module of the package imports is read somewhere in it.

A name kept only for an outside reader (a tracer that patches it by
attribute) is allowed when its import line carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import expramsey

SOURCES = sorted(Path(expramsey.__file__).parent.glob("*.py"))
MARKER = "# noqa: F401"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(MARKER in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        # names re-exported through __all__ are read by `import *` and users
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import List, Tuple\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Tuple")]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("from a import (\n    b,  # noqa: F401\n)\n") == []
    assert unused_imports("import os\n__all__ = ['os']\n") == []


def test_the_public_surface_resolves():
    namespace: dict = {}
    exec("from expramsey import *", namespace)
    assert all(hasattr(expramsey, name) for name in expramsey.__all__)
    assert set(expramsey.__all__) <= set(namespace)
    # removed: they served no family, colouring or command
    assert not {"find_monochromatic_grid", "ordered_fu_search"} & set(expramsey.__all__)
