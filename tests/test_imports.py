"""Every name a module of the package imports is read somewhere in it, and
each CLI process loads only the modules its subcommand calls.

A name kept only for an outside reader (a tracer that patches it by
attribute) is allowed when its import line carries ``# noqa: F401``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expramsey

PACKAGE = Path(expramsey.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
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
        # names re-exported through a literal __all__ are read by `import *`
        # and users; a computed one credits no import
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                read |= set(ast.literal_eval(node.value))
            except ValueError:
                pass
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
    assert set(expramsey.__all__) <= set(dir(expramsey))
    assert set(expramsey.__all__) <= set(namespace)
    # removed: they served no family, colouring or command
    assert not {"find_monochromatic_grid", "ordered_fu_search"} & set(expramsey.__all__)


def package_imports(name: str, module_level: bool) -> set:
    """The package modules that ``name``.py imports by relative import:
    anywhere in it, or only in its top-level statements."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_the_import_graph():
    assert package_imports("ramsey", module_level=False) == {"_arith", "_spec", "errors"}
    assert package_imports("__init__", module_level=True) <= {"errors"}
    assert package_imports("cli", module_level=True) <= {"errors"}
    # the check sees the imports a subcommand makes when it runs
    assert "tower" in package_imports("cli", module_level=False)


# a fresh interpreter runs ``python -m expramsey.cli`` on the arguments
# after it and prints the exit code, the package modules it loaded and
# every module it loaded
LOADED = """
import json, runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("expramsey.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import expramsey
print(json.dumps([code, sorted(m.split(".")[1] for m in sys.modules
                              if m.startswith("expramsey.")), sorted(sys.modules)]))
"""
# stdlib modules a process loads only when it asks for them: the value
# classes are not dataclasses (which loads inspect), only the lacunary
# colouring imports fractions (which loads decimal), only --format csv csv
ON_DEMAND = {"dataclasses", "inspect", "fractions", "decimal", "csv"}


def _python(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          env=env, timeout=60, check=True).stdout


@pytest.fixture(scope="module")
def bare_modules() -> set:
    """What an interpreter started the same way loads before the package:
    a site hook (a .pth file) may already load some of ON_DEMAND."""
    return set(json.loads(_python("import json, sys; print(json.dumps(sorted(sys.modules)))")))


@pytest.mark.parametrize("argv, needs, leaves_out, on_demand", [
    ([], set(), {"errors", "tower", "patterns", "colourings", "search", "ramsey"}, set()),
    (["colour", "logstar:r=1", "2", "4", "16"], {"colourings", "tower"},
     {"search", "patterns", "ramsey"}, set()),
    (["gen", "fe", "2", "3"], {"patterns", "tower"}, {"search", "colourings", "ramsey"}, set()),
    (["ramsey", "vdw", "--k", "2", "--len", "3"], {"ramsey"},
     {"search", "colourings", "patterns", "tower"}, set()),
    (["verify", "logstar:r=1", "exptriple", "--bound", "16"], {"search"}, set(), set()),
    # the check sees what a process asks for
    (["colour", "logstar:r=1", "2", "--format", "csv"], {"colourings"}, {"search"}, {"csv"}),
    (["colour", "lacunary:seq=n*2^n,nmax=8", "2"], {"colourings"}, {"search"},
     {"fractions", "decimal"}),
], ids=["import", "colour", "gen", "ramsey", "verify", "colour-csv", "colour-lacunary"])
def test_a_process_loads_only_what_its_subcommand_calls(argv, needs, leaves_out, on_demand,
                                                         bare_modules):
    out = _python(LOADED, *argv, *(["--out", os.devnull] if argv else []))
    code, loaded, modules = json.loads(out)
    assert code == 0
    assert needs <= set(loaded) and not leaves_out & set(loaded)
    assert (set(modules) - bare_modules) & ON_DEMAND == on_demand - bare_modules
