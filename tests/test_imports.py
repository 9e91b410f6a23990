"""Every name a module of the package imports is read somewhere in it,
every public name is read, documented or kept for the benchmark, and each
CLI process loads only the modules its subcommand calls.

A name kept only for an outside reader (a tracer that patches it by
attribute) is allowed when its import line carries ``# noqa: F401``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import expramsey

PACKAGE = Path(expramsey.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MARKER = "# noqa: F401"
ROOT = Path(__file__).resolve().parent.parent
# public names no module of the package reads that the benchmark still
# calls or patches by name, each with the file that does
BENCH_ONLY = {"instances": "bench/workloads.py", "colour_power": "bench/spans.py"}


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


def unread_public_names(sources: dict, exported: set) -> list:
    """The names in ``exported`` and the public methods and properties of
    the classes in ``sources`` (module name -> text) that no source reads
    outside a definition of that name. Reads are matched by name: a load of
    ``name`` or of ``obj.name``. An import is not a read, and neither is a
    call of a function from its own body; a name defined more than once
    (a method each class overrides) is read by a load in another of its
    definitions, such as ``super().name``."""
    spans: dict = {name: [] for name in exported}  # name -> its definitions
    reads = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        spans.setdefault(item.name, []).append(
                            (module, item.lineno, item.end_lineno))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                spans[node.name].append((module, node.lineno, node.end_lineno))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, module, node.lineno))
    read = {name for name, module, line in reads if name in spans
            and not (spans[name] and all(m == module and a <= line <= b
                                         for m, a, b in spans[name]))}
    return sorted(set(spans) - read)


def test_every_public_name_is_read_named_in_the_readme_or_kept_for_the_benchmark():
    """Each exported name and each public method or property is read by the
    package, named in README.md's code as library API, or listed in
    BENCH_ONLY with the benchmark file that reads it."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    unread = unread_public_names(sources, set(expramsey.__all__) - {"__version__"})
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    named = set(re.findall(r"\w+", " ".join(code)))
    assert [name for name in unread if name not in named | set(BENCH_ONLY)] == []
    for name, path in BENCH_ONLY.items():
        assert name in unread and name in (ROOT / path).read_text(encoding="utf-8")


def test_the_check_sees_a_dead_public_name():
    source = ("def main():\n    return helper() + C().go()\n"
              "def helper():\n    return 1\n"
              "def dead(n):\n    return dead(n - 1) if n else 0\n"
              "class C:\n"
              "    def go(self):\n        return self.size\n"
              "    @property\n    def size(self):\n        return 2\n"
              "    def idle(self):\n        return 3\n"
              "    def _private(self):\n        return 4\n")
    exported = {"helper", "dead", "C"}
    assert unread_public_names({"m": source}, exported) == ["dead", "idle"]
    # an import is not a read
    both = {"m": source, "n": "from m import dead, idle\n"}
    assert unread_public_names(both, exported) == ["dead", "idle"]
    assert unread_public_names({**both, "n": "print(dead(3))\n"}, exported) == ["idle"]


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
    # the families know no scan, solver or front end
    assert not {"search", "ramsey", "cli"} & package_imports("families", module_level=False)


def test_the_families_load_without_the_scan():
    loaded = _python("import sys, expramsey.families; print(*sys.modules)").split()
    assert "expramsey.families" in loaded and "expramsey.search" not in loaded


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
    ([], set(), {"errors", "tower", "patterns", "colourings", "families", "search", "ramsey"},
     set()),
    (["colour", "logstar:r=1", "2", "4", "16"], {"colourings", "tower"},
     {"families", "search", "patterns", "ramsey"}, set()),
    (["gen", "fe", "2", "3"], {"patterns", "tower"},
     {"families", "search", "colourings", "ramsey"}, set()),
    (["ramsey", "vdw", "--k", "2", "--len", "3"], {"ramsey"},
     {"families", "search", "colourings", "patterns", "tower", "_arith"}, set()),
    (["ramsey", "exptriple", "--k", "1", "--nmax", "16"], {"ramsey", "_arith"},
     {"families", "search", "colourings", "patterns", "tower"}, set()),
    (["verify", "logstar:r=1", "exptriple", "--bound", "16"], {"families", "search"},
     {"patterns", "ramsey"}, set()),
    (["verify", "logstar:r=1", "shape:m=2,edges=1-2", "--bound", "6"],
     {"families", "search", "patterns"}, {"ramsey"}, set()),
    # the check sees what a process asks for
    (["colour", "logstar:r=1", "2", "--format", "csv"], {"colourings"}, {"search"}, {"csv"}),
    (["colour", "lacunary:seq=n*2^n,nmax=8", "2"], {"colourings"}, {"search"},
     {"fractions", "decimal"}),
], ids=["import", "colour", "gen", "ramsey", "ramsey-exptriple", "verify", "verify-shape",
        "colour-csv", "colour-lacunary"])
def test_a_process_loads_only_what_its_subcommand_calls(argv, needs, leaves_out, on_demand,
                                                         bare_modules):
    out = _python(LOADED, *argv, *(["--out", os.devnull] if argv else []))
    code, loaded, modules = json.loads(out)
    assert code == 0
    assert needs <= set(loaded) and not leaves_out & set(loaded)
    assert (set(modules) - bare_modules) & ON_DEMAND == on_demand - bare_modules
