"""Every module of the package uses each name it imports, every private
module-level function is read somewhere in the package, and importing the
package loads no heavy standard-library module its own imports do not.

Helpers move between modules; a stale import, or a helper whose last caller
moved away, still loads, so only a static check catches it.  `__init__.py`
is excluded from the import check: its imports are the package's exports.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ckcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unread_private_functions(sources):
    """Module-level functions named _x in the given module sources that no
    source reads, by name or as an attribute."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unread_private_functions_are_found():
    first = ("def _kept():\n    pass\ndef _dead():\n    pass\n"
             "def _imported():\n    pass\ndef public():\n    return _kept()\n")
    second = "import first\nfrom first import _imported\ndef _moved():\n    pass\nfirst._moved()\n"
    assert unread_private_functions([first, second]) == ["_dead", "_imported"]


def test_every_private_function_is_read():
    assert unread_private_functions(p.read_text() for p in PACKAGE.glob("*.py")) == []


def stdlib_imports(sources):
    """Top-level names of the absolute imports in the given module sources."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - {"__future__"}


def loaded_modules(statement):
    """sys.modules of a fresh interpreter after running statement."""
    code = "import json, sys\n%s\nprint(json.dumps(sorted(sys.modules)))" % statement
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return set(json.loads(run.stdout))


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates code
    # for each class: about 12 ms of every start-up.  Compared with a bare
    # import of the package's other standard modules, so a Python whose own
    # modules load these does not fail here.
    heavy = {"dataclasses", "inspect"}
    others = stdlib_imports(p.read_text() for p in PACKAGE.glob("*.py")) - heavy
    bare = loaded_modules("import " + ", ".join(sorted(others)))
    package = loaded_modules("import ckcalc, ckcalc.cli")
    assert "ckcalc.cli" in package
    assert heavy & package <= bare
