"""Every module-level import in the package is read by its module.

No linter ships with the package's test dependencies, so this reads the
source with ``ast``.  ``__init__.py`` re-exports by design and is skipped;
elsewhere a deliberate re-export carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import partialot

SRC = Path(partialot.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_level_import_is_unused():
    unused = [
        f"{path.name}:{line}: {name}"
        for path in MODULES
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert MODULES
    assert unused == []


def test_the_check_sees_unused_and_noqa_imports():
    source = "import os\nfrom math import inf, pi  # noqa: F401\nfrom json import dumps, loads\n"
    assert _unused_imports(source + "loads\n") == [(1, "os"), (3, "dumps")]
