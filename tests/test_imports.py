"""The package's imports: every module-level import of the package and
of the tests is used by its module, and importing the command line
stays cheap.

No linter ships with the project, so this reads each source file's AST:
a name bound by a top-level ``import``/``from ... import`` must appear
somewhere else in the module as a name or an attribute base."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "termiarith").glob("*.py"))
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    source = "import os\nfrom typing import Iterable, Optional\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Iterable (line 2)", "os (line 1)"]


@pytest.mark.parametrize(
    "path",
    SOURCES + TEST_SOURCES,
    ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TEST_SOURCES],
)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Start-up cost: the records are tuples, so importing the command
    # line must not pull in `dataclasses` (and through it `inspect`).
    src = Path(__file__).parent.parent / "src"
    probe = "import sys, termiarith.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
