"""The package's imports: every module-level import of the package and
of the tests is used by its module, no package module imports another's
underscore names, and importing the command line stays cheap.

No linter ships with the project, so this reads each source file's AST:
a name bound by a top-level ``import``/``from ... import`` must appear
somewhere else in the module as a name or an attribute base."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "termiarith").glob("*.py"))
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


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another module of the
    package: each one's privacy is broken across a module boundary."""
    return sorted(
        f"{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_are_detected():
    source = "from .constraints import LE, _tighten\nfrom os import _exit\nfrom . import _x\n"
    assert private_imports(source) == ["._x (line 3)", "constraints._tighten (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_modules_import_no_private_names(path):
    assert private_imports(path.read_text()) == []


def probe(code: str) -> str:
    """The last line `code` prints in a fresh interpreter that imports
    the package from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[-1]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Start-up cost: the records are tuples, so importing the command
    # line must not pull in `dataclasses` (and through it `inspect`).
    code = "import sys, termiarith.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert probe(code) == "[]"


def test_cli_run_loads_no_argparse_getopt_or_locale():
    # Fixed cost of every command-line verdict: building an argparse
    # parser imports `locale`, about 2 ms before any analysis starts,
    # and `getopt` imports `gettext` for its messages.
    program = str(ROOT / "tests" / "corpus" / "mod.pl")
    code = (
        "import sys, termiarith.cli as cli\n"
        f"code = cli.main([{program!r}, '--query', 'mod(i,i,f)'])\n"
        "print(code, sorted({'argparse', 'getopt', 'gettext', 'locale'} & set(sys.modules)))"
    )
    assert probe(code) == "0 []"
