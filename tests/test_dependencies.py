"""numpy stays the only runtime dependency, and nothing needs an undeclared package.

Every ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``, so an import inside a function or a guarded block counts too.
``src/`` may import the standard library, numpy and its own modules; no
file may import scipy, sympy or pytest_benchmark, which a machine may have
installed but the project does not declare.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNDECLARED = {"scipy", "sympy", "pytest_benchmark"}
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "harmonic4"}


def imported_packages(path: Path) -> set:
    """The top-level names of every absolute import in the file at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def sources(*dirs) -> list:
    return sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))


def test_the_guard_sees_every_kind_of_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom . import x\n"
                     "def f():\n    from scipy.linalg import eigh\n    import sympy as sp\n")
    assert imported_packages(probe) == {"os", "scipy", "sympy"}


@pytest.mark.parametrize("path", sources("src"), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_only_the_standard_library_and_numpy(path):
    assert imported_packages(path) <= RUNTIME


@pytest.mark.parametrize("path", sources("src", "tests", "demos"),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_file_imports_an_undeclared_package(path):
    assert not imported_packages(path) & UNDECLARED
