"""Every module-level import in the package and its tests is used where it is imported.

Stdlib `ast` only, so the check runs wherever the tests do. An import may
also stand unused when its module re-exports it (`__all__`) or when its
line says why with `# noqa: F401`.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "faultlab"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _names_in(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_in(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}  # type: ignore[attr-defined]
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imports that nothing in source uses, exports or excuses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names_in(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(bound)
    return unused


def test_the_check_catches_an_unused_import() -> None:
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .a import (\n"
        "    kept,\n"
        "    dropped,\n"
        "    excused,  # noqa: F401  wrapped by name elsewhere\n"
        "    exported,\n"
        ")\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Ann') -> float:\n"
        "    return math.pi * kept(x)\n"
        "from .b import Ann\n"
    )
    assert unused_imports(source) == ["os", "dropped"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_are_used(module: str) -> None:
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_imports_are_used(module: str) -> None:
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def test_the_package_imports_only_the_standard_library() -> None:
    # in a fresh interpreter, because this process has imported numpy
    # already; what site hooks import at startup is not the package's
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import faultlab.cli, faultlab.abc_oracle\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(top - set(sys.stdlib_module_names) - {'faultlab'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == []


def test_importing_the_cli_leaves_dataclasses_unimported() -> None:
    # the records are namedtuples, so no class generates and compiles its
    # methods at import; this counts modules and times nothing
    probe = "import sys, faultlab.cli\nprint('dataclasses' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["False"]


def test_importing_the_cli_leaves_typing_and_the_presets_unimported() -> None:
    # records are made by collections.namedtuple, and only the commands that
    # read the preset catalogue import it; this counts modules and times nothing
    probe = (
        "import sys, faultlab.cli\n"
        "print('typing' in sys.modules, 'faultlab.presets' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["False", "False"]
