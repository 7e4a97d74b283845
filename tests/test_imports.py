"""No module of the package imports a name it never uses.

No linter is a dependency, so this walks each module's syntax tree: a name
bound by ``import`` or ``from ... import`` counts as used when it appears as
a name anywhere in the module (attribute bases and annotations included) or
is listed in ``__all__``.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import cvislr

MODULES = sorted(pathlib.Path(cvislr.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names the module never uses, as 'name (line N)'."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from typing import Iterable, Sequence\n"
              "from . import tensor as t\n"
              "__all__ = ['t']\n"
              "def f(xs: Sequence[int]) -> int:\n    return np.sum(xs)\n")
    assert unused_imports(source) == ["Iterable (line 5)", "os (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_starts_without_scipy():
    # only the transformer block (its gelu) needs scipy, so commands that
    # never run a model skip its import time
    env = dict(os.environ)
    src = str(pathlib.Path(cvislr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, cvislr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
