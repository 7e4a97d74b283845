"""No module of the package, and no test, tool or demo, imports a name it
never uses, and no top-level function of the package goes unused.  No
module but ``errors`` tests for a number type itself, and no code but
``tensor._stream`` opens a path for writing.

No linter is a dependency, so this walks each module's syntax tree: a name
bound by ``import`` or ``from ... import`` counts as used when it appears as
a name anywhere in the module (attribute bases and annotations included) or
is listed in ``__all__``.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import cvislr

MODULES = sorted(pathlib.Path(cvislr.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Files held to the unused-import rule: the package, then its tests, tools, demos
#: and benchmark.
LINTED = MODULES + sorted(path for tree in ("tests", "tools", "demos", "perfbench")
                          for path in (ROOT / tree).rglob("*.py"))
#: Modules whose top-level functions must each have a caller, and where callers live.
GUARDED = tuple(path.stem for path in MODULES)
CALLER_TREES = ("src", "perfbench", "demos")


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


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name if p in MODULES
                         else p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _guarded_bindings(tree: ast.Module, module: str | None) -> dict:
    """Local name -> the guarded module name, or the (module, function), it binds.

    ``module`` is the guarded module the tree defines, if any: its own
    top-level functions are bound by their names.
    """
    names: dict = {}
    if module:
        names.update((n.name, (module, n.name)) for n in tree.body
                     if isinstance(n, ast.FunctionDef))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source.split(".")[0] != "cvislr":
                continue
            source = source.removeprefix("cvislr").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source in GUARDED:
                names[local] = (source, alias.name)
            elif not source and alias.name in GUARDED:
                names[local] = alias.name
            elif not source:  # a function the package re-exports
                obj = getattr(cvislr, alias.name, None)
                owner = getattr(obj, "__module__", "").removeprefix("cvislr.")
                if inspect.isfunction(obj) and owner in GUARDED:
                    names[local] = (owner, alias.name)
    return names


def guarded_references(source: str, module: str | None = None) -> set:
    """(module, function) pairs of guarded functions that ``source`` refers to.

    A function counts when a name imported from its module, or an attribute
    of its imported module, names it.  In the defining ``module``, a
    function's references inside its own definition do not count.
    """
    tree = ast.parse(source)
    names = _guarded_bindings(tree, module)
    found = set()
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(names.get(node.id), tuple):
                refs.add(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and isinstance(names.get(node.value.id), str)):
                refs.add((names[node.value.id], node.attr))
        if module and isinstance(stmt, ast.FunctionDef):
            refs.discard((module, stmt.name))
        found |= refs
    return found


def test_reference_checker_resolves_names():
    module = ("def used():\n    pass\n"
              "def unused(n):\n    return unused(n - 1) if n else 0\n"
              "def caller():\n    return used()\n")
    assert guarded_references(module, "tensor") == {("tensor", "used")}
    caller = ("from cvislr import backward, vst\n"
              "from cvislr.tensor import add as plus, matmul\n"
              "from cvislr.train import cross_entropy\n"
              "seen = set()\nseen.add(1)\n"
              "backward(vst.head(plus(1, 2)))\n")
    assert guarded_references(caller) == {("tensor", "backward"), ("tensor", "add"),
                                          ("vst", "head")}


def test_every_top_level_function_has_a_caller():
    # a function, public or private, that only tests call is dead code; it
    # stays only with a caller in the package, the benchmark or a demo
    package = ROOT / "src" / "cvislr"
    defined = {(m, n.name) for m in GUARDED
               for n in ast.parse((package / f"{m}.py").read_text(encoding="utf-8")).body
               if isinstance(n, ast.FunctionDef)}
    used = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            own = path.stem if path.parent == package and path.stem in GUARDED else None
            used |= guarded_references(path.read_text(encoding="utf-8"), own)
    assert sorted(f"{m}.{f}" for m, f in defined - used) == []


#: The forward-only reference ops of ``tensor``: perfbench's head and the
#: tests' forward oracles call them, and no other module, tool or demo may.
REFERENCE_OPS = {("tensor", op) for op in ("add", "matmul", "layer_norm", "tensor_mean")}


def test_no_package_module_calls_the_reference_ops():
    # the model's layers are fused tape nodes, so the ops can go once
    # perfbench's head no longer builds on them, touching no tool or demo
    probe = "from . import tensor\nfrom .tensor import add\nadd(tensor.matmul(a, b), 1)\n"
    assert guarded_references(probe, "vst") & REFERENCE_OPS == {("tensor", "add"),
                                                                ("tensor", "matmul")}
    scripts = sorted(path for tree in ("tools", "demos") for path in (ROOT / tree).rglob("*.py"))
    callers = {path.relative_to(ROOT).as_posix():
               sorted(op for _, op in REFERENCE_OPS
                      & guarded_references(path.read_text(encoding="utf-8"),
                                           path.stem if path in MODULES else None))
               for path in MODULES + scripts if path.stem != "tensor"}
    assert {name: ops for name, ops in callers.items() if ops} == {}


def number_rule_parts(source: str) -> list[str]:
    """What ``source`` takes that only ``errors`` may use: the ``numbers`` module,
    and the private helpers of ``errors`` that its value rules are built from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numbers":
            found += [f"numbers.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "errors":
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "errors" and node.attr.startswith("_")):
            found.append(f"errors.{node.attr}")
    return found


def test_number_rule_checker_finds_each_use():
    source = ("import numbers\nfrom numbers import Real\n"
              "from .errors import ContractError, _is_integer\n"
              "from cvislr.errors import _real\nfrom . import errors\n"
              "errors._is_integer(1)\nerrors.check_seed(1)\n")
    assert number_rule_parts(source) == ["numbers", "numbers.Real", "_is_integer", "_real",
                                         "errors._is_integer"]


def test_only_errors_builds_number_rules():
    # each value rule has one owner in errors and returns the value the package
    # stores, so no other module tests for a number type itself
    parts = {path.name: number_rule_parts(path.read_text(encoding="utf-8"))
             for path in MODULES if path.stem != "errors"}
    assert {name: found for name, found in parts.items() if found} == {}


def path_writes(source: str) -> list[str]:
    """The top-level definitions of ``source`` that open a path for writing, once
    per call: an ``open`` (or ``x.open``) whose mode is not a literal, or writes,
    appends, creates or updates, and any ``write_text`` or ``write_bytes``."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            reads = all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and not set(m.value) & set("wax+") for m in modes)
            if name in ("write_text", "write_bytes") or name == "open" and not reads:
                found.append(getattr(stmt, "name", "<module>"))
    return found


def test_path_write_checker_finds_each_kind():
    source = ("def reads(p):\n    return open(p), open(p, 'rb'), open(p, mode='r')\n"
              "def writes(p, m):\n    open(p, 'w'), open(p, mode='ab'), io.open(p, 'x')\n"
              "    open(p, 'r+'), open(p, m), os.open(p, os.O_WRONLY)\n"
              "def saves(p):\n    p.write_bytes(b'')\n")
    assert path_writes(source) == ["writes"] * 6 + ["saves"]


def test_only_tensor_stream_opens_a_path_for_writing():
    # it replaces a path with a complete file or leaves it as it was, so
    # every writer of the package follows that one rule
    found = {path.stem: set(path_writes(path.read_text(encoding="utf-8"))) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {
        "tensor": {"_stream"}}


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
