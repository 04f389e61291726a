"""The README's quick start runs as written, on exactly what the package exports,
and every name its prose quotes exists."""
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import clearq

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The Python block under the README's "Quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    table, excess = namespace["table"], namespace["excess"]
    assert excess.i_max == table.i_max == 20
    assert (excess.levels >= table.levels - 1e-9 * (1 + abs(table.levels))).all()


def test_package_exports_the_quick_start_names():
    imported = re.search(r"from clearq import (.*)", quick_start()).group(1)
    exported = {
        name for name, value in vars(clearq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name.strip() for name in imported.split(",")}


# A call-shaped name `name(` or a dotted name `module.name` inside an inline code span.
CALL = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(")
DOTTED = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
# The documented rule signature and the math of D are no Python names.
NOT_NAMES = ("rule(", "D(")


def _scopes() -> list:
    """clearq, each of its modules, and the two table classes."""
    modules = [importlib.import_module(f"clearq.{m.name}")
               for m in pkgutil.iter_modules(clearq.__path__)]
    return [clearq, *modules, clearq.solver.ValueTable, clearq.solver.DiffTable]


def _resolves(dotted: str) -> bool:
    obj = clearq
    parts = dotted.split(".")
    for part in parts[1:] if parts[0] == "clearq" else parts:
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def unresolved(markdown: str) -> list[str]:
    """Names quoted in inline code outside fenced blocks that clearq does not define."""
    prose = re.sub(r"```.*?```", "", markdown, flags=re.S)
    scopes = _scopes()
    missing = []
    for span in re.findall(r"`([^`\n]+)`", prose):
        if span.startswith(NOT_NAMES):
            continue
        missing += [name + "(" for name in CALL.findall(span)
                    if not any(hasattr(scope, name) for scope in scopes)]
        missing += [name for name in DOTTED.findall(span) if not _resolves(name)]
    return missing


def test_unresolved_names_are_found():
    text = "`solve_boundary(params)`, `clearq.nowhere`, `policies.gone`, `columns(i_max)`"
    assert unresolved(text) == ["solve_boundary(", "clearq.nowhere", "policies.gone"]


def test_readme_names_resolve():
    assert unresolved(README.read_text(encoding="utf-8")) == []


def test_readme_rule_signature_matches_policy_call():
    quoted = re.findall(r"`rule\(([^)`]*)\)`", README.read_text(encoding="utf-8"))
    call = list(inspect.signature(clearq.policies.Policy.__call__).parameters)[1:]
    assert quoted and all([name.strip() for name in args.split(",")] == call for args in quoted)
