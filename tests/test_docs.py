"""The README's quick start runs as written, on exactly what the package exports."""
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
