"""Import hygiene of the package: no module imports a name it never reads, and the
solver takes Policy objects without importing the policies module."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clearq"


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import and never reads, in import order."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import inf, pi\nnp.log(pi)\n")
    assert unused_imports(tree) == ["os", "inf"]


def test_no_module_has_an_unused_import():
    # __init__.py imports to re-export, so it is left out.
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert "solver.py" in modules
    assert {name: unused_imports(_tree(name)) for name in modules} == {
        name: [] for name in modules}


def test_solver_does_not_import_policies():
    imported = set()
    for node in ast.walk(_tree("solver.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported & {".policies", "clearq.policies"} == set()
    assert ".model" in imported  # the scan reads relative imports
