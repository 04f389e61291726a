"""Import hygiene of the package: no module imports a name it never reads, the
solver takes Policy objects without importing the policies module, and the
modules import one another at module level only, with no cycle."""
import ast
from graphlib import TopologicalSorter
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


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that the imports anywhere in the tree name, as ``solver``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name.startswith("clearq."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "clearq"
                                                   or (node.module or "").startswith("clearq.")):
            if node.module in (None, "clearq"):  # from . import solver
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module)
    return {name.removeprefix("clearq.") for name in names}


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(_tree(path.name)) for path in PACKAGE.glob("*.py")}


def test_package_imports_are_found():
    tree = ast.parse("import os\nimport clearq.model\nfrom . import solver\n"
                     "from .thresholds import x\nfrom clearq.cli import main\n")
    assert package_imports(tree) == {"model", "solver", "thresholds", "cli"}


def test_no_function_imports_a_package_module():
    deferred = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and package_imports(node):
                deferred[f"{path.stem}.{node.name}"] = package_imports(node)
    assert deferred == {}


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    order = list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert graph["solver"] == {"model"}
    assert "solver" in graph["thresholds"]
    assert order.index("model") < order.index("solver") < order.index("thresholds")
