"""Route independence, read from the source: the two zeta routes, the
continuation (`qzeta`) and CVZ (`cvz`), must share no code beyond the
precision bookkeeping of `exactnum`, so that the zeta suite of `verify`
is a cross-check; and the exact modules must not reach a numeric route.

Each module's imports of the package's own modules are parsed with `ast`
(every import statement, at any depth), then followed to their closure."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qeuler"
ROUTES = ("cvz", "qzeta")
EXACT = ("classical", "qnumbers", "characters")


def package_imports(source: str) -> set[str]:
    """The modules of `qeuler` that the source imports, in every form:
    `from .x import y`, `from . import x`, `import qeuler.x`,
    `from qeuler.x import y` and `from qeuler import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qeuler" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                continue
            module = node.module or ""
            if node.level == 0:
                if not (module == "qeuler" or module.startswith("qeuler.")):
                    continue
                module = module[len("qeuler."):]
            if module:
                found.add(module.split(".")[0])
            else:  # `from . import x` or `from qeuler import x`
                found.update(alias.name for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def closure(graph: dict[str, set[str]], module: str) -> set[str]:
    """Every package module that `module` reaches through its imports."""
    reached, todo = set(), [module]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


@pytest.mark.parametrize("line", (
    "from .qzeta import ZetaQuery",
    "from . import qzeta",
    "from . import errors, qzeta as continuation",
    "import qeuler.qzeta",
    "import qeuler.qzeta as continuation",
    "from qeuler.qzeta import zeta",
    "from qeuler import qzeta",
    "def late():\n    from .qzeta import zeta\n",
))
def test_every_import_form_is_seen(line):
    assert "qzeta" in package_imports(line)


def test_imports_outside_the_package_are_not_counted():
    assert package_imports("import math\nfrom mpmath import mp\n"
                           "from fractions import Fraction\n"
                           "import qeuler\n") == set()


def test_the_zeta_routes_import_neither_each_other():
    graph = import_graph()
    assert set(ROUTES) <= set(graph)
    for route, other in (ROUTES, ROUTES[::-1]):
        assert other not in closure(graph, route), \
            f"{route} reaches {other} through its imports"


def test_exact_modules_reach_no_zeta_route():
    graph = import_graph()
    for module in EXACT:
        assert module in graph
        reached = closure(graph, module) & set(ROUTES)
        assert not reached, f"{module} reaches {sorted(reached)}"
