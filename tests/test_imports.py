"""Route independence, read from the source: each cross-checking suite of
`verify` compares two routes that live in modules which import neither
each other and share no package module beyond `errors` and the exact and
precision bookkeeping of `exactnum` and `realnum`; the exact modules must
not reach a numeric route; `characters`, which builds character tables
only, reaches no package module but `errors`; and the exact layer imports
neither mpmath nor `realnum` at its top.

Each module's imports of the package's own modules are parsed with `ast`
(every import statement, at any depth), then followed to their closure."""

import ast
from pathlib import Path

import pytest

from qeuler.verify import SUITES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qeuler"
#: The two route modules each cross-checking suite compares.
ROUTE_PAIRS = {
    "zeta": ("qzeta", "cvz"),
    "thm2": ("qnumbers", "classical"),
    "thm4": ("qnumbers", "classical"),
    "partial-zeta": ("qzeta", "qnumbers"),
    "lfunction": ("qzeta", "qnumbers"),
}
#: The modules two routes may both reach.
SHARED = {"errors", "exactnum", "realnum"}
ROUTES = ROUTE_PAIRS["zeta"]
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


def top_level_imports(source: str) -> set[str]:
    """The first part of each absolute module name the source imports at
    its top level, and the package modules it imports there."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= package_imports(ast.unparse(node))
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


@pytest.mark.parametrize("suite", ROUTE_PAIRS)
def test_the_routes_of_each_suite_import_neither_each_other(suite):
    assert suite in SUITES
    graph = import_graph()
    pair = ROUTE_PAIRS[suite]
    assert set(pair) <= set(graph)
    for route, other in (pair, pair[::-1]):
        assert other not in closure(graph, route), \
            f"{route} reaches {other} through its imports"
    first, second = ({route} | closure(graph, route) for route in pair)
    assert first & second <= SHARED, \
        f"{suite}'s routes both reach {sorted(first & second - SHARED)}"


def test_exact_modules_reach_no_zeta_route():
    graph = import_graph()
    for module in EXACT:
        assert module in graph
        reached = closure(graph, module) & set(ROUTES)
        assert not reached, f"{module} reaches {sorted(reached)}"


def test_characters_reach_only_errors():
    # imports in function bodies count: the tables need nothing else
    assert closure(import_graph(), "characters") == {"errors"}


def test_top_level_imports_skip_function_bodies():
    assert top_level_imports("import math\nfrom .errors import DomainError\n"
                             "def late():\n    from mpmath import mp\n"
                             "    from .realnum import to_mpf\n") \
        == {"math", "errors"}


@pytest.mark.parametrize("module", ("exactnum",) + EXACT)
def test_exact_layer_imports_no_mpmath_at_its_top(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    found = top_level_imports(source) & {"mpmath", "realnum"}
    assert not found, f"{module} imports {sorted(found)} at its top"
