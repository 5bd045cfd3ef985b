"""Source hygiene: every imported name in the library and the tests is read,
and the library checks its invariants without ``assert`` (which ``python -O``
strips)."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ambc").glob("*.py"))
SOURCES = sorted(
    [p for p in LIBRARY if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that is never read in the
    scope holding the import; reads in nested scopes count."""
    found = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, SCOPES)]:
        bound = []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "*":
                        bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
            elif not isinstance(node, SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        read = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found.extend((line, name) for line, name in bound if name not in read)
    return sorted(found)


def test_scanner_finds_unused_names():
    tree = ast.parse(
        "import os, sys\nfrom a.b import c as d, e\n"
        "def f():\n    import json\n    return sys, e\n"
    )
    assert unused_imports(tree) == [(1, "os"), (2, "d"), (4, "json")]


def test_no_unused_imports():
    assert SOURCES
    found = {
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert not found, sorted(found)


def assert_lines(tree: ast.AST) -> list[int]:
    """Line of every ``assert`` statement."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_scanner_finds_asserts():
    tree = ast.parse("def f(x):\n    assert x\n    return x\nassert f(1), 'msg'\n")
    assert assert_lines(tree) == [2, 4]


def test_no_asserts_in_library():
    assert LIBRARY
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in LIBRARY
        for line in assert_lines(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found
