"""Source hygiene: every imported name in the library and the tests is read,
every module-level name of the library is read somewhere (a public one may
instead be exported by the package), every library name the benchmark harness
imports exists, the library and the tests import only at
module level (so their import graphs are the ones their headers show), the
command line alone reads and writes the text formats (``affine`` keeps the
window format), no library name outside the oracles serves only the tests,
outside ``matrixball`` only the star probe and the oracles read the raw
forward and backward kernels, only the checked memo reads the LR kernel, the
library keeps exactly the declared memos at their declared sizes, and the
library checks its invariants without ``assert`` (which ``python -O``
strips)."""
import ast
from pathlib import Path

import ambc

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ambc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
SOURCES = sorted([p for p in LIBRARY if p.name != "__init__.py"] + TESTS)
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


def nested_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name of the innermost enclosing function or class) of every
    import inside a function or class body."""
    found = {}
    for scope in ast.walk(tree):  # breadth first: inner scopes overwrite outer ones
        if isinstance(scope, SCOPES):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found[node.lineno] = scope.name
    return sorted(found.items())


def test_scanner_finds_nested_imports():
    tree = ast.parse(
        "import os\ndef f():\n    import json\n    def g():\n        from a import b\n"
        "class C:\n    import re\nif os:\n    import sys\n"
    )
    assert nested_imports(tree) == [(3, "f"), (5, "g"), (7, "C")]


def test_no_imports_inside_library_functions():
    assert LIBRARY and TESTS
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in LIBRARY + TESTS
        for line, name in nested_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scanner_finds_imported_modules():
    tree = ast.parse(
        "import os.path, json\nfrom re import compile\nfrom . import a\nfrom .b import c\n"
    )
    assert imported_modules(tree) == {"os", "json", "re"}


def modules_importing(module: str) -> list[str]:
    """Stems of the library modules that import ``module``."""
    return [path.stem for path in LIBRARY if module in imported_modules(ast.parse(path.read_text()))]


# cli reads and writes every text format of the command line; affine keeps
# the window format, which the package exports beside AffinePerm
def test_only_cli_imports_json():
    assert modules_importing("json") == ["cli"]


def test_only_affine_and_cli_import_re():
    assert modules_importing("re") == ["affine", "cli"]


WINDOW_FORMAT = {"format_window", "parse_window", "parse_int"}


def text_definitions(tree: ast.Module) -> list[str]:
    """Module-level names that read or write text by their name: a
    ``parse_`` or ``format_`` prefix or a ``_json`` suffix."""
    return [
        name
        for _, name in module_definitions(tree)
        if name.startswith(("parse_", "format_")) or name.endswith("_json")
    ]


def test_scanner_finds_text_definitions():
    tree = ast.parse(
        "def parse_a(t):\n    pass\ndef format_b(x):\n    pass\nc_json = 1\n"
        "def reparse(t):\n    pass\nclass C:\n    def to_json(self):\n        pass\n"
    )
    assert text_definitions(tree) == ["parse_a", "format_b", "c_json"]


def test_text_formats_only_in_cli():
    found = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        if path.stem != "cli"
        for name in text_definitions(ast.parse(path.read_text(), str(path)))
        if not (path.stem == "affine" and name in WINDOW_FORMAT)
    ]
    assert not found, found


KERNELS = {"_phi_win", "_psi_rows"}


def kernel_readers(tree: ast.Module, kernels=KERNELS) -> set[str]:
    """The module-level definitions (``<module>`` for other statements) that
    name one of ``kernels``, by default the unchecked forward and backward
    kernels; imports and docstrings do not count."""
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, SCOPES) else "<module>"
        for node in ast.walk(top):
            if getattr(node, "id", getattr(node, "attr", None)) in kernels:
                found.add(owner)
    return found


def test_scanner_finds_kernel_readers():
    tree = ast.parse(
        "from m import _phi_win, _psi_rows\nimport m\nf = _phi_win\n"
        "def g():\n    return m._psi_rows\ndef h():\n    return _phi\n"
    )
    assert kernel_readers(tree) == {"<module>", "g"}
    assert kernel_readers(tree, {"_phi"}) == {"h"}


def test_raw_kernels_stay_behind_checked_cores():
    # outside matrixball a forward or backward image goes through phi, psi or
    # their checked cores, so the postconditions hold everywhere; the star
    # probe and the oracles read the raw kernels on purpose
    found = [
        f"{path.stem}.{owner}"
        for path in LIBRARY
        if path.stem not in ("matrixball", "oracles")
        for owner in sorted(kernel_readers(ast.parse(path.read_text(), str(path))))
        if (path.stem, owner) != ("cells", "_star_probe")
    ]
    assert not found, found


def test_lr_kernel_only_behind_its_checked_memo():
    # _lr_lowered checks each LR product dominant as it stores it, so no
    # library caller may reach the kernel around it
    found = {
        f"{path.stem}.{owner}"
        for path in LIBRARY
        for owner in kernel_readers(ast.parse(path.read_text(), str(path)), {"_lr_kernel"})
    }
    assert found == {"repring._lr_lowered"}, found


MEMO_MAKERS = {"lru_cache": 128, "cache": None}  # functools' default sizes

# every memo in src/ambc and its maxsize (None: unbounded); a new or resized
# memo changes this table, so it shows up in review
MEMOS = {
    "matrixball._psi_step": 4096,
    "repring._lr_lowered": 4096,
    "jring._coordinates": 4096,
    "lusztig_vogan._theta_lowered": 4096,
    "cells._star_probe": None,
    "cells._probe_altitudes": None,
}


def memo_table(tree: ast.AST) -> list[tuple[str, object]]:
    """(name, maxsize) of every use of ``lru_cache`` or ``cache``: the name is
    the function it decorates or the name its wrapper is assigned to, else
    ``?``; the size is the literal ``maxsize`` or functools' default."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        maker = getattr(node, "id", getattr(node, "attr", None))
        if maker not in MEMO_MAKERS or not isinstance(node.ctx, ast.Load):
            continue
        wrapper, size = node, MEMO_MAKERS[maker]
        call = parents.get(node)
        if isinstance(call, ast.Call) and call.func is node:
            given = {kw.arg: kw.value for kw in call.keywords}.get("maxsize", (call.args or [None])[0])
            wrapper, size = call, size if given is None else ast.literal_eval(given)
        owner = parents.get(wrapper)
        name = "?"
        if isinstance(owner, SCOPES) and wrapper in owner.decorator_list:
            name = owner.name
        elif isinstance(owner, ast.Call) and owner.func is wrapper and isinstance(parents.get(owner), ast.Assign):
            name = ast.unparse(parents[owner].targets[0])
        found.append((name, size))
    return found


def test_scanner_finds_memos():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None)\ndef f(): pass\n@functools.lru_cache\ndef g(): pass\n"
        "@cache\ndef h(): pass\nk = lru_cache(64)(f)\n"
        "def outer():\n    return lru_cache(maxsize=8)(g)\n"
    )
    assert sorted(memo_table(tree), key=str) == sorted(
        [("f", None), ("g", 128), ("h", None), ("k", 64), ("?", 8)], key=str
    )


def test_memo_inventory():
    found = [
        (f"{path.stem}.{name}", size)
        for path in LIBRARY
        for name, size in memo_table(ast.parse(path.read_text(), str(path)))
    ]
    assert sorted(found, key=str) == sorted(MEMOS.items(), key=str)


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


def module_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every module-level function, class or assignment."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return found


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Module-level definitions whose name starts with one underscore and is
    not a dunder."""
    found = module_definitions(tree)
    return [(line, name) for line, name in found if name[:1] == "_" and name[:2] != "__"]


def public_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Module-level definitions whose name does not start with an underscore."""
    return [(line, name) for line, name in module_definitions(tree) if name[:1] != "_"]


def names_read(tree: ast.AST) -> set[str]:
    """Names loaded, attributes accessed and names imported from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_scanner_finds_dead_private_names():
    tree = ast.parse(
        "_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = _A\n"
        "def _f():\n    return _g()\ndef _g():\n    pass\nclass _C:\n    pass\n"
        "def _h():\n    pass\n"
    )
    read = names_read(tree) | names_read(ast.parse("import m\nm._h()\n"))
    dead = [(line, name) for line, name in private_definitions(tree) if name not in read]
    assert dead == [(2, "_B"), (5, "_f"), (9, "_C")]


def test_no_dead_private_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + TESTS}
    read = set().union(*map(names_read, trees.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in LIBRARY
        for line, name in private_definitions(trees[path])
        if name not in read
    ]
    assert not found, found


def test_scanner_finds_dead_public_names():
    tree = ast.parse(
        "A = 1\nB: int = 2\n_C = A\n"
        "def f():\n    return g()\ndef g():\n    pass\nclass K:\n    pass\n"
        "def h():\n    pass\n"
    )
    read = names_read(tree) | names_read(ast.parse("import m\nm.h()\nfrom m import K\n"))
    dead = [(line, name) for line, name in public_definitions(tree) if name not in read | {"B"}]
    assert dead == [(4, "f")]


def test_no_dead_public_names():
    # bench/ is only read: a name its harness uses is not dead
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + TESTS + BENCH}
    read = set().union(*map(names_read, trees.values())) | set(ambc.__all__)
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in LIBRARY
        for line, name in public_definitions(trees[path])
        if name not in read
    ]
    assert not found, found


def library_imports(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, module, name) of every name a ``from ambc... import`` binds."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "ambc"
        for alias in node.names
    ]


def test_scanner_finds_library_imports():
    tree = ast.parse(
        "import ambc\nfrom ambc import (\n    a,\n    b,\n)\nfrom ambc.m import c as d\n"
        "from ambcx import e\nfrom . import f\n"
    )
    assert library_imports(tree) == [(2, "ambc", "a"), (2, "ambc", "b"), (6, "ambc.m", "c")]


def test_bench_imports_resolve():
    # bench/ is not run by these tests, so a library name its harness
    # imports that a change drops or renames would crash it unseen
    assert BENCH
    found = [
        f"{path.relative_to(ROOT)}:{line}: {module}.{name}"
        for path in BENCH
        for line, module, name in library_imports(ast.parse(path.read_text(), str(path)))
        if not hasattr(__import__(module, fromlist=[name]), name)
    ]
    assert not found, found


def test_no_library_name_serves_only_tests():
    # a module-level name outside the oracles is exported, or library code
    # (its own module included) or the benchmark reads it; a helper that only
    # tests read belongs in tests/conftest.py
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + BENCH}
    read = set().union(*map(names_read, trees.values())) | set(ambc.__all__)
    found = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        if path.stem != "oracles"
        for _, name in module_definitions(trees[path])
        if name[:2] != "__" and name not in read
    ]
    assert not found, found
