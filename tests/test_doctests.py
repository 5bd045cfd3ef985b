"""The docstring examples of every ``ambc`` module run and pass."""
import doctest
import importlib
import pkgutil

import ambc


def test_every_module_doctest_passes():
    attempted = 0
    names = ["ambc"] + [f"ambc.{info.name}" for info in pkgutil.iter_modules(ambc.__path__)]
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert not result.failed, f"{result.failed} of {result.attempted} doctests failed in {name}"
        attempted += result.attempted
    assert attempted > 0
