"""The README quick tour and every module docstring example run as
doctests."""
import doctest
import importlib
import pathlib
import pkgutil

import pytest

import jugglerfrieze

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(jugglerfrieze.__path__)
                 if m.name != "__main__")


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"jugglerfrieze.{name}")
    assert doctest.testmod(module).failed == 0
