"""The README's python examples and the module doctests run as tests."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import peaklab

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
MODULES = ["peaklab", *(f"peaklab.{m.name}" for m in pkgutil.iter_modules(peaklab.__path__))]
# modules whose docstrings carry examples, with at least this many each
EXAMPLES = {"peaklab.exact": 3, "peaklab.posets": 2}


def _passes(test: doctest.DocTest) -> bool:
    result = doctest.DocTestRunner().run(test)
    return result.attempted > 0 and result.failed == 0


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example(index):
    test = doctest.DocTestParser().get_doctest(
        BLOCKS[index], {}, f"README.md python block {index}", str(README), 0)
    assert _passes(test), BLOCKS[index]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    tests = doctest.DocTestFinder().find(importlib.import_module(name))
    assert sum(len(t.examples) for t in tests) >= EXAMPLES.get(name, 0)
    assert all(_passes(t) for t in tests if t.examples)
