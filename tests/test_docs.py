"""The README's python examples and the module doctests run as tests."""

import doctest
import re
from pathlib import Path

import pytest

from peaklab import exact

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


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


def test_exact_module_doctests():
    tests = doctest.DocTestFinder().find(exact)
    assert sum(len(t.examples) for t in tests) >= 3
    assert all(_passes(t) for t in tests if t.examples)
