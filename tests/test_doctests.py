"""Run the doctest examples embedded in module/class docstrings."""

import doctest

import pytest

import repro.api
import repro.graph.digraph

MODULES_WITH_EXAMPLES = [
    repro.graph.digraph,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} should contain doctests"
    assert results.failed == 0


def test_api_quickstart_doctest():
    results = doctest.testmod(repro.api, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
