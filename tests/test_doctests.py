"""Run the docstring examples shipped in the library as tests.

Every public docstring example in ``src/repro`` is executable; this module
keeps them honest without requiring ``--doctest-modules`` on the default
pytest invocation.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Modules whose docstrings carry runnable examples.
MODULES = [
    "repro",
    "repro.analysis.bounds",
    "repro.core.candidates",
    "repro.core.counting",
    "repro.core.incremental",
    "repro.core.miner",
    "repro.core.pattern",
    "repro.devtools",
    "repro.devtools.suppressions",
    "repro.encoding",
    "repro.encoding.codec",
    "repro.encoding.vocabulary",
    "repro.kernels.slotcodes",
    "repro.serve.deadline",
    "repro.timeseries.calendar",
    "repro.timeseries.discretize",
    "repro.timeseries.events",
    "repro.timeseries.feature_series",
    "repro.tree.max_subpattern_tree",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.failed == 0, f"{outcome.failed} doctest failures in {module_name}"
    assert outcome.attempted > 0, f"no doctests collected from {module_name}"
