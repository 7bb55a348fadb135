"""The smallest rows of ``tools/k_guess_scaling.py`` run and repeat.

The tool's timings are not checked here; only that each shape solves,
with the known number of results, and that a second run gives the same
results.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "k_guess_scaling.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("k_guess_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("semantics", ["reiter", "weak"])
@pytest.mark.parametrize("shape, results", [("shared_nixon", 2), ("disjoint_nixon", 2),
                                            ("chain", 1)])
def test_the_smallest_rows_repeat(tool, shape, results, semantics):
    size = min(tool.SIZES[shape])
    first = tool.measure(shape, size, semantics)
    second = tool.measure(shape, size, semantics)
    assert first["results"] == second["results"] == results
    assert first["digest"] == second["digest"]
    assert (first["shape"], first["size"], first["semantics"]) == (shape, size, semantics)
