"""Every function that the benchmark's trace wraps still exists.

``bench/run.py --trace 1`` wraps the names in ``bench/spans.py`` ``TRACED``
from outside the package, so renaming or deleting one of them breaks the
traced benchmark.  This test only reads ``bench/``.
"""

from __future__ import annotations

import importlib
import sys
from functools import reduce
from pathlib import Path

import pytest

# bench/ is not a package, and spans imports only the standard library
BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    from spans import TRACED
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize(
    "module, attribute", [(module, attribute) for _, module, attribute in TRACED],
    ids=lambda value: value,
)
def test_traced_name_resolves(module, attribute):
    target = reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(target)
