"""Every function the benchmark tracer wraps exists in ``nmr``.

``perfbench/tracer.py`` skips a wrapped name it cannot find, and the
per-layer metrics derived from that name drop out of the report without
an error.  This test loads the tracer by path, without changing it, and
fails instead, so that a rename is caught where it is made.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import nmr.cli  # noqa: F401  (loads every nmr module, as the benchmark does)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nmr_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves_to_a_callable():
    missing = []
    for wrap in _load_tracer().WRAPS:
        owner = sys.modules.get(f"nmr.{wrap.module}")
        cls_name, _, attr = wrap.name.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"nmr.{wrap.module}.{wrap.name}")
    assert not missing, f"the tracer wraps names nmr no longer has: {missing}"
