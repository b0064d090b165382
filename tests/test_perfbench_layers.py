"""Every function the benchmark's span tracer wraps must exist in gmi.

The tracer in perfbench/spans.py raises on a missing name, and only a traced
benchmark run would show it; this test reads its layer table without running
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(key: str) -> bool:
    module_name, qualname = key.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.LAYERS) > 0
    assert [key for key in spans.LAYERS if not _resolves(key)] == []
