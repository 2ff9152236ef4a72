"""The traced benchmark run wraps program functions by module attribute
(``perfbench/spans.py``) and stops when one of them is gone; a refactor that
renames or drops such a name must fail here first."""
import importlib.util
import sys
from pathlib import Path

import subdiff.cli  # noqa: F401  (imports every module the span sites name)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans._SITES
        if getattr(sys.modules.get(module), attr, None) is None
    ]
    assert spans._SITES and missing == []
