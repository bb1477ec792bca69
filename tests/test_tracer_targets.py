"""The benchmark tracer's targets resolve in the package.

``perfbench/tracing.py`` traces a layer by replacing each ``(owner,
attribute)`` of its ``_TARGETS`` with a wrapper, so a renamed function or
a dropped import in ``sthdg`` breaks the traced benchmark run.  The file
is loaded here as it is; the test skips where it has no ``_TARGETS``.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets():
    """``_TARGETS`` of ``perfbench/tracing.py``, or None."""
    if not TRACING.exists():
        return None
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, "_TARGETS", None)


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    if targets is None:
        pytest.skip("perfbench/tracing.py lists no _TARGETS")
    assert len(targets) > 0
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if not hasattr(owner, attr)]
    assert not missing, missing
