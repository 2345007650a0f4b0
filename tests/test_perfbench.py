"""The benchmark's tracer wraps program functions by module attribute
(``perfbench/tracing.py``), so a renamed or deleted function breaks the
traced benchmark run. The tracer is loaded here without installing it,
and every attribute it names must still resolve to a callable.
"""

from __future__ import annotations

from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> dict:
    """The tracer module's globals, run from its source; nothing is
    written next to it and nothing is installed."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_attribute_is_a_callable():
    targets = load_tracing()["TARGETS"]
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
