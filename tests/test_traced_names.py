"""Every function the benchmark traces must exist in the package.

perfbench/spans.py names the functions it wraps in TRACED. A name that
no longer resolves is skipped there and its per-layer metrics are
reported absent, so a rename would silently drop a metric. The file is
read and executed here without importing it as a module, so nothing is
written under perfbench/.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def resolve(module_name: str, name: str):
    """The function spans.Tracer.install would wrap, or None."""
    module = importlib.import_module(f"oodkit.{module_name}")
    if "." in name:
        cls_name, attr = name.split(".")
        cls = getattr(module, cls_name, None)
        return vars(cls).get(attr) if isinstance(cls, type) else None
    return vars(module).get(name)


def test_every_traced_name_resolves_to_a_callable():
    traced = load_spans().TRACED
    assert traced
    missing = [f"{module_name}.{name}"
               for module_name, functions in traced.items()
               for name in functions
               if not callable(resolve(module_name, name))]
    assert missing == []
