"""The benchmark's traced run wraps ``irkit.<module>.<function>`` attributes
by name, listed in ``perfbench/spans.py``; a renamed or removed function
would silently drop out of the trace."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(getattr(t, "id", None) == "LAYERS" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


def test_every_traced_name_exists():
    layers = _layers()
    missing = [f"{module}.{fn}" for module, fns in layers.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(
                   f"irkit.{module}"), fn, None))]
    assert layers and missing == []
