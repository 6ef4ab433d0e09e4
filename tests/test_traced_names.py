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


def test_no_module_reads_a_private_name_of_another():
    # The traced run wraps public names only: a private function called
    # through another module runs inside its caller's span, which is then
    # billed for it.
    reads = []
    for path in sorted((SPANS.parents[1] / "src" / "irkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module, node.level) in ((None, 1), ("irkit", 0))
                   for alias in node.names}
        reads += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert reads == []
