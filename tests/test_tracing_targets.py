"""The benchmark tracer's targets all exist in the package.

`benchmark/run.py --trace 1` wraps each `_TARGETS` entry of
`benchmark/tracing.py` by module and attribute name, so renaming or deleting
one of them breaks traced runs.  The list is read from the source, not
imported, so the benchmark's own imports play no part.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no _TARGETS in benchmark/tracing.py")


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) >= 10
    for modname, attr, _, _ in targets:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"
