"""Checks on the tooling around the package."""

import ast
import importlib
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS in bench/spans.py")


def test_traced_spans_resolve():
    """Every (module, attribute) that the bench tracer wraps exists in the
    package, so renaming or deleting a traced function fails here rather
    than in a traced bench run."""
    spans = _spans()
    assert spans
    for mod_name, attr, _span in spans:
        owner = importlib.import_module(f"hopfgalois.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"hopfgalois.{mod_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"hopfgalois.{mod_name}.{attr} is not callable"
