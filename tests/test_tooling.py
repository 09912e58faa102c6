"""Checks on the tooling around the package."""

import ast
import hashlib
import importlib
import json
from pathlib import Path

import pytest

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


# SHA-256 of json.dumps([entry.to_json() ...], sort_keys=True) over the
# whole catalogue: entry ids, orders, class sizes and the generators of
# each group and stabilizer, with no cache version stamp.
CATALOGUE_DIGESTS = {
    8: "89b15f71e6192a2449bc1d671a6ddd46e83ad2dcd8e23b06f0b6ba09fe34bfdc",
    12: "08c32b877b6b00cb6905ec32c2d885371c506e763612def71db0dc02a44c324b",
    21: "538d089851df29493d75d365a4c2b6b21dc5d113d2350d0ec0df436a1a3168ed",
}


@pytest.mark.parametrize("n", sorted(CATALOGUE_DIGESTS))
def test_catalogue_entries_are_pinned(n):
    """The catalogue entries at degrees 8, 12 and 21 are byte for byte the
    pinned ones, so a lattice or generator change that alters a catalogue
    fails here, before any row or log is compared."""
    from hopfgalois.pipeline import build_catalogue

    payload = json.dumps([e.to_json() for e in build_catalogue(n)], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == CATALOGUE_DIGESTS[n]
