"""Checks on the tooling around the package."""

import ast
import hashlib
import importlib
import inspect
import json
import os
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_constant(name):
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in bench/spans.py")


def test_traced_spans_resolve():
    """Every (module, attribute) that the bench tracer wraps exists in the
    package, so renaming or deleting a traced function fails here rather
    than in a traced bench run."""
    spans = _bench_constant("SPANS")
    assert spans
    for mod_name, attr, _span in spans:
        owner = importlib.import_module(f"hopfgalois.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"hopfgalois.{mod_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"hopfgalois.{mod_name}.{attr} is not callable"


def test_traced_generators_are_generator_functions():
    """Every span the tracer wraps as a generator names a generator
    function: the wrapper calls next() on what the function returns, so a
    function that returned a list would break only traced bench runs."""
    generators = _bench_constant("GENERATORS")
    assert generators
    for span in generators:
        (fn,) = [
            getattr(importlib.import_module(f"hopfgalois.{mod_name}"), attr)
            for mod_name, attr, name in _bench_constant("SPANS")
            if name == span
        ]
        assert inspect.isgeneratorfunction(fn), f"{span} is not a generator function"


# SHA-256 of json.dumps([entry.to_json() ...], sort_keys=True) over the
# whole catalogue: entry ids, orders, class sizes and the generators of
# each group and stabilizer, with no cache version stamp.
CATALOGUE_DIGESTS = {
    8: "89b15f71e6192a2449bc1d671a6ddd46e83ad2dcd8e23b06f0b6ba09fe34bfdc",
    12: "08c32b877b6b00cb6905ec32c2d885371c506e763612def71db0dc02a44c324b",
    21: "538d089851df29493d75d365a4c2b6b21dc5d113d2350d0ec0df436a1a3168ed",
    24: "85616dbb4250360c55a940acc28f5be1e199e13b68153fc10b1ae4439ce79bff",
}
STRETCH = os.environ.get("HOPFGALOIS_STRETCH") == "1"


@pytest.mark.parametrize("n", [
    n if n != 24 else pytest.param(n, marks=pytest.mark.skipif(
        not STRETCH, reason="degree 24 takes about 25 s; needs HOPFGALOIS_STRETCH=1"))
    for n in sorted(CATALOGUE_DIGESTS)
])
def test_catalogue_entries_are_pinned(n):
    """The catalogue entries at degrees 8, 12, 21 and (opt-in) 24 are byte
    for byte the pinned ones, so a lattice or generator change that alters
    a catalogue fails here, before any row or log is compared.  Degree 24
    is the other row whose lattice sweeps Hol(C2^3) for perfect subgroups."""
    from hopfgalois.pipeline import build_catalogue

    payload = json.dumps([e.to_json() for e in build_catalogue(n)], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == CATALOGUE_DIGESTS[n]


# SHA-256 of json.dumps(groups_of_order(n).to_json(), sort_keys=True):
# labels, tags and multiplication tables of one group per isomorphism class.
GROUP_DIGESTS = {
    8: "e3fb4cbd296e5a812dde4de4a7fded9b3bf1a7b95ea0ccc3a1c0383cd84055bd",
    12: "8c969aa332e37ddf362cc3e0e734ef7bf405600dea63b4ab7dad467311dfe039",
    16: "88540d284d36fdbdfbed906b2a9e87590a029aef6b54959329878ed05420d51a",
    18: "98b4b31412cc95c9c02abe97be7bcb107389b3654a7d4fabf1d9c8a74dd7d05f",
    20: "17bd07a62a00e7e6648a8562333562b33bc420e5045f82b0bc58443f8974eb72",
    24: "9c648a51534c3d6e1fcc605cf1576e5c08881022b3b68f71a07abf0ac8b4f030",
    27: "bdd510f152ec1da976ad2d0bba5649e4dcd1ace3a00d7d17de21c9696799fe59",
}


@pytest.mark.parametrize("n", sorted(GROUP_DIGESTS))
def test_group_catalogues_are_pinned(n):
    """The abstract groups of each non-squarefree order are byte for byte
    the pinned ones.  Deduplication keeps the first candidate of each
    class, and the candidates come in the order Aut(A) is enumerated, so a
    change of that order changes which table is kept and fails here."""
    from hopfgalois.groups import groups_of_order

    payload = json.dumps(groups_of_order(n).to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GROUP_DIGESTS[n]


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


# SHA-256 of json.dumps(verify_pq(7, 3).to_json(), sort_keys=True): the
# checks, the per-entry predicted and computed triples and the collisions.
VERIFY_PQ_7_3_DIGEST = "0c73b68f8596894e73b8fd2f7fa744b2e5214d0752320339593c2d98f2367afc"

# SHA-256 of json.dumps of the no-HGS reports' to_json() of analyze_degree(n),
# entry by entry in catalogue order, with sort_keys=True.
NO_HGS_DIGESTS = {
    8: "8eab8af6f2edf4511fef042ebea57f092c3a92c66652761320cbd6e7db0dab35",
    12: "b41c2194e4e4b759fab0ab886e2721be91b33fa11121364f0a952ed152a1d4c5",
}

# SHA-256 of json.dumps of every report analyze_degree(n) hands to its
# progress hook, in analysis order, each as [source entry, class key, match
# entry, match witness mapping, scanned, core order, no_hgs].
REPORT_DIGESTS = {
    8: "d451fb28f6a0f9ee49c78c0abbada63ba1a7272c5b5918afe91fc68ec5971211",
    12: "c51d9cbe0789f116f2386eb5d22fec7f12b918be8f9d7b3196e4ab35ea605a92",
    21: "8d805cbc2bc7248d5155d756b5063c163f409eb9de94974ccd572b32354f88cf",
}

# SHA-256 of json.dumps of [U generators, V generators] from
# hall_decomposition over every transitive class of every holomorph of
# degree n, in catalogue and lattice order.
HALL_DIGESTS = {
    15: "d612a59ac1306920e8cd90fe20fd5e4e2e9515282755400f3c54d0491fb97787",
    21: "8a019248b509bf9093add905a90f357d0d96d214cbacc76aad4041ede4a6ec56",
}


def test_verify_pq_7_3_is_pinned():
    """verify_pq(7, 3) reports byte for byte the pinned checks and rows."""
    from hopfgalois.pqtheory import verify_pq

    payload = json.dumps(verify_pq(7, 3).to_json(), sort_keys=True)
    assert _sha256(payload) == VERIFY_PQ_7_3_DIGEST


@pytest.mark.parametrize("n", sorted(NO_HGS_DIGESTS))
def test_no_hgs_reports_are_pinned(n):
    """The no-HGS witnesses of the degree-n row are byte for byte the
    pinned ones: subgroup generators, cores, matches and scanned entries."""
    from hopfgalois.pipeline import analyze_degree

    catalogue, witnesses = analyze_degree(n)
    reports = [r.to_json() for e in catalogue for r in witnesses[e.entry_id]]
    assert _sha256(json.dumps(reports, sort_keys=True)) == NO_HGS_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(REPORT_DIGESTS))
def test_all_reports_are_pinned(n):
    """Every report of the degree-n row, matched ones included, is the
    pinned one: its match, the match's witness, and the ``scanned`` prefix of
    same-order entries up to the match."""
    from hopfgalois.pipeline import analyze_degree

    def fields(rep):
        match = rep.match
        return [
            rep.source_entry,
            list(rep.h_class.key),
            None if match is None else match.entry_id,
            None if match is None else [[list(g), list(m)] for g, m in match.witness.mapping],
            list(rep.scanned),
            rep.core_order,
            rep.no_hgs,
        ]

    rows = []
    analyze_degree(n, progress=lambda entry, reports: rows.extend(map(fields, reports)))
    assert _sha256(json.dumps(rows)) == REPORT_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(HALL_DIGESTS))
def test_hall_decompositions_are_pinned(n):
    """hall_decomposition picks the pinned U and V generators for every
    transitive subgroup class at degree n."""
    from hopfgalois.groups import groups_of_order
    from hopfgalois.holomorph import hall_decomposition, holomorph
    from hopfgalois.subgroups import transitive_subgroup_classes

    rows = []
    for N in groups_of_order(n).groups:
        hol = holomorph(N)
        for cls in transitive_subgroup_classes(hol):
            U, V = hall_decomposition(hol, cls.representative)
            rows.append([[list(g) for g in U.generators], [list(g) for g in V.generators]])
    assert _sha256(json.dumps(rows)) == HALL_DIGESTS[n]


README_FILE = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_each_commands_flags():
    """The per-command flag lists in README's CLI section are exactly the
    arguments of each ``build_parser()`` subcommand, in order, with the
    ``--format`` choices, so the docs cannot drift from the parser."""
    import argparse
    import re

    from hopfgalois.cli import build_parser

    cli_section = README_FILE.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = {
        m.group(1): re.findall(r"`([^`]+)`", m.group(2))
        for m in re.finditer(r"^\* `([a-z-]+)`: (.*)$", cli_section, re.MULTILINE)
    }

    def spelled(action):
        name = (action.option_strings or [action.dest])[0]
        return f"{name} {'|'.join(action.choices)}" if action.choices else name

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: [spelled(a) for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for name, parser in sub.choices.items()
    }
    assert documented == parsed


REPO = Path(__file__).resolve().parents[1]

# Names that no module of src/, bench/ or demos/ reads, kept on purpose.
UNREAD_NAMES = {
    "centralizer_elements": "GroupView API that the oracles in tests/oracles.py call",
    "element_order": "AbstractGroup API; the reference for view element orders in tests",
    "format_images": "documented permutation formatter, tested API",
    "project_group": "documented HolomorphProjection API, tested",
}


def test_import_loads_no_openssl_hashes():
    """``import hopfgalois`` leaves ``_hashlib``, Python's OpenSSL binding,
    unloaded: loading it raised the bench's peak RSS by about 3.5 MB.
    Catalogue files are checked with ``zlib.crc32`` instead."""
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = "import sys, hopfgalois; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["False"]


def test_every_definition_has_a_reader():
    """Every class, function, method and property defined in the package,
    dunders aside, is exported by ``hopfgalois/__init__.py`` or appears as a
    word in some .py file of src/, bench/ or demos/ besides its own
    ``def`` or ``class`` line; the exceptions are pinned with a reason."""
    import re

    pkg = REPO / "src" / "hopfgalois"
    init = ast.parse((pkg / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    own_lines = {}
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own_lines.setdefault(node.name, set()).add((path, node.lineno))
    lines = [
        (path, number, line)
        for folder in ("src", "bench", "demos")
        for path in sorted((REPO / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
    ]
    unread = set()
    for name, defs in own_lines.items():
        if name in exported or (name.startswith("__") and name.endswith("__")):
            continue
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) and (path, n) not in defs for path, n, line in lines):
            unread.add(name)
    assert unread == set(UNREAD_NAMES)
