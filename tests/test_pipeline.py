import json
import re
import zlib

import pytest

from hopfgalois import cache, pipeline
from hopfgalois.cli import main
from hopfgalois.errors import PreconditionError
from hopfgalois.permgroup import PermGroup, normal_core
from hopfgalois.pipeline import (
    analyze_parallel,
    build_catalogue,
    detect_no_hgs,
    extend_family,
    find_extension_prime,
    hgs_types_admitted,
    iterate_family,
)


def _row(summary):
    return (summary.degree, summary.total_transitive_classes, summary.no_hgs_entries)


def test_build_catalogue_tiny():
    cat = build_catalogue(2)
    assert len(cat) == 1
    assert cat[0].order == 2
    cat = build_catalogue(3)
    assert len(cat) == 2  # C3 regular and Sym(3) inside Hol(C3)
    for e in cat:
        assert e.group.is_transitive()
        assert e.stabilizer == e.group.point_stabilizer(0)
        assert normal_core(e.group, e.stabilizer).is_trivial()


def test_catalogue_cache_roundtrip(tmp_path):
    cat = build_catalogue(4, cache_dir=tmp_path)
    again = build_catalogue(4, cache_dir=tmp_path, resume=True)
    assert [e.entry_id for e in cat] == [e.entry_id for e in again]
    assert all(a.group == b.group for a, b in zip(cat, again))
    files = list(tmp_path.glob("catalogue_deg4_*.json"))
    assert len(files) == 2
    payload = json.loads(files[0].read_text())
    assert payload["grouplib_version"]


def test_analyze_parallel_stabilizer_class():
    cat = build_catalogue(4)
    for entry in cat:
        reports = analyze_parallel(entry, cat)
        stab_reports = [
            r for r in reports if r.match and r.match.entry_id == entry.entry_id
        ]
        assert stab_reports, "the stabilizer class must match its own entry"
        assert all(r.quotient_degree == 4 for r in reports)


@pytest.mark.parametrize("n", range(4, 13))
def test_stabilizer_class_is_the_one_that_fixes_a_point(n):
    """An index-n class of an entry is the class of its Stab(0) exactly
    when the class representative fixes a point, as analyze_parallel and
    classify_index_n read it."""
    from hopfgalois.subgroups import class_key_of, index_n_subgroup_classes

    for entry in build_catalogue(n):
        stab_key = class_key_of(entry.group, entry.stabilizer)
        classes = index_n_subgroup_classes(entry.group, n)
        fixing = [c.representative.fixes_a_point() is not None for c in classes]
        assert fixing == [c.key == stab_key for c in classes], entry.entry_id
        assert fixing.count(True) == 1


def test_detect_no_hgs_degree_4_and_5():
    s4 = detect_no_hgs(4)
    assert s4.no_hgs_entries == 0
    assert s4.total_transitive_classes == sum(c for _, c, _ in s4.per_type)
    s5 = detect_no_hgs(5)
    assert s5.no_hgs_entries == 0
    # degree 5: Hol(C5) has 3 transitive classes (C5, F10... the subgroup
    # orders are 5, 10, 20)
    assert s5.total_transitive_classes == 3


def _count_analyses(monkeypatch):
    """Entry ids passed to ``analyze_parallel`` from now on."""
    calls = []
    real = pipeline.analyze_parallel

    def counted(entry, catalogue, **kwargs):
        calls.append(entry.entry_id)
        return real(entry, catalogue, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_parallel", counted)
    return calls


def test_reports_resume(tmp_path, monkeypatch):
    from hopfgalois.pipeline import analyze_degree

    detect_no_hgs(4, cache_dir=tmp_path)

    def analysed_again(entry, catalogue, **kwargs):
        raise AssertionError(f"entry {entry.entry_id} was analysed again")

    # everything comes from the report log
    monkeypatch.setattr(pipeline, "analyze_parallel", analysed_again)
    catalogue, witnesses = analyze_degree(4, cache_dir=tmp_path, resume=True)
    assert set(witnesses) == {e.entry_id for e in catalogue}
    summary = detect_no_hgs(4, cache_dir=tmp_path, resume=True)
    assert summary.no_hgs_entries == 0


def test_resume_builds_no_stabilizer_chain(tmp_path, monkeypatch):
    """Groups read back from the catalogue files and the report log are
    never queried on a resumed run, so no Schreier-Sims runs at all."""
    from hopfgalois import permgroup

    summary = detect_no_hgs(8, cache_dir=tmp_path)
    catalogue = build_catalogue(55, cache_dir=tmp_path)
    calls = []
    build_chain = permgroup._build_chain

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(permgroup, "_build_chain", counted)
    assert detect_no_hgs(8, cache_dir=tmp_path, resume=True) == summary
    again = build_catalogue(55, cache_dir=tmp_path, resume=True)
    assert calls == []
    assert [(e.degree, e.type_label, e.to_json()) for e in again] == [
        (e.degree, e.type_label, e.to_json()) for e in catalogue
    ]


def test_rerun_writes_the_log_once(tmp_path):
    detect_no_hgs(6, cache_dir=tmp_path)
    once = cache.reports_path(tmp_path, 6).read_bytes()
    detect_no_hgs(6, cache_dir=tmp_path)
    assert cache.reports_path(tmp_path, 6).read_bytes() == once


def test_resume_reanalyses_only_a_torn_entry(tmp_path, monkeypatch):
    """A killed run leaves its last line torn; resume redoes that entry."""
    first = detect_no_hgs(6, cache_dir=tmp_path)
    log = cache.reports_path(tmp_path, 6)
    log.write_bytes(log.read_bytes()[:-40])
    calls = _count_analyses(monkeypatch)
    assert detect_no_hgs(6, cache_dir=tmp_path, resume=True) == first
    assert len(calls) == 1
    calls.clear()
    assert detect_no_hgs(6, cache_dir=tmp_path, resume=True) == first
    assert calls == []


def _crc_checked(obj, indent=1) -> bytes:
    """``obj`` laid out as a catalogue file (as a report-log line with no
    ``indent``), with a CRC head that matches, so that only its shape can
    make it a miss."""
    obj = {k: v for k, v in obj.items() if k != "crc32"}
    body = json.dumps(obj, indent=indent, sort_keys=True)[1:].encode()
    return b'{"crc32": "%08x",' % zlib.crc32(body) + body


def _without(text, key):
    return _crc_checked({k: v for k, v in json.loads(text).items() if k != key})


def _first_entry(text, change):
    obj = json.loads(text)
    obj["entries"][0] = change(obj["entries"][0])
    return _crc_checked(obj)


@pytest.mark.parametrize("damage", [
    lambda text: b"\xff\xfe" + text.encode(),
    lambda text: _without(text, "entries"),
    lambda text: _first_entry(text, lambda e: {"x": 1}),
    lambda text: _first_entry(text, lambda e: dict(e, group="zz")),
    lambda text: _without(text, "holomorph_classes"),
], ids=["undecodable", "stamp-without-entries", "entry-without-group", "group-not-a-list",
        "stamp-without-holomorph-classes"])
def test_damaged_catalogue_file_is_rebuilt(tmp_path, damage):
    """A catalogue file that does not decode, or one whose CRC matches but
    that has no entries, an entry that does not decode or no Hol(N)
    classes, reads as a miss: its type is rebuilt and the file rewritten."""
    fresh = build_catalogue(4, cache_dir=tmp_path)
    path = next(tmp_path.glob("catalogue_deg4_*.json"))
    good = path.read_bytes()
    assert _crc_checked(json.loads(good)) == good
    path.write_bytes(damage(good.decode()))
    again = build_catalogue(4, cache_dir=tmp_path)
    assert [e.to_json() for e in again] == [e.to_json() for e in fresh]
    assert path.read_bytes() == good
    path.write_bytes(damage(good.decode()))
    assert main(["no-hgs", "--degree", "4", "--cache-dir", str(tmp_path)]) == 0
    assert path.read_bytes() == good


def _first_innermost_list(text, after):
    """The match of the first list holding no list past ``after``."""
    return re.compile(r"\[[^\[\]]*\]").search(text, text.index(after))


def _swap_images_1_2(text):
    """The first generator of the first entry, with images 1 and 2 swapped."""
    gen = _first_innermost_list(text, '"group": [')
    swapped = re.sub(r"\b[12]\b", lambda m: "21"[int(m[0]) - 1], gen[0])
    return text[:gen.start()] + swapped + text[gen.end():]


def _double_first_order(text):
    return re.sub(r'"order": (\d+)', lambda m: f'"order": {2 * int(m[1])}', text, count=1)


def _alter_holomorph_key(text):
    """The first stored Hol(N) class key, its last element raised by one."""
    key = _first_innermost_list(text, '"holomorph_classes"')
    altered = re.sub(r"(\d+)(\s*\])$", lambda m: f"{int(m[1]) + 1}{m[2]}", key[0])
    return text[:key.start()] + altered + text[key.end():]


@pytest.mark.parametrize("alter", [_swap_images_1_2, _double_first_order, _alter_holomorph_key],
                         ids=["swapped-images", "altered-order", "altered-holomorph-key"])
def test_altered_catalogue_file_is_rebuilt(tmp_path, alter):
    """A catalogue file with one value altered, still of the right shape,
    fails its CRC and reads as a miss: the degree-8 row stays (148, 8) and
    the file is rewritten byte for byte.  Trusted, the swapped images give
    a group of order 64 with the recorded order 8, and the row (148, 9)."""
    first = detect_no_hgs(8, cache_dir=tmp_path)
    path = cache.catalogue_path(tmp_path, 8, "8.2")
    good = path.read_bytes()
    altered = alter(good.decode()).encode()
    assert altered != good
    path.write_bytes(altered)
    assert detect_no_hgs(8, cache_dir=tmp_path) == first
    assert _row(first) == (8, 148, 8)
    assert path.read_bytes() == good


def test_resume_keeps_the_lines_before_undecodable_bytes(tmp_path, monkeypatch):
    """A log whose tail holds bytes that do not decode is read up to them,
    as a torn line is: resume redoes only the entries past them."""
    first = detect_no_hgs(6, cache_dir=tmp_path)
    log = cache.reports_path(tmp_path, 6)
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:-2]) + b"\xff" + lines[-2][1:] + lines[-1])
    calls = _count_analyses(monkeypatch)
    assert detect_no_hgs(6, cache_dir=tmp_path, resume=True) == first
    assert len(calls) == 2
    assert cache.reports_path(tmp_path, 6).read_bytes() == b"".join(lines)


@pytest.mark.parametrize("damage, redone", [
    (lambda lines: [*lines[:2], _crc_checked({"x": 1}, None) + b"\n", *lines[3:]], 1),
    (lambda lines: [b"[1]\n", *lines[1:]], 0),
], ids=["line-without-witnesses", "stamp-not-an-object"])
def test_resume_ends_the_log_at_a_record_of_the_wrong_shape(tmp_path, monkeypatch, damage, redone):
    """A log line that parses but does not decode to an entry's reports
    ends the log, as a torn line does, and a stamp that is not an object is
    invalid: resume redoes the entries from there and rewrites the log."""
    first = detect_no_hgs(6, cache_dir=tmp_path)
    log = cache.reports_path(tmp_path, 6)
    good = log.read_bytes()
    lines = good.splitlines(keepends=True)
    log.write_bytes(b"".join(damage(lines)))
    calls = _count_analyses(monkeypatch)
    assert detect_no_hgs(6, cache_dir=tmp_path, resume=True) == first
    assert calls == list(range(redone, first.total_transitive_classes))
    assert log.read_bytes() == good


def _first_witness_line(lines) -> int:
    """The index of the first logged entry with a no-HGS report."""
    return next(i for i, line in enumerate(lines) if i and b'"witnesses": []' not in line)


def _alter_line(lines, pattern, repl):
    """The log's lines with the first witness line altered by one regex
    substitution."""
    i = _first_witness_line(lines)
    altered = re.sub(pattern, repl, lines[i], count=1)
    assert altered != lines[i]
    return b"".join([*lines[:i], altered, *lines[i + 1:]])


def test_resume_redoes_an_entry_whose_witnesses_were_emptied(tmp_path, monkeypatch):
    """A logged no-HGS entry whose witness list was emptied fails its
    line's CRC and ends the log, as a torn line does: resume redoes the
    entries from there, the degree-8 row stays (148, 8) and the log is
    rewritten byte for byte.  Trusted, the line gives the row (148, 7)."""
    first = detect_no_hgs(8, cache_dir=tmp_path)
    log = cache.reports_path(tmp_path, 8)
    good = log.read_bytes()
    lines = good.splitlines(keepends=True)
    log.write_bytes(_alter_line(lines, rb'"witnesses": \[.*\]', b'"witnesses": []'))
    calls = _count_analyses(monkeypatch)
    assert _row(detect_no_hgs(8, cache_dir=tmp_path, resume=True)) == _row(first) == (8, 148, 8)
    assert calls[0] == json.loads(lines[_first_witness_line(lines)])["entry_id"]
    assert log.read_bytes() == good


@pytest.mark.parametrize("pattern, repl", [
    (rb'"core_order": (\d+)', lambda m: b'"core_order": %d' % (2 * int(m[1]))),
    (rb'"scanned": \[\d+, ', b'"scanned": ['),
], ids=["altered-core-order", "altered-scanned"])
def test_resumed_witnesses_ignore_an_altered_log_line(tmp_path, capsys, pattern, repl):
    """A logged witness with one value altered fails its line's CRC: the
    resumed ``--emit-witnesses`` output is the fresh run's."""
    argv = ["no-hgs", "--degree", "8", "--emit-witnesses", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    log = cache.reports_path(tmp_path, 8)
    log.write_bytes(_alter_line(log.read_bytes().splitlines(keepends=True), pattern, repl))
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == fresh


def test_resume_restarts_a_stale_log(tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "ALGORITHM_VERSION", "0-stale")
    first = detect_no_hgs(6, cache_dir=tmp_path)
    monkeypatch.undo()
    calls = _count_analyses(monkeypatch)
    assert detect_no_hgs(6, cache_dir=tmp_path, resume=True) == first
    assert sorted(calls) == list(range(first.total_transitive_classes))
    header = json.loads(cache.reports_path(tmp_path, 6).read_text().splitlines()[0])
    assert cache.stamp_valid(header)


def test_resumed_witnesses_equal_fresh_ones(tmp_path):
    from hopfgalois.pipeline import analyze_degree

    catalogue, fresh = analyze_degree(8, cache_dir=tmp_path)
    _, resumed = analyze_degree(8, cache_dir=tmp_path, resume=True)
    assert resumed == fresh
    assert sum(map(len, fresh.values())) == 10
    rep = next(r for reps in resumed.values() for r in reps)
    assert rep.h_class.representative.is_subgroup_of(catalogue[rep.source_entry].group)


def test_emit_witnesses_fresh_and_resumed_agree(tmp_path, capsys, monkeypatch):
    argv = ["no-hgs", "--degree", "8", "--emit-witnesses", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    calls = _count_analyses(monkeypatch)
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == fresh
    assert calls == []
    summary, *witnesses = [json.loads(line) for line in fresh.splitlines()]
    assert summary["no_hgs_pairs"] == 10
    assert len(witnesses) == 10 and all(w["no_hgs"] for w in witnesses)
    assert len(cache.reports_path(tmp_path, 8).read_text().splitlines()) == 1 + 148


def test_hgs_types_c15():
    cat = build_catalogue(15)
    reg = next(e for e in cat if e.order == 15)
    types = hgs_types_admitted(reg.group, reg.stabilizer, cat)
    assert types == {"15.0"}


def test_find_extension_prime():
    assert find_extension_prime(27) == 29
    assert find_extension_prime(9) == 11
    assert find_extension_prime(3) == 5
    with pytest.raises(PreconditionError):
        find_extension_prime(8)
    with pytest.raises(PreconditionError):
        find_extension_prime(1)


def test_extension_requires_witness():
    cat = build_catalogue(5)
    entry = cat[0]
    reports = analyze_parallel(entry, cat)
    with pytest.raises(PreconditionError):
        extend_family(entry, reports[0], 7, cat)


class _FakeReport:
    """A no-HGS-shaped report for exercising the construction mechanics."""

    def __init__(self, entry, h_class, core_order, scanned):
        self.no_hgs = True
        self.source_entry = entry.entry_id
        self.h_class = h_class
        self.core_order = core_order
        self.scanned = scanned


def test_product_construction_mechanics():
    """The product with a cyclic factor has the advertised order, degree,
    stabilizer and core; checked on a small odd-degree entry by faking the
    no-HGS flag (degree 3 admits no real witness)."""
    from hopfgalois.pipeline import _product_with_cyclic
    from hopfgalois.subgroups import index_n_subgroup_classes

    cat = build_catalogue(3)
    entry = next(e for e in cat if e.order == 6)  # Sym(3) inside Hol(C3)
    h_cls = index_n_subgroup_classes(entry.group, 3)[0]
    rep = _FakeReport(entry, h_cls, 1, tuple(e.entry_id for e in cat))
    G2, stab2, H2 = _product_with_cyclic(entry, rep, 5)
    assert G2.degree == 15
    assert G2.order() == 30
    assert G2.is_transitive()
    assert G2.point_stabilizer(0) == stab2
    assert normal_core(G2, H2).order() == rep.core_order


def test_extend_family_rejects_bad_primes():
    cat = build_catalogue(3)
    entry = next(e for e in cat if e.order == 6)
    from hopfgalois.subgroups import index_n_subgroup_classes

    h_cls = index_n_subgroup_classes(entry.group, 3)[0]
    rep = _FakeReport(entry, h_cls, 1, tuple(e.entry_id for e in cat))
    with pytest.raises(PreconditionError) as err:
        extend_family(entry, rep, 7, cat)  # gcd(6, 3) != 1
    assert "gcd" in str(err.value)
    with pytest.raises(PreconditionError):
        extend_family(entry, rep, 2, cat)  # q < n and even
    with pytest.raises(PreconditionError):
        extend_family(entry, rep, 9, cat)  # not prime


def test_extend_family_mechanics_on_fake_witness():
    """A fabricated witness exercises the full transcript: the hypothesis and
    product checks pass, but the base-scan recheck exposes the fake (no true
    no-HGS witness exists at degree 3), leaving the certificate unverified."""
    cat = build_catalogue(3)
    entry = next(e for e in cat if e.order == 6)
    from hopfgalois.subgroups import index_n_subgroup_classes

    classes = index_n_subgroup_classes(entry.group, 3)
    rep = _FakeReport(entry, classes[0], 1, tuple(e.entry_id for e in cat))
    # q = 5: gcd(4, 3) = 1, 5 > 3, 5 divides no |Aut(Y)| for |Y| = 3
    cert = extend_family(entry, rep, 5, cat)
    assert not cert.verified
    failed = {name for name, _, ok in cert.checks if not ok}
    assert failed == {"base_no_match_recheck"}
    passed = {name for name, _, ok in cert.checks if ok}
    assert {"prime", "gcd", "q_exceeds_n", "product_order", "product_transitive",
            "product_stabilizer", "product_core"} <= passed
    assert cert.product_degree == 15 and cert.product_order == 30
    assert cert.aut_orders == (2 * 4,)  # |Aut(C3)| = 2 scaled by (q - 1)


def test_iterate_family_empty():
    cat = build_catalogue(3)
    entry = cat[0]
    assert iterate_family(entry, None, [], cat) == []


def test_chained_extension_arithmetic():
    """Later primes are checked against the accumulated degree and the
    automorphism orders scaled by (q - 1) at each step."""
    from hopfgalois.pipeline import ExtensionCertificate, _extend_arithmetic

    first = ExtensionCertificate(
        base_degree=27,
        base_entry=3,
        prime=29,
        product_degree=27 * 29,
        product_order=729 * 29,
        checks=(),
        verified=True,
        aut_orders=tuple(a * 28 for a in (18, 11232, 108, 432, 54)),
    )
    # 1571 is prime, gcd(1570, 783) = 1, 1571 > 783, and it divides none of
    # the scaled automorphism orders
    cert = _extend_arithmetic(first, 1571)
    assert cert.verified
    assert cert.product_degree == 27 * 29 * 1571
    assert cert.product_order == 729 * 29 * 1571
    assert cert.aut_orders == tuple(a * 28 * 1570 for a in (18, 11232, 108, 432, 54))
    # a prime failing gcd(q-1, m) = 1 is rejected: 787 is prime and
    # 786 = 2 * 3 * 131 shares the factor 3 with 783
    with pytest.raises(PreconditionError):
        _extend_arithmetic(first, 787)
    # too-small primes are rejected
    with pytest.raises(PreconditionError):
        _extend_arithmetic(first, 31)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_analyze_parallel_equals_same_order_scan(n):
    """Keyed lookup and the point map find the match the full same-order
    scan finds, and each match's witness replays; a no-HGS report still
    lists every same-order entry."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.subgroups import class_key_of
    from oracles import same_order_scan, witness_replays

    catalogue = build_catalogue(n)
    by_id = {e.entry_id: e for e in catalogue}
    for entry in catalogue:
        reports = analyze_parallel(entry, catalogue)
        expected = same_order_scan(entry, catalogue)
        stab_key = class_key_of(entry.group, entry.stabilizer)
        assert len(reports) == len(expected)
        for rep, (core, match_id, _, no_hgs, scanned) in zip(reports, expected):
            where = (n, entry.entry_id, rep.h_class.key)
            assert rep.core_order == core, where
            assert rep.no_hgs == no_hgs, where
            if no_hgs:
                assert rep.match is None and rep.scanned == scanned, where
                continue
            assert rep.match.entry_id == match_id, where
            if rep.h_class.key == stab_key:
                J, J_sub = entry.group, entry.stabilizer
            else:
                J, J_sub = permutation_pair_of_quotient(entry.group, rep.h_class.representative)
            cand = by_id[match_id]
            assert witness_replays(
                rep.match.witness.mapping, J, J_sub, cand.group, cand.stabilizer), where


def test_hgs_types_admitted_uses_the_quotient():
    """A pair with nontrivial core is answered through its quotient, and a
    pair given on other points than the catalogue's gets the same types."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient

    cat = build_catalogue(4)
    d4 = next(e for e in cat if e.order == 8)
    expected = hgs_types_admitted(d4.group, d4.stabilizer, cat)
    assert expected

    def lift(group):
        return [bytes(list(g) + [x + 4 for x in g]) for g in group.generators]

    # D4 acting on two copies of its points: trivial core, not a point stabilizer
    G = PermGroup(8, lift(d4.group))
    H = PermGroup(8, lift(d4.stabilizer))
    assert G.order() == 8 and permutation_pair_of_quotient(G, H)[0].order() == 8
    assert hgs_types_admitted(G, H, cat) == expected
    # D4 x C2, the central C2 swapping the copies inside the designated subgroup
    swap = bytes([4, 5, 6, 7, 0, 1, 2, 3])
    G = PermGroup(8, lift(d4.group) + [swap])
    H = PermGroup(8, lift(d4.stabilizer) + [swap])
    assert G.order() // permutation_pair_of_quotient(G, H)[0].order() == 2
    assert hgs_types_admitted(G, H, cat) == expected
    # a subgroup of Sym(4) fixing 0 of the stabilizer's order, but not in
    # D4, is refused even when no catalogue entry is left to test against
    outside = PermGroup(4, [bytes([0, 2, 1, 3])])
    with pytest.raises(PreconditionError):
        hgs_types_admitted(d4.group, outside, [e for e in cat if e.order != 8])


def _report_fields(rep):
    match = rep.match
    return (
        rep.h_class.key,
        None if match is None else match.entry_id,
        None if match is None else match.witness.mapping,
        rep.scanned,
        rep.core_order,
        rep.no_hgs,
    )


@pytest.mark.parametrize("n", [6, 8, 12])
def test_shared_match_table_changes_no_report(n):
    """The reports analyze_degree hands to ``progress``, whose entries share
    one CatalogueIndex, equal those of analyze_parallel per entry, and each
    quotient's match equals one made from scratch, by a fresh index."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.pipeline import CatalogueIndex, analyze_degree
    from hopfgalois.subgroups import class_key_of

    seen = {}
    catalogue, _ = analyze_degree(n, progress=lambda e, reps: seen.setdefault(e.entry_id, reps))
    assert sorted(seen) == [e.entry_id for e in catalogue]
    for entry in catalogue:
        shared = seen[entry.entry_id]
        alone = analyze_parallel(entry, catalogue)
        assert [_report_fields(r) for r in shared] == [_report_fields(r) for r in alone]
        stab_key = class_key_of(entry.group, entry.stabilizer)
        for rep in shared:
            if rep.h_class.key == stab_key:
                continue
            J, J_sub = permutation_pair_of_quotient(entry.group, rep.h_class.representative)
            match, scanned = CatalogueIndex(catalogue).match(J, J_sub)
            assert rep.scanned == scanned
            assert rep.match == match


def test_degree_run_pair_tests_each_quotient_once(monkeypatch):
    """One detect_no_hgs(8) pair-tests no quotient group against one
    catalogue entry twice, although 456 of its 635 quotients repeat."""
    from collections import Counter

    tests = Counter()
    real = pipeline.pair_isomorphic

    def counted(G, G_sub, M, M_sub, **kwargs):
        tests[G.elements(), M.generators] += 1
        return real(G, G_sub, M, M_sub, **kwargs)

    monkeypatch.setattr(pipeline, "pair_isomorphic", counted)
    assert _row(detect_no_hgs(8)) == (8, 148, 8)
    assert tests
    assert sum(c - 1 for c in tests.values()) == 0


def test_hgs_types_admitted_searches_no_witness(monkeypatch):
    """On (transitive group, Stab(0)) inputs the point map alone decides
    each candidate: no left-regular search runs, and the types are those
    that pair_isomorphic's witnesses give."""
    import hopfgalois.isomorphism as iso

    catalogue = build_catalogue(8)
    pairs = [(e.group, e.stabilizer) for e in catalogue[::7]]
    pairs += [
        iso.permutation_pair_of_quotient(e.group, c.representative)
        for e in catalogue[::29]
        for c in pipeline.index_n_subgroup_classes(e.group, 8)
    ]
    expected = [
        {c.type_label for c in catalogue
         if c.order == G.order() and iso.pair_isomorphic(G, G_sub, c.group, c.stabilizer)}
        for G, G_sub in pairs
    ]

    def no_search(*args, **kwargs):
        raise AssertionError("homsearch.isomorphisms was called")

    monkeypatch.setattr(iso, "isomorphisms", no_search)
    assert [hgs_types_admitted(G, G_sub, catalogue) for G, G_sub in pairs] == expected


def test_degree_rows_need_no_generator_image_search(monkeypatch):
    """Every match at degrees 8 and 12 is certified by its point map: the
    rows come out the same with the left-regular search disabled."""
    import hopfgalois.isomorphism as iso
    from hopfgalois.pipeline import analyze_degree, degree_summary

    def no_search(*args, **kwargs):
        raise AssertionError("homsearch.isomorphisms was called")

    monkeypatch.setattr(iso, "isomorphisms", no_search)
    assert _row(detect_no_hgs(8)) == (8, 148, 8)
    assert _row(degree_summary(12, *analyze_degree(12))) == (12, 134, 23)
