"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Every criterion is expected to pass except the opt-in stretch degrees.
The closed-form count tables are checked column by column against the
machine (the corrected orbit/isomorphism forms are derived in
``pqtheory.predicted_counts``), and the squarefree core shortcut is checked
in its true form, Core_G(H) meet Q = Core_G(H meet Q); the literal identity
Core_G(H) = Core_G(H meet Q) is refuted by the certified counterexample in
tests/test_properties.py.
"""

import os

import pytest

from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import hall_pi_subgroup, holomorph
from hopfgalois.isomorphism import pair_isomorphic
from hopfgalois.permgroup import PermGroup, group_from_elements, normal_core
from hopfgalois.perms import parse_perm
from hopfgalois.pipeline import (
    analyze_parallel,
    build_catalogue,
    detect_no_hgs,
    find_extension_prime,
    hgs_types_admitted,
)
from hopfgalois.pqtheory import verify_pq
from hopfgalois.subgroups import (
    all_subgroup_classes,
    index_n_subgroup_classes,
    transitive_subgroup_classes,
)

STRETCH = os.environ.get("HOPFGALOIS_STRETCH") == "1"


def report(line, ok=True):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {line}")
    return ok


# -- shared degree-8 analysis ------------------------------------------------


@pytest.fixture(scope="module")
def degree8():
    catalogue = build_catalogue(8)
    reports = {e.entry_id: analyze_parallel(e, catalogue) for e in catalogue}
    return catalogue, reports


@pytest.fixture(scope="module")
def degree8_summary(degree8):
    catalogue, reports = degree8
    no_hgs_entries = sum(
        1 for e in catalogue if any(r.no_hgs for r in reports[e.entry_id])
    )
    return len(catalogue), no_hgs_entries


def test_criterion_1_degree8_table_row(degree8_summary):
    """Degree 8: exactly 148 transitive classes, exactly 8 with the parallel
    no-HGS property."""
    total, no_hgs = degree8_summary
    assert report(f"criterion 1: degree 8 -> ({total}, {no_hgs}), expected (148, 8)",
                  (total, no_hgs) == (148, 8))


def test_criterion_2_degree12_table_row():
    summary = detect_no_hgs(12)
    got = (summary.total_transitive_classes, summary.no_hgs_entries)
    assert report(f"criterion 2: degree 12 -> {got}, expected (134, 23)", got == (134, 23))


# -- criterion 3: the degree-8 witness replay --------------------------------

HOL_PRINTED = [
    "(0 4 1 5)(2 6 3 7)",
    "(0 2)(1 3)(4 6)(5 7)",
    "(0 1)(2 3)(4 5)(6 7)",
    "(4 6)(5 7)",
    "(2 3)(6 7)",
    "(4 5)(6 7)",
]
N_PRINTED = ["(0 4 1 5)(2 6 3 7)", "(0 2)(1 3)(4 6)(5 7)"]
G_PRINTED = [
    "(0 4 3 7)(1 5 2 6)",
    "(0 4 1 5)(2 7 3 6)",
    "(0 2)(1 3)(4 6)(5 7)",
    "(0 1)(2 3)(4 5)(6 7)",
    "(4 5)(6 7)",
]
G_PRIME_PRINTED = ["(4 5)(6 7)", "(2 3)(4 6 5 7)"]
H_PRINTED = ["(4 5)(6 7)", "(0 2)(1 3)(4 7)(5 6)"]


def test_criterion_3_degree8_witness_replay(degree8):
    catalogue, reports = degree8
    hol = PermGroup(8, [parse_perm(s, 8) for s in HOL_PRINTED])
    n_grp = PermGroup(8, [parse_perm(s, 8) for s in N_PRINTED])
    G = PermGroup(8, [parse_perm(s, 8) for s in G_PRINTED])
    g_prime = PermGroup(8, [parse_perm(s, 8) for s in G_PRIME_PRINTED])
    H = PermGroup(8, [parse_perm(s, 8) for s in H_PRINTED])

    # the printed groups have the advertised shape
    assert n_grp.order() == 8 and n_grp.is_transitive()
    assert n_grp.point_stabilizer(0).is_trivial()
    from hopfgalois.perms import perm_order

    assert sorted(perm_order(x) for x in n_grp.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]
    assert hol.order() == 64
    assert n_grp.is_subgroup_of(hol)
    assert G.is_subgroup_of(hol)
    assert G.order() == 32 and G.is_transitive()
    stab = G.point_stabilizer(0)
    assert stab.order() == 4
    from hopfgalois.permgroup import are_conjugate_subgroups

    same, _ = are_conjugate_subgroups(G, stab, g_prime)
    assert same
    assert H.is_subgroup_of(G)
    assert H.order() == 4 and G.order() // H.order() == 8
    assert normal_core(G, H).is_trivial()
    # no pair match across the whole degree-8 catalogue
    misses = sum(
        1
        for e in catalogue
        if pair_isomorphic(G, H, e.group, e.stabilizer) is None
    )
    assert report(
        f"criterion 3: the printed degree-8 witness pair matches 0 of {len(catalogue)} entries "
        f"(stabilizer order 4, |core(H)| = 1)",
        misses == len(catalogue),
    )
    # the original pair does admit its own type; the parallel pair admits none
    types_source = hgs_types_admitted(G, stab, catalogue)
    types_h = hgs_types_admitted(G, H, catalogue)
    assert types_h == set()
    c2c4_label = next(
        N.label for N in groups_of_order(8).groups if N.tag == "C4xC2"
    )
    assert c2c4_label in types_source
    # every no-HGS witness subgroup found at degree 8 has trivial core
    witness_cores = [
        r.core_order
        for e in catalogue
        for r in reports[e.entry_id]
        if r.no_hgs
    ]
    assert report(
        f"criterion 3: all {len(witness_cores)} degree-8 no-HGS witnesses have trivial core",
        witness_cores and all(c == 1 for c in witness_cores),
    )


# -- criterion 4: pq degrees admit everything --------------------------------


@pytest.mark.parametrize("n", [21, 39, 55])
def test_criterion_4_pq_degrees(n):
    catalogue = build_catalogue(n)
    reports = {e.entry_id: analyze_parallel(e, catalogue) for e in catalogue}
    no_hgs = [
        e.entry_id for e in catalogue if any(r.no_hgs for r in reports[e.entry_id])
    ]
    assert report(f"criterion 4: degree {n} no-HGS entries = {len(no_hgs)} of {len(catalogue)}",
                  not no_hgs)
    # admitted-type sets: all pairs in one pair-isomorphism class share a
    # type set, so the matched entry's set is the report's set
    types_by_entry = {
        e.entry_id: frozenset(hgs_types_admitted(e.group, e.stabilizer, catalogue))
        for e in catalogue
    }
    containment_ok = True
    closure_ok = True
    for e in catalogue:
        source = types_by_entry[e.entry_id]
        for r in reports[e.entry_id]:
            assert r.match is not None
            target = types_by_entry[r.match.entry_id]
            if not source <= target:
                containment_ok = False
            if r.core_order == 1 and target != source:
                closure_ok = False
    assert report(f"criterion 4: degree {n} source types propagate to every parallel pair",
                  containment_ok)
    assert report(f"criterion 4: degree {n} same-closure parallels admit identical type sets",
                  closure_ok)


def test_criterion_5_burnside_degree_15():
    n = 15
    catalogue = build_catalogue(n)
    reports = {e.entry_id: analyze_parallel(e, catalogue) for e in catalogue}
    cyclic_label = groups_of_order(15).groups[0].label
    ok = True
    for e in catalogue:
        types = hgs_types_admitted(e.group, e.stabilizer, catalogue)
        if types != {cyclic_label}:
            ok = False
        for r in reports[e.entry_id]:
            if r.match is None:
                ok = False
    assert report(
        f"criterion 5: degree 15 -> every catalogue pair admits exactly the cyclic type "
        f"({len(catalogue)} entries)",
        ok,
    )


# -- criterion 6: closed-form counts ------------------------------------------


@pytest.fixture(scope="module")
def pq_verifications():
    return {(7, 3): verify_pq(7, 3), (13, 3): verify_pq(13, 3)}


def test_criterion_6_conjugacy_columns(pq_verifications):
    """The conjugacy-class column of the closed forms matches the machine on
    every entry at (7,3) and (13,3)."""
    ok = True
    for (p, q), rep in pq_verifications.items():
        bad = [r for r in rep.entries if r["predicted"][0] != r["computed"][0]]
        ok &= report(
            f"criterion 6: ({p},{q}) conjugacy-class counts match on all "
            f"{len(rep.entries)} entries ({len(bad)} mismatches)",
            not bad,
        )
        structural = [
            c for c in rep.checks
            if c[0] in ("families_cover_enumeration",
                        "unmatched_entries_are_small_metacyclic",
                        "small_metacyclic_pairs_with_cyclic")
            and not c[1]
        ]
        ok &= report(
            f"criterion 6: ({p},{q}) constructed families biject with the enumeration",
            not structural,
        )
    assert ok


def test_criterion_6_full_predicted_triples(pq_verifications):
    """Full (conjugacy, orbit, iso) triples against the closed-form tables
    on every entry at (7,3) and (13,3).

    The machine's orbit and isomorphism counts carry exhaustively verified
    certificates, and independent brute force confirms the cells the old
    closed forms got wrong (tests/test_properties.py); the closed forms
    must agree with the machine.
    """
    mismatches = []
    for (p, q), rep in pq_verifications.items():
        for row in rep.entries:
            if row["predicted"] != row["computed"]:
                mismatches.append(((p, q), row["entry_id"], row["family"],
                                   row["predicted"], row["computed"]))
    for m in mismatches:
        report(f"criterion 6: {m[0]} entry {m[1]} ({m[2]}): predicted {m[3]}, computed {m[4]}", False)
    assert report(
        f"criterion 6: all predicted triples match ({len(mismatches)} mismatches)",
        not mismatches,
    )


# -- criterion 7: property suites ---------------------------------------------


def test_criterion_7_hall_and_splitting():
    from test_properties import (
        test_hall_decomposition_exhaustive,
        test_index_n_subgroups_split,
    )

    for n in (15, 21):
        test_hall_decomposition_exhaustive(n)
        test_index_n_subgroups_split(n)
    assert report("criterion 7: Hall decomposition and index-n splitting exhaustive at 15, 21", True)


def test_criterion_7_core_shortcut_literal():
    """The core shortcut at degrees 15 and 21, exhaustively.

    With Q the Hall pi-subgroup of the holomorph (normal, pi the primes of
    n), two identities hold for every index-n subgroup H of a transitive G:

    * Core_G(H) meet Q = Core_G(H meet Q): the left side is normal in G
      and lies in H meet Q, and the right side lies in both Core_G(H) and Q;
    * Core_G(H) is trivial exactly when Core_G(H meet Q) is: if
      Core_G(H) meets Q trivially its order is prime to n, so it
      centralizes the transitive normal subgroup G meet Q, is therefore
      semiregular, and has order dividing n, hence is trivial.

    The literal Core_G(H) = Core_G(H meet Q) is false at degree 21 (a
    normal Sym(3) inside C21 x| C6, see
    test_properties.test_core_shortcut_degree_21_counterexample).
    """
    bad = []
    checked = 0
    for n in (15, 21):
        for N in groups_of_order(n).groups:
            hol = holomorph(N)
            Q = hall_pi_subgroup(hol)
            for cls in transitive_subgroup_classes(hol):
                G = cls.representative
                for hcls in index_n_subgroup_classes(G, n):
                    H = hcls.representative
                    hu = group_from_elements(
                        G.degree, [x for x in H.elements() if x in Q]
                    )
                    core = normal_core(G, H)
                    core_u = group_from_elements(
                        G.degree, [x for x in core.elements() if x in Q]
                    )
                    short = normal_core(G, hu)
                    checked += 1
                    if core_u != short or core.is_trivial() != short.is_trivial():
                        bad.append((n, N.label, G.order(), H.order()))
    assert report(
        f"criterion 7: core shortcut exhaustive at 15, 21 over {checked} subgroups "
        f"({len(bad)} counterexamples)",
        not bad,
    )


def test_criterion_7_subgroup_oracle():
    """Lattice vs brute force for the corpus groups of order <= 100."""
    from oracles import brute_subgroup_classes
    from test_subgroups import ORACLE_CORPUS

    checked = 0
    for name, G in ORACLE_CORPUS:
        if G.order() > 100:
            continue
        fast = all_subgroup_classes(G)
        brute = brute_subgroup_classes(G)
        assert len(fast) == len(brute), name
        checked += 1
    assert report(f"criterion 7: subgroup-enumeration oracle equivalence on {checked} groups", True)


def test_criterion_7_pair_soundness_and_orbit_stabilizer():
    from test_properties import (
        test_pair_iso_reflexive_symmetric,
        test_pair_iso_soundness_on_catalogue,
    )
    from test_permgroup import CORPUS

    test_pair_iso_soundness_on_catalogue()
    test_pair_iso_reflexive_symmetric()
    for name, G in CORPUS:
        for p in range(G.degree):
            assert G.order() == len(G.orbit(p)) * G.point_stabilizer(p).order()
    assert report("criterion 7: pair-isomorphism soundness and orbit-stabilizer checks", True)


# -- criterion 8: stretch -------------------------------------------------------


@pytest.mark.skipif(not STRETCH, reason="degree 24 takes minutes and 600 MB; needs HOPFGALOIS_STRETCH=1")
def test_criterion_8_stretch_degree_24(tmp_path):
    summary = detect_no_hgs(24, cache_dir=tmp_path, resume=True, max_order=10**6)
    got = (summary.total_transitive_classes, summary.no_hgs_entries)
    assert report(f"criterion 8: degree 24 -> {got}, expected (4752, 396)", got == (4752, 396))


@pytest.mark.skipif(not STRETCH, reason="degree 27 is not reachable yet; needs HOPFGALOIS_STRETCH=1")
def test_criterion_8_stretch_degree_27(tmp_path):
    from hopfgalois.pipeline import analyze_degree, iterate_family

    catalogue, witnesses = analyze_degree(27, cache_dir=tmp_path, resume=True, max_order=10**6)
    no_hgs = [e for e in catalogue if witnesses[e.entry_id]]
    got = (len(catalogue), len(no_hgs))
    assert report(f"criterion 8: degree 27 -> {got}, expected (739, 163)", got == (739, 163))
    entry = no_hgs[0]
    witness = witnesses[entry.entry_id][0]
    q = find_extension_prime(27)
    assert q == 29
    certs = iterate_family(entry, witness, [q], catalogue)
    assert report(f"criterion 8: degree-27 witness extended by q=29, verified={certs[0].verified}",
                  certs[0].verified)


@pytest.mark.skipif(not STRETCH, reason="stretch checks need HOPFGALOIS_STRETCH=1")
def test_criterion_8_stretch_verify_pq_19_3():
    """verify_pq(19, 3) passes every check.  Its order-19494 entry has
    quotient pairs past the 10,000 bound on Cayley views; their matches are
    certified by point maps, which need no view."""
    rep = verify_pq(19, 3)
    failures = rep.failures()
    assert report(f"criterion 8: verify_pq(19, 3) ok={rep.ok}, {len(failures)} failures",
                  rep.ok and not failures)
