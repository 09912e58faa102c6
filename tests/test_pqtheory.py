import hashlib
import json

import pytest

from hopfgalois.errors import PreconditionError
from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import holomorph
from hopfgalois.pqtheory import (
    cyclic_type_transitive_subgroups,
    metacyclic_type_transitive_subgroups,
    pq_parameters,
    predicted_counts,
    verify_pq,
)
from hopfgalois.subgroups import transitive_subgroup_classes


def test_parameters():
    p = pq_parameters(7, 3)
    assert (p.e0, p.s, p.k, p.n) == (1, 2, 2, 21)
    assert not p.burnside
    b = pq_parameters(5, 3)
    assert b.burnside and b.e0 == 0
    p133 = pq_parameters(13, 3)
    assert (p133.e0, p133.s) == (1, 4)
    with pytest.raises(PreconditionError):
        pq_parameters(3, 3)
    with pytest.raises(PreconditionError):
        pq_parameters(3, 7)
    with pytest.raises(PreconditionError):
        pq_parameters(7, 2)


def test_cyclic_families_cover_enumeration():
    params = pq_parameters(7, 3)
    built, collisions = cyclic_type_transitive_subgroups(params)
    N = groups_of_order(21).groups[0]
    hol = holomorph(N)
    generic = transitive_subgroup_classes(hol)
    assert len(built) == len(generic)
    built_keys = {key for _, _, _, key in built}
    generic_keys = {c.key for c in generic}
    assert built_keys == generic_keys
    # the N x| X family has one member per subgroup of Aut(N)
    nxx = [b for b in built if b[1] == "NxX"]
    assert len(nxx) == 10  # subgroups of C6 x C2
    for G, tag, info, key in built:
        assert G.is_transitive()


def test_metacyclic_families_cover_p2_entries():
    params = pq_parameters(7, 3)
    built, collisions = metacyclic_type_transitive_subgroups(params)
    assert not collisions
    N = groups_of_order(21).groups[1]
    hol = holomorph(N)
    generic = transitive_subgroup_classes(hol)
    p2 = {c.key for c in generic if c.order % 49 == 0}
    assert {key for _, _, _, key in built} == p2
    orders = sorted(G.order() for G, _, _, _ in built)
    # p^2 q^(1+c) d for family 1, p^2 q^c d for family 2
    assert orders == [147, 147, 147, 294, 294, 294, 441, 882]


def test_family_orders_at_11_5():
    params = pq_parameters(11, 5)
    assert (params.e0, params.s) == (1, 2)
    built, _ = metacyclic_type_transitive_subgroups(params)
    for G, tag, info, key in built:
        if tag == "P:TAB":
            assert G.order() == 121 * 5 ** (1 + info["c"]) * info["d"]
        else:
            assert G.order() == 121 * 5 ** info["c"] * info["d"]


def test_predicted_counts_examples():
    params = pq_parameters(7, 3)
    assert predicted_counts("NxX", params, {"q2_divides": False}).triple() == (1, 1, 1)
    assert predicted_counts("JtcY", params, {}).triple() == (1, 1, 1)
    assert predicted_counts("P:TAB", params, {"c": 1, "d": 1}).triple() == (10, 5, 2)
    assert predicted_counts("P:TAB", params, {"c": 0, "d": 1}).triple() == (4, 3, 1)
    tau_noncentral = {"q2_divides": True, "c": 1, "tau_central": False}
    assert predicted_counts("NxX", params, tau_noncentral).triple() == (2, 2, 2)
    assert predicted_counts("P:TA_B", params, {"c": 1, "d": 2, "u": 1}).triple() == (4, 2, 1)
    assert predicted_counts("P:TA_B", params, {"c": 1, "d": 2, "u": 2}).triple() == (4, 3, 1)
    params133 = pq_parameters(13, 3)
    assert predicted_counts("P:TAB", params133, {"c": 1, "d": 1}).triple()[0] == 4 + 6 + 2
    with pytest.raises(PreconditionError):
        predicted_counts("bogus", params, {})


def test_verify_pq_burnside():
    report = verify_pq(5, 3)
    assert report.ok
    assert all(row["predicted"] == row["computed"] for row in report.entries)
    # single type, so every pair admits exactly the cyclic type
    assert all(row["family"] in ("NxX", "JtcY") for row in report.entries)


def test_verify_pq_7_3_structure():
    report = verify_pq(7, 3)
    # conjugacy-class counts always match the closed forms
    assert all(row["predicted"][0] == row["computed"][0] for row in report.entries)
    # the generic enumeration is covered by the constructions
    assert not [c for c in report.checks if c[0] == "families_cover_enumeration" and not c[1]]
    assert not [c for c in report.checks if c[0] == "unmatched_entries_are_small_metacyclic" and not c[1]]
    # no parallel pair fails, and source types propagate
    assert not [c for c in report.checks if c[0] == "parallel_pair_matches" and not c[1]]
    assert not [c for c in report.checks if c[0] == "source_types_propagate" and not c[1]]
    assert not [c for c in report.checks if c[0] == "same_closure_types_equal" and not c[1]]
    # every closed-form triple, orbit and iso columns included, matches
    assert not [c for c in report.checks if c[0] == "counts_match" and not c[1]]
    assert report.ok


# SHA-256 of json.dumps(verify_pq(11, 5).to_json(), sort_keys=True), as
# test_tooling pins it for (7, 3).
VERIFY_PQ_11_5_DIGEST = "b31ed6fc1a549cf9f95e4496d49b5b272d1fec20f7952faedb4e96de2aa54ed3"


def test_verify_pq_11_5_is_pinned():
    """verify_pq(11, 5), which classifies the index-55 subgroups of every
    degree-55 catalogue entry, holds and reports byte for byte the pinned
    checks and rows."""
    report = verify_pq(11, 5)
    assert report.ok
    payload = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == VERIFY_PQ_11_5_DIGEST


def test_parallel_pairs_admit_the_types_of_their_match():
    """verify_pq part (d) takes a parallel pair's types from the entry it
    matched; the oracle is the pair's own quotient scanned against the
    catalogue, for every report of every degree-21 entry."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.pipeline import (
        CatalogueIndex,
        analyze_parallel,
        build_catalogue,
        hgs_types_admitted,
    )

    catalogue = build_catalogue(21)
    by_id = {e.entry_id: e for e in catalogue}
    index = CatalogueIndex(catalogue)
    reports = 0
    for e in catalogue:
        for rep in analyze_parallel(e, catalogue, index=index):
            M = by_id[rep.match.entry_id]
            expected = hgs_types_admitted(M.group, M.stabilizer, catalogue)
            J, J_sub = permutation_pair_of_quotient(e.group, rep.h_class.representative)
            assert hgs_types_admitted(J, J_sub, catalogue) == expected
            reports += 1
    assert reports > len(catalogue)
