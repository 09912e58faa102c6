"""Structural invariants for squarefree degrees, checked exhaustively.

At degrees 15 and 21 every transitive subgroup of every holomorph is
decomposed as U x| V with U the intersection with the unique Hall subgroup
for the primes of n; every index-n subgroup splits the same way with a
complement conjugate to V, and its core meets the Hall subgroup in the core
of its Hall part (the full core can be larger: see the degree-21
counterexample below).

The degree-21 closed-form counts are also pinned here against independent
brute force, as evidence for the corrected forms in
``pqtheory.predicted_counts``.
"""

import math

import pytest

from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import hall_decomposition, hall_pi_subgroup, holomorph
from hopfgalois.isomorphism import find_isomorphism, pair_isomorphic
from hopfgalois.permgroup import are_conjugate_subgroups, group_from_elements, normal_core
from hopfgalois.perms import compose, inverse, perm_order
from hopfgalois.pipeline import build_catalogue
from hopfgalois.subgroups import (
    classify_index_n,
    index_n_subgroup_classes,
    transitive_subgroup_classes,
)
from oracles import brute_pair_isomorphisms


def _pi_radical(n):
    out = 1
    for p in range(2, n + 1):
        if n % p == 0:
            out *= p
    return out


@pytest.mark.parametrize("n", [15, 21, 33, 35])
def test_hall_decomposition_exhaustive(n):
    rad = _pi_radical(n)
    for N in groups_of_order(n).groups:
        hol = holomorph(N)
        Q = hall_pi_subgroup(hol)
        for cls in transitive_subgroup_classes(hol):
            G = cls.representative
            U, V = hall_decomposition(hol, G)
            # U = G meet Q
            assert set(U.elements()) == {x for x in G.elements() if x in Q}
            # orders multiply and are coprime
            assert U.order() * V.order() == G.order()
            assert math.gcd(U.order(), V.order()) == 1
            assert U.order() % 1 == 0 and all(
                math.gcd(perm_order(x), rad) == 1 for x in V.elements()
            )
            # U normal in G
            for g in G.generators:
                gi = inverse(g)
                assert all(compose(g, compose(x, gi)) in U for x in U.generators)
            # intersection trivial
            assert sum(1 for x in V.elements() if x in U) == 1


@pytest.mark.parametrize("n", [15, 21])
def test_index_n_subgroups_split(n):
    """Every index-n subgroup is U' x| V' with V' conjugate to V in G."""
    for N in groups_of_order(n).groups:
        hol = holomorph(N)
        Q = hall_pi_subgroup(hol)
        for cls in transitive_subgroup_classes(hol):
            G = cls.representative
            U, V = hall_decomposition(hol, G)
            for hcls in index_n_subgroup_classes(G, n):
                H = hcls.representative
                u_els = [x for x in H.elements() if x in Q]
                assert len(u_els) * V.order() == H.order()
                assert len(u_els) == U.order() // n
                Uh, Vh = hall_decomposition(hol, H)
                assert set(Uh.elements()) == set(u_els)
                if V.order() > 1:
                    ok, _ = are_conjugate_subgroups(G, Vh, V)
                    assert ok
                else:
                    assert Vh.is_trivial()


def test_core_shortcut_degree_15():
    """Core_G(H) = Core_G(H meet U) for index-15 subgroups of transitive G."""
    for N in groups_of_order(15).groups:
        hol = holomorph(N)
        Q = hall_pi_subgroup(hol)
        for cls in transitive_subgroup_classes(hol):
            G = cls.representative
            for hcls in index_n_subgroup_classes(G, 15):
                H = hcls.representative
                hu = group_from_elements(G.degree, [x for x in H.elements() if x in Q])
                assert normal_core(G, H) == normal_core(G, hu)


def test_core_shortcut_degree_21_counterexample():
    """At degree 21 the core shortcut fails for exactly one shape of
    subgroup: G = C21 x| C6 (with the order-2 part inverting the order-3
    translation) has a normal index-21 subgroup H isomorphic to Sym(3), so
    Core_G(H) = H of order 6 while Core_G(H meet U) is its C3.  In every
    other case the shortcut holds; where it fails the core still contains
    the shortcut core, and the failing H is normal with nonabelian core."""
    failures = []
    for N in groups_of_order(21).groups:
        hol = holomorph(N)
        Q = hall_pi_subgroup(hol)
        for cls in transitive_subgroup_classes(hol):
            G = cls.representative
            for hcls in index_n_subgroup_classes(G, 21):
                H = hcls.representative
                hu = group_from_elements(G.degree, [x for x in H.elements() if x in Q])
                c_full = normal_core(G, H)
                c_short = normal_core(G, hu)
                if c_full == c_short:
                    continue
                # the shortcut core is always contained in the true core
                assert c_short.is_subgroup_of(c_full)
                failures.append((N.label, G.order(), H.order(), c_full.order(), c_short.order()))
                # the counterexample shape: the true core is a normal Sym(3)
                from hopfgalois.perms import perm_order

                assert c_full.is_subgroup_of(H)
                assert sorted(perm_order(x) for x in c_full.elements()) == [1, 2, 2, 2, 3, 3]
    assert len(failures) == 2
    assert all(cf == 6 and cs == 3 for _, _, _, cf, cs in failures)


@pytest.fixture(scope="module")
def catalogue21():
    return {e.entry_id: e for e in build_catalogue(21)}


def test_degree_21_orbit_partition_matches_brute_force(catalogue21):
    """Entry 29 of the degree-21 catalogue (P x| <T>, order 147): exhaustive
    search over generator images splits its 4 index-21 classes into exactly
    the 3 Aut(G)-orbits classify_index_n reports, so the two axes of P are
    not swapped when the scalar part is absent."""
    G = catalogue21[29].group
    assert G.order() == 147
    reps = [c.representative for c in index_n_subgroup_classes(G, 21)]
    report = classify_index_n(G, 21)
    assert report.triple() == (4, 3, 1)
    machine = {}
    for d in report.details:
        machine.setdefault(d["aut_orbit"], set()).add(d["class_index"])
    brute = {}
    for i, H in enumerate(reps):
        j = next(
            j for j in range(i + 1)
            if brute_pair_isomorphisms(G, H, G, reps[j])
        )
        brute.setdefault(j, set()).add(i)
    assert sorted(map(sorted, brute.values())) == sorted(map(sorted, machine.values()))


@pytest.mark.parametrize(
    "entry_id,order,shapes",
    [
        # Sym(3) and C6
        (8, 126, [[1, 2, 2, 2, 3, 3], [1, 2, 3, 3, 6, 6]]),
        # D6 and C2 x C6
        (11, 252, [[1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6], [1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6]]),
    ],
)
def test_degree_21_tau_noncentral_iso_classes(catalogue21, entry_id, order, shapes):
    """In C21 x| X with the order-3 translation not central, the two
    index-21 classes have different element orders, so they are not
    isomorphic and the isomorphism count is 2."""
    G = catalogue21[entry_id].group
    assert G.order() == order
    got = sorted(
        sorted(perm_order(x) for x in c.representative.elements())
        for c in index_n_subgroup_classes(G, 21)
    )
    assert got == shapes
    assert classify_index_n(G, 21).triple() == (2, 2, 2)


def test_pair_iso_soundness_on_catalogue():
    """Every witness returned over the degree-15 catalogue replays cleanly."""
    cat = build_catalogue(15)
    for a in cat:
        for b in cat:
            if a.order != b.order:
                continue
            w = pair_isomorphic(a.group, a.stabilizer, b.group, b.stabilizer)
            if w is None:
                continue
            pairs = dict(w.mapping)
            for g1, i1 in pairs.items():
                for g2, i2 in pairs.items():
                    assert compose(i1, i2) in b.group
                    assert compose(g1, g2) in a.group


def test_pair_iso_reflexive_symmetric():
    cat = build_catalogue(15)
    for e in cat[:4]:
        assert pair_isomorphic(e.group, e.stabilizer, e.group, e.stabilizer)
    for a in cat:
        for b in cat:
            fwd = pair_isomorphic(a.group, a.stabilizer, b.group, b.stabilizer)
            bwd = pair_isomorphic(b.group, b.stabilizer, a.group, a.stabilizer)
            assert (fwd is None) == (bwd is None)


@pytest.mark.parametrize("p,q", [(7, 3)])
def test_abstract_iso_equals_pair_iso_at_degree_pq(p, q):
    """Two degree-pq catalogue entries are pair-isomorphic exactly when the
    groups are abstractly isomorphic (the larger (13,3) and (11,5) runs live
    in the acceptance suite)."""
    cat = build_catalogue(p * q)
    for i, a in enumerate(cat):
        for b in cat[i + 1 :]:
            if a.order != b.order:
                continue
            abstract = find_isomorphism(a.group, b.group) is not None
            paired = (
                pair_isomorphic(a.group, a.stabilizer, b.group, b.stabilizer)
                is not None
            )
            assert abstract == paired, (a.entry_id, b.entry_id)
