import pytest

from hopfgalois.engine import view_of
from hopfgalois.errors import PreconditionError, ResourceLimitError
from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import holomorph
from hopfgalois.permgroup import PermGroup
from hopfgalois.perms import parse_perm
from hopfgalois.subgroups import (
    all_subgroup_classes,
    class_key_of,
    classify_index_n,
    index_n_subgroup_classes,
    is_solvable,
    _conjugacy_orbit,
    _Lattice,
    transitive_subgroup_classes,
)

from oracles import brute_subgroup_classes, perfect_subgroups


def S3():
    return PermGroup(3, [parse_perm("(0 1 2)"), parse_perm("(0 1)")])


ORACLE_CORPUS = [
    ("S3", S3()),
    ("C4", PermGroup(4, [parse_perm("(0 1 2 3)")])),
    ("V4", PermGroup(4, [parse_perm("(0 1)(2 3)"), parse_perm("(0 2)(1 3)")])),
    ("D4", PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])),
    ("A4", PermGroup(4, [parse_perm("(0 1 2)"), parse_perm("(0 1)(2 3)")])),
    ("S4", PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 1)")])),
    ("C6", PermGroup(6, [parse_perm("(0 1 2 3 4 5)")])),
    ("D6", PermGroup(6, [parse_perm("(0 1 2 3 4 5)"), parse_perm("(1 5)(2 4)")])),
    ("C2xC4", PermGroup(6, [parse_perm("(0 1)"), parse_perm("(2 3 4 5)")])),
    ("S5", PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])),
    ("C3xC3", PermGroup(6, [parse_perm("(0 1 2)"), parse_perm("(3 4 5)")])),
    ("Hol(C5)", PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(1 2 4 3)")])),
    ("C2xA4", PermGroup(7, [parse_perm("(0 1)"), parse_perm("(2 3 4)"), parse_perm("(2 3)(4 5)")])),
]


@pytest.mark.parametrize("name,G", ORACLE_CORPUS)
def test_lattice_matches_bruteforce(name, G):
    """Full oracle equivalence: same classes, same conjugates, same sizes."""
    fast = all_subgroup_classes(G)
    brute = brute_subgroup_classes(G)
    assert len(fast) == len(brute)
    brute_by_rep = {}
    for orbit in brute:
        for S in orbit:
            brute_by_rep[S] = orbit
    covered = set()
    for cls in fast:
        S = frozenset(cls.representative.elements())
        assert S in brute_by_rep, f"{name}: representative not found by brute force"
        orbit = brute_by_rep[S]
        assert cls.class_size == len(orbit)
        assert cls.order == len(S)
        covered.add(min(tuple(sorted(T)) for T in orbit))
    assert len(covered) == len(brute)


def test_spec_examples():
    assert len(all_subgroup_classes(S3())) == 4
    assert len(all_subgroup_classes(PermGroup(4, [parse_perm("(0 1 2 3)")]))) == 3
    d4 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    assert len(all_subgroup_classes(d4)) == 8


def test_representatives_deterministic():
    g1 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    g2 = PermGroup(4, [parse_perm("(0 2)"), parse_perm("(0 1 2 3)")])
    keys1 = [c.key for c in all_subgroup_classes(g1)]
    keys2 = [c.key for c in all_subgroup_classes(g2)]
    assert keys1 == keys2


def test_resource_bound():
    s5 = PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])
    with pytest.raises(ResourceLimitError):
        all_subgroup_classes(s5, max_order=100)


def test_index_n_subgroup_classes():
    hol5 = PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(1 2 4 3)")])
    classes = index_n_subgroup_classes(hol5, 5)
    assert all(c.order == 4 for c in classes)
    stab_key = class_key_of(hol5, hol5.point_stabilizer(0))
    assert any(c.key == stab_key for c in classes)
    with pytest.raises(PreconditionError):
        index_n_subgroup_classes(hol5, 3)


def test_transitive_subgroup_classes_hol_c4():
    c4 = groups_of_order(4).groups[1]
    h = holomorph(c4)
    classes = transitive_subgroup_classes(h)
    # Hol(C4) is the order-8 dihedral group on 4 points: C4, the regular
    # Klein four group, and the whole group are the transitive classes
    assert len(classes) == 3
    assert sorted(c.order for c in classes) == [4, 4, 8]


def test_transitive_subgroup_classes_hol_c2():
    h = holomorph(groups_of_order(2).groups[0])
    assert len(transitive_subgroup_classes(h)) == 1


def test_solvability():
    assert is_solvable(S3())
    assert not is_solvable(PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")]))


def _hol_c2_cubed():
    return next(
        h.group for h in map(holomorph, groups_of_order(8).groups) if h.group.order() == 1344
    )


PERFECT_SEEDING_CASES = [
    ("Sym(5)", lambda: PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])),
    # PSL(2,7) on the projective line over F_7 (point 7 is infinity): the
    # nonsolvable order-168 entry of the degree-8 catalogue
    ("PSL(2,7)", lambda: PermGroup(8, [parse_perm("(0 1 2 3 4 5 6)", 8),
                                       parse_perm("(0 7)(1 6)(2 3)(4 5)")])),
    ("Hol(C2^3)", _hol_c2_cubed),
    # G^(oo) is proper in the last two, so the sweep runs on a view of its
    # own; A6 has two classes of A5, which Sym(6) does not fuse
    ("Sym(5)xSym(3)", lambda: PermGroup(8, [parse_perm("(0 1 2 3 4)", 8), parse_perm("(0 1)", 8),
                                            parse_perm("(5 6 7)"), parse_perm("(5 6)", 8)])),
    ("Sym(6)", lambda: PermGroup(6, [parse_perm("(0 1 2 3 4 5)"), parse_perm("(0 1)", 6)])),
]


@pytest.mark.parametrize("name,make", PERFECT_SEEDING_CASES)
def test_perfect_seeding_matches_old_sweep(name, make):
    """The lattice seeds the same classes of nontrivial perfect subgroups
    as the sweep over every class representative and centralizer orbit of
    the whole group, kept as oracles.perfect_subgroups."""
    G = make()
    if name == "PSL(2,7)":
        assert G.order() == 168 and G.is_transitive()
    lat = _Lattice(G)
    lat.seed()
    seeded = {rec["key"] for rec in lat.classes if rec["order"] > 1}
    view = view_of(G)
    maps = view.generator_conjugation_maps()
    expected = {_conjugacy_orbit(maps, P)[1] for P in perfect_subgroups(view)}
    assert expected and seeded == expected


def test_classify_cyclic_regular():
    c4 = PermGroup(4, [parse_perm("(0 1 2 3)")])
    rep = classify_index_n(c4, 4)
    assert rep.triple() == (1, 1, 1)


def test_classify_refinement_chain():
    d4 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    rep = classify_index_n(d4, 2)
    assert rep.conjugacy_classes >= rep.aut_orbits >= rep.iso_classes
    # D4 has three index-2 subgroups: C4 and two V4s; the V4s merge under
    # the outer automorphism swapping reflection types
    assert rep.triple() == (3, 2, 2)


def test_classify_s3():
    rep = classify_index_n(S3(), 3)
    assert rep.triple() == (1, 1, 1)
    rep = classify_index_n(S3(), 2)
    assert rep.triple() == (1, 1, 1)


def test_class_key_requires_containment():
    a4 = PermGroup(4, [parse_perm("(0 1 2)"), parse_perm("(0 1)(2 3)")])
    with pytest.raises(PreconditionError):
        class_key_of(a4, PermGroup(4, [parse_perm("(0 1)")]))
