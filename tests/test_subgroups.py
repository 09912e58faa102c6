import sys

import pytest

from hopfgalois.engine import GroupView, view_of
from hopfgalois.errors import PreconditionError, ResourceLimitError
from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import holomorph
from hopfgalois.permgroup import PermGroup, group_from_elements
from hopfgalois.perms import parse_perm
from hopfgalois.subgroups import (
    all_subgroup_classes,
    class_key_of,
    classify_index_n,
    index_n_subgroup_classes,
    _conjugacy_orbit,
    _Lattice,
    _sweep_pairs,
    transitive_subgroup_classes,
)

from oracles import (
    brute_subgroup_classes,
    centralizer_sweep_pairs,
    classify_index_n_pairwise,
    extension_run,
    perfect_subgroups,
)


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
        index_n_subgroup_classes(s5, 5, max_order=100)


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
    def residual_size(G):
        view = view_of(G)
        return len(view.perfect_residual(frozenset(range(view.size))))

    assert residual_size(S3()) == 1
    assert residual_size(PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])) == 60


def _hol_c2_cubed():
    return next(h for h in map(holomorph, groups_of_order(8).groups) if h.group.order() == 1344).group


def _hol_residual(N):
    """The perfect residual of Hol(N), as a group of its own."""
    G = holomorph(N).group
    view = view_of(G)
    R = view.perfect_residual(frozenset(range(view.size)))
    return group_from_elements(G.degree, [view.elements[i] for i in R])


PERFECT_SEEDING_CASES = [
    ("Sym(5)", lambda: PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])),
    # PSL(2,7) on the projective line over F_7 (point 7 is infinity): the
    # nonsolvable order-168 entry of the degree-8 catalogue
    ("PSL(2,7)", lambda: PermGroup(8, [parse_perm("(0 1 2 3 4 5 6)", 8),
                                       parse_perm("(0 7)(1 6)(2 3)(4 5)")])),
    ("Hol(C2^3)", _hol_c2_cubed),
    # the perfect group the degree-24 catalogue lattice of Hol(C2^3 x C3)
    # seeds from: AGL(3,2) of order 1344 on 24 points, in three orbits
    ("Hol(C2^3xC3)^(oo)", lambda: _hol_residual(groups_of_order(24).groups[0])),
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
    if name == "Hol(C2^3xC3)^(oo)":
        assert (G.order(), G.degree) == (1344, 24) and not G.is_transitive()
    lat = _Lattice(G)
    lat.seed()
    seeded = {rec["key"] for rec in lat.classes if rec["order"] > 1}
    view = view_of(G)
    maps = view.generator_conjugation_maps()
    expected = {_conjugacy_orbit(maps, P)[1] for P in perfect_subgroups(view)}
    assert expected and seeded == expected


def _pair_closure_keys(view, pairs):
    """The conjugacy keys of the closures <x, y>, None for one past half
    the group.  Half is a bound that keeps the test cheap on groups that
    need not be perfect; the sweep itself cuts at a fifth of its view."""
    maps = view.generator_conjugation_maps()
    keys = {}
    for x, y in pairs:
        S = view.closure([x, y], maxsize=view.size // 2)
        if S not in keys:
            keys[S] = None if S is None else _conjugacy_orbit(maps, S)[1]
    return set(keys.values())


PAIR_CASES = [
    (f"Hol({N.label})", lambda N=N: holomorph(N).group)
    for n in range(4, 13)
    for N in groups_of_order(n).groups
] + PERFECT_SEEDING_CASES


@pytest.mark.parametrize("name,make", PAIR_CASES, ids=[name for name, _ in PAIR_CASES])
def test_sweep_pairs_close_the_oracle_pairs_classes(name, make):
    """The pairs of cyclic subgroups up to conjugacy close to the same
    classes of subgroups as the pairs of class representatives and
    centralizer orbits, kept as oracles.centralizer_sweep_pairs."""
    view = view_of(make())
    assert _pair_closure_keys(view, _sweep_pairs(view)) == _pair_closure_keys(
        view, centralizer_sweep_pairs(view)
    )


def test_sweep_pairs_on_hol_c2_cubed():
    view = view_of(_hol_c2_cubed())
    assert len(list(_sweep_pairs(view))) == 360
    assert len(list(centralizer_sweep_pairs(view))) == 938


def _count_sweep_closures(monkeypatch):
    """A list that gains an entry (view size, maxsize) for each
    GroupView.closure call made directly by the perfect-subgroup sweep."""
    calls = []
    closure = GroupView.closure

    def counted(self, seed, maxsize=None):
        if sys._getframe(1).f_code.co_name == "_perfect_subgroups":
            calls.append((self.size, maxsize))
        return closure(self, seed, maxsize)

    monkeypatch.setattr(GroupView, "closure", counted)
    return calls


@pytest.mark.parametrize("name,make", PERFECT_SEEDING_CASES)
def test_sweep_cuts_closures_at_a_fifth(name, make, monkeypatch):
    """The perfect-subgroup sweep closes each pair of ``_sweep_pairs`` on
    its view once and nothing else, and cuts every closure off at a fifth
    of that view."""
    G = make()
    calls = _count_sweep_closures(monkeypatch)
    _Lattice(G).seed()
    (size,) = {size for size, _ in calls}
    view = view_of(G)
    if size != view.size:  # the sweep ran on a view of G^(oo)
        view = GroupView.from_perm_elements(
            [view.elements[i] for i in view.perfect_residual(frozenset(range(view.size)))],
            view.elements[view.identity],
        )
    assert len(calls) == len(list(_sweep_pairs(view)))
    assert all(maxsize is not None and maxsize <= size // 5 for size, maxsize in calls)


def test_perfect_groups_have_no_subgroup_of_index_at_most_4():
    """The fact the sweep's cut rests on, on PSL(2,7), A6 and Hol(C2^3),
    which is its own perfect residual."""
    psl = dict(PERFECT_SEEDING_CASES)["PSL(2,7)"]()
    a6 = PermGroup(6, [parse_perm("(0 1 2)", 6), parse_perm("(1 2 3 4 5)")])
    assert a6.order() == 360
    for G in (psl, a6, _hol_c2_cubed()):
        view = view_of(G)
        assert len(view.perfect_residual(frozenset(range(view.size)))) == view.size
        *proper, whole = all_subgroup_classes(G)
        assert whole.order == G.order()
        assert all(G.order() // c.order >= 5 for c in proper)


def _described(classes):
    return [(c.order, c.class_size, c.key, c.representative.generators) for c in classes]


def _old_loop_classes(G, order_divides=None):
    lat = _Lattice(G, order_divides)
    extension_run(lat)
    return lat.result()


@pytest.mark.parametrize("n", range(4, 13))
def test_extension_loop_matches_old_loop_on_holomorphs(n):
    """The lattice and its transitive classes give the same orders, class
    sizes, keys and generators as the extension loop that scanned every
    element and formed cosets with mul, kept as oracles.extension_run."""
    for N in groups_of_order(n).groups:
        hol = holomorph(N)
        old = _old_loop_classes(hol.group)
        assert _described(all_subgroup_classes(hol.group)) == _described(old)
        old_transitive = [
            c for c in old if c.order % n == 0 and c.representative.is_transitive()
        ]
        assert _described(transitive_subgroup_classes(hol)) == _described(old_transitive)


def test_extension_loop_matches_old_loop_on_degree_8_index_n():
    """The index-8 lattice of every degree-8 catalogue entry, against the
    old extension loop."""
    entries = [
        c.representative
        for N in groups_of_order(8).groups
        for c in transitive_subgroup_classes(holomorph(N))
    ]
    assert len(entries) == 148
    for G in entries:
        target = G.order() // 8
        old = [c for c in _old_loop_classes(G, target) if c.order == target]
        assert old and _described(index_n_subgroup_classes(G, 8)) == _described(old)


def test_extension_loop_matches_old_loop_at_degree_55():
    """Views without Cayley rows: the two degree-55 holomorphs (orders 2200
    and 6050, over CAYLEY_LIMIT), and the index-55 lattices of catalogue
    entries 52 and 53 (orders 3025 and 6050), against the old loop."""
    from hopfgalois.pipeline import build_catalogue

    for N in groups_of_order(55).groups:
        hol = holomorph(N)
        assert view_of(hol.group)._rows is None
        old = _old_loop_classes(hol.group)
        assert _described(all_subgroup_classes(hol.group)) == _described(old)
        old_transitive = [
            c for c in old if c.order % 55 == 0 and c.representative.is_transitive()
        ]
        assert _described(transitive_subgroup_classes(hol)) == _described(old_transitive)
    entries = {e.entry_id: e.group for e in build_catalogue(55)}
    for entry_id in (52, 53):
        G = entries[entry_id]
        assert view_of(G)._rows is None
        target = G.order() // 55
        old = [c for c in _old_loop_classes(G, target) if c.order == target]
        assert old and _described(index_n_subgroup_classes(G, 55)) == _described(old)


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


# -- Aut(G)-orbits by point maps against the pairwise oracle ------------------


@pytest.mark.parametrize(
    "gens,n",
    [
        (["(0 1 2 3)"], 4),  # C4
        (["(0 1 2 3)", "(0 2)"], 2),  # D4: the outer automorphism moves Stab(0)'s class
        (["(0 1 2)", "(0 1)"], 2),  # S3
        (["(0 1 2)", "(0 1)"], 3),
        (["(0 1)", "(2 3 4)", "(2 3)"], 2),  # C2 x S3 on 2 + 3 points: (3, 2, 2)
        # C2^5 on 5 x 2 points: Aut(G) = GL(5, 2), with 9,999,360 elements
        (["(0 1)", "(2 3)", "(4 5)", "(6 7)", "(8 9)"], 2),
    ],
)
def test_classify_index_n_equals_pairwise_oracle_small(gens, n):
    G = PermGroup(max(max(parse_perm(g)) for g in gens) + 1, [parse_perm(g) for g in gens])
    assert classify_index_n(G, n) == classify_index_n_pairwise(G, n)


@pytest.mark.parametrize("degree,skip", [(21, ()), (39, (49, 53, 54))])
def test_classify_index_n_equals_pairwise_oracle_at_pq(degree, skip):
    """Every catalogue entry at degrees 21 and 39; entries 49, 53 and 54 at
    degree 39 take 9 to 29 s each under the oracle and are left out."""
    from hopfgalois.pipeline import build_catalogue

    for e in build_catalogue(degree):
        if e.entry_id in skip:
            continue
        assert classify_index_n(e.group, degree) == classify_index_n_pairwise(e.group, degree), e.entry_id


def test_classify_index_n_makes_no_pair_test_of_g_against_itself(monkeypatch):
    """At degree 21, no pair_isomorphic call and no left-regular search
    with G on either side."""
    import hopfgalois.homsearch as homsearch
    import hopfgalois.isomorphism as iso
    from hopfgalois.pipeline import build_catalogue

    pair_calls, searches = [], []
    search = homsearch.isomorphisms

    def recording_search(A, B, **kwargs):
        searches.append((A, B))
        return search(A, B, **kwargs)

    monkeypatch.setattr(iso, "pair_isomorphic", lambda *args, **kw: pair_calls.append(args))
    monkeypatch.setattr(iso, "isomorphisms", recording_search)
    monkeypatch.setattr(homsearch, "isomorphisms", recording_search)
    for e in build_catalogue(21):
        searches.clear()
        classify_index_n(e.group, 21)
        G = view_of(e.group)
        assert not any(A is G or B is G for A, B in searches), e.entry_id
    assert not pair_calls


def test_class_key_requires_containment():
    a4 = PermGroup(4, [parse_perm("(0 1 2)"), parse_perm("(0 1)(2 3)")])
    with pytest.raises(PreconditionError):
        class_key_of(a4, PermGroup(4, [parse_perm("(0 1)")]))


@pytest.mark.parametrize("n", [8, 12])
def test_index_n_classes_equal_filtered_full_lattice(n):
    """index_n_subgroup_classes, which seeds perfect subgroups only up to
    its target order (and none when that order forces solvability), gives
    the classes of that order in the whole lattice of each catalogue entry."""
    from hopfgalois.pipeline import build_catalogue

    for entry in build_catalogue(n):
        target = entry.order // n
        full = [c for c in all_subgroup_classes(entry.group) if c.order == target]
        assert _described(index_n_subgroup_classes(entry.group, n)) == _described(full), (
            n, entry.entry_id)


@pytest.mark.parametrize("n", [*range(4, 13), 21, 55])
def test_stored_index_n_classes_equal_the_lattice(tmp_path, n):
    """The Hol(N) entry of each type, built fresh or read back from its
    file, gets its index-n classes off the catalogue lattice's records;
    they equal the lattice run on a copy of its group that carries none,
    and the ``max_order`` guard still applies.  Every entry read back has
    the orders that a copy proves by its chain."""
    from hopfgalois.pipeline import build_catalogue

    fresh = build_catalogue(n, cache_dir=tmp_path)
    back = build_catalogue(n, cache_dir=tmp_path)
    for catalogue in (fresh, back):
        hol = [e for e in catalogue if e.group._index_classes is not None]
        last = {e.type_label: e for e in catalogue}
        assert hol == list(last.values())
        for entry in hol:
            plain = PermGroup(n, entry.group.generators)
            assert _described(index_n_subgroup_classes(entry.group, n)) == _described(
                index_n_subgroup_classes(plain, n)), (n, entry.entry_id)
            with pytest.raises(ResourceLimitError):
                index_n_subgroup_classes(entry.group, n, max_order=entry.order - 1)
    for entry in back:
        assert entry.group.order() == PermGroup(n, entry.group.generators).order()
        assert entry.stabilizer.order() == PermGroup(n, entry.stabilizer.generators).order()
