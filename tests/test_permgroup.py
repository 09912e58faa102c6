import pytest

from hopfgalois.engine import GroupView
from hopfgalois.errors import PreconditionError
from hopfgalois.permgroup import (
    PermGroup,
    _build_chain,
    _chain_order,
    are_conjugate_subgroups,
    coset_action,
    group_from_elements,
    group_order,
    is_transitive,
    normal_core,
    point_stabilizer,
)
from hopfgalois.perms import compose, identity, inverse, is_identity, make_perm, parse_perm

from oracles import (
    brute_core,
    brute_normalizer,
    brute_order,
    brute_orbit,
    brute_stabilizer,
    chain_elements,
    mulclose,
    point_stabilizer_generators,
)


def S3():
    return PermGroup(3, [parse_perm("(0 1 2)"), parse_perm("(0 1)")])


def D4():
    return PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])


def hol_c5():
    return PermGroup(5, [parse_perm("(0 1 2 3 4)"), make_perm([(2 * i) % 5 for i in range(5)])])


CORPUS = [
    ("trivial", PermGroup(1, [])),
    ("C4", PermGroup(4, [parse_perm("(0 1 2 3)")])),
    ("V4", PermGroup(4, [parse_perm("(0 1)(2 3)"), parse_perm("(0 2)(1 3)")])),
    ("S3", S3()),
    ("D4", D4()),
    ("Hol(C5)", hol_c5()),
    ("S4", PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 1)")])),
    ("A4", PermGroup(4, [parse_perm("(0 1 2)"), parse_perm("(0 1)(2 3)")])),
    ("C6", PermGroup(6, [parse_perm("(0 1 2 3 4 5)")])),
    ("S5", PermGroup(5, [parse_perm("(0 1 2 3 4)"), parse_perm("(0 1)")])),
]


@pytest.mark.parametrize("name,G", CORPUS)
def test_order_matches_brute_closure(name, G):
    assert G.order() == brute_order(G)


@pytest.mark.parametrize("name,G", CORPUS)
def test_membership_matches_brute(name, G):
    els = mulclose(G.generators, G.degree)
    for p in sorted(els):
        assert p in G
    assert len(G.elements()) == len(els)
    assert set(G.elements()) == els


def test_group_order_examples():
    assert group_order(S3()) == 6
    assert group_order(PermGroup(3, [])) == 1
    assert group_order(hol_c5()) == 20


def test_is_transitive_examples():
    assert is_transitive(S3())
    assert not is_transitive(PermGroup(3, [parse_perm("(0 1)")]))
    assert is_transitive(PermGroup(4, [parse_perm("(0 1)(2 3)"), parse_perm("(0 2)(1 3)")]))


@pytest.mark.parametrize("name,G", CORPUS)
def test_orbit_stabilizer(name, G):
    for p in range(G.degree):
        orbit = G.orbit(p)
        stab = G.point_stabilizer(p)
        assert set(orbit) == brute_orbit(G, p)
        assert G.order() == len(orbit) * stab.order()
        assert set(stab.elements()) == brute_stabilizer(G, p)


def test_point_stabilizer_examples():
    assert point_stabilizer(S3(), 0).order() == 2
    assert point_stabilizer(PermGroup(4, [parse_perm("(0 1 2 3)")]), 0).order() == 1
    assert point_stabilizer(hol_c5(), 0).order() == 4


def test_normal_core_examples():
    s3 = S3()
    a3 = PermGroup(3, [parse_perm("(0 1 2)")])
    assert normal_core(s3, a3) == a3
    assert normal_core(s3, PermGroup(3, [parse_perm("(0 1)")])).is_trivial()
    # faithful transitive action: core of a point stabilizer is trivial
    assert normal_core(s3, s3.point_stabilizer(0)).is_trivial()


@pytest.mark.parametrize("name,G", [c for c in CORPUS if c[1].order() <= 120])
def test_core_characterization(name, G):
    from hopfgalois.subgroups import all_subgroup_classes

    classes = all_subgroup_classes(G)
    for cls in classes:
        H = cls.representative
        core = normal_core(G, H)
        assert set(core.elements()) == brute_core(G, H)
        # normal in G, contained in H
        assert core.is_subgroup_of(H)
        for g in G.generators:
            gi = inverse(g)
            assert all(compose(g, compose(x, gi)) in core for x in core.generators)


def test_coset_action_s3():
    s3 = S3()
    h = PermGroup(3, [parse_perm("(0 1)")])
    res = coset_action(s3, h)
    assert res.image.degree == 3
    assert res.image.order() == 6
    assert res.kernel.is_trivial()
    # stabilizer of the identity coset is the image of H
    img_h = res.image_of_element(parse_perm("(0 1)", 3))
    assert img_h[0] == 0


def test_coset_action_d4_center():
    d4 = D4()
    center = PermGroup(4, [parse_perm("(0 2)(1 3)")])
    res = coset_action(d4, center)
    assert res.image.degree == 4
    assert res.image.order() == 4
    assert set(res.kernel.elements()) == set(center.elements())


def test_coset_action_whole_group():
    s3 = S3()
    res = coset_action(s3, s3)
    assert res.image.degree == 1
    assert res.image.order() == 1
    assert res.kernel == s3


def test_coset_action_regular_reconstruction():
    # for transitive G, acting on cosets of Stab(0) looks like the original action
    for name, G in CORPUS:
        if not G.is_transitive() or G.degree < 2:
            continue
        res = coset_action(G, G.point_stabilizer(0))
        assert res.image.degree == G.degree
        assert res.image.order() == G.order()
        assert res.kernel.is_trivial()


@pytest.mark.parametrize("n", [8, 12])
def test_coset_action_matches_compose_oracle(n):
    """On every index-n class of every degree-n catalogue entry: the same
    coset representatives and coset numbering, generator images and kernel
    as the action composed through perms.compose."""
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import index_n_subgroup_classes
    from oracles import compose_coset_action

    for entry in build_catalogue(n):
        G = entry.group
        for cls in index_n_subgroup_classes(G, n):
            H = cls.representative
            res = coset_action(G, H)
            reps, coset_of, image_gens, kernel_els = compose_coset_action(G, H)
            assert res._reps == reps
            assert list(res._coset_of.items()) == list(coset_of.items())
            assert [res.image_of_element(g) for g in G.generators] == image_gens
            assert res.image == PermGroup(len(reps), image_gens)
            assert set(res.kernel.elements()) == set(kernel_els)


def test_coset_action_requires_subgroup():
    with pytest.raises(PreconditionError):
        coset_action(PermGroup(4, [parse_perm("(0 1 2 3)")]), PermGroup(4, [parse_perm("(0 1)")]))


def test_conjugate_subgroups():
    s3 = S3()
    h1 = PermGroup(3, [parse_perm("(0 1)")])
    h2 = PermGroup(3, [parse_perm("(1 2)")])
    ok, w = are_conjugate_subgroups(s3, h1, h1)
    assert ok
    ok, w = are_conjugate_subgroups(s3, h1, h2)
    assert ok
    assert h1.conjugate(w) == h2
    a3 = PermGroup(3, [parse_perm("(0 1 2)")])
    ok, w = are_conjugate_subgroups(s3, h1, a3)
    assert not ok and w is None


def test_normalizer_index_is_class_size():
    from hopfgalois.subgroups import all_subgroup_classes

    for name, G in CORPUS:
        if G.order() > 60:
            continue
        for cls in all_subgroup_classes(G):
            norm = brute_normalizer(G, cls.representative)
            assert cls.class_size * len(norm) == G.order()


def test_serialization_roundtrip():
    g = hol_c5()
    obj = g.to_json()
    assert obj["degree"] == 5
    back = PermGroup.from_json(obj)
    assert back == g
    # cycle strings accepted on input
    obj["generators"] = ["(0 1 2 3 4)", [0, 2, 4, 1, 3]]
    assert PermGroup.from_json(obj) == g


def test_immutability_and_eq():
    g = S3()
    h = PermGroup(3, [parse_perm("(0 1)"), parse_perm("(0 1 2)")])
    assert g == h
    assert hash(g) == hash(h)
    assert g.generators == h.generators  # normalized sorted generators


def test_group_from_elements_trivial_builds_no_view(monkeypatch):
    def no_view(*args):
        raise AssertionError("a view was built for the trivial group")

    monkeypatch.setattr(GroupView, "from_perm_elements", no_view)
    for els in ([], [identity(6)]):
        T = group_from_elements(6, els)
        assert T.order() == 1 and T.degree == 6 and T.generators == ()


def test_group_from_elements_reproduces_element_sets():
    """group_from_elements on the element set of a subgroup gives exactly
    that subgroup, also when the identity is left out of the input: the
    coset-action kernels of the index-8 classes of every degree-8 entry,
    and Aut(N) for every N of order at most 12."""
    from hopfgalois.groups import groups_of_order
    from hopfgalois.holomorph import automorphism_group
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import index_n_subgroup_classes

    cases = []
    for e in build_catalogue(8):
        for c in index_n_subgroup_classes(e.group, 8):
            act = coset_action(e.group, c.representative)
            kernel = [
                h for h in c.representative.elements() if is_identity(act.image_of_element(h))
            ]
            cases.append((8, kernel))
    for n in range(1, 13):
        for N in groups_of_order(n).groups:
            cases.append((n, automorphism_group(N).group.elements()))
    without_identity = 0
    for degree, els in cases:
        one = identity(degree)
        want = set(els) | {one}
        assert set(group_from_elements(degree, els).elements()) == want
        rest = [x for x in els if x != one]
        without_identity += bool(rest)
        assert set(group_from_elements(degree, rest).elements()) == want
    assert len(cases) > 800 and without_identity > 450


# -- chains stopped at a proved order against the full run ------------------


def _chain_corpus(n):
    """Every degree-n catalogue entry, its Stab(0), its index-n class
    representatives with the kernels of their coset actions, and the
    quotient pairs (J, J') that analyze_parallel builds from them: each
    constructor that is given an order."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import class_key_of, index_n_subgroup_classes

    out = []
    for entry in build_catalogue(n):
        out += [entry.group, entry.stabilizer]
        stab_key = class_key_of(entry.group, entry.stabilizer)
        for cls in index_n_subgroup_classes(entry.group, n):
            out += [cls.representative, coset_action(entry.group, cls.representative).kernel]
            if cls.key != stab_key:
                out += permutation_pair_of_quotient(entry.group, cls.representative)
    return out


def _dihedral_on_tuples(p):
    """The dihedral group of order 2p on p > 256 points, whose elements are
    tuples rather than bytes."""
    return PermGroup(p, [
        make_perm([(i + 1) % p for i in range(p)]),
        make_perm([-i % p for i in range(p)]),
    ])


def _count_chains_by_caller(monkeypatch):
    """Per ``_build_chain`` call from now on, its generators and the names
    of the functions on the stack."""
    import sys

    from hopfgalois import permgroup

    calls = []
    build_chain = permgroup._build_chain

    def counted(*args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append((args[1], names))
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(permgroup, "_build_chain", counted)
    return calls


def test_quotients_and_lattice_results_build_no_chain(monkeypatch):
    """Quotient pairs are given J's order as |G| / |core| and that of J'
    as |G| / (|core| [G:H]), and lattice results their orders from the
    greedy generators' closures: over the degree-8 catalogue, neither runs
    Schreier-Sims once the entry's order is known."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import index_n_subgroup_classes

    groups = [PermGroup(8, e.group.generators) for e in build_catalogue(8)]
    for G in groups:
        G.order()
    calls = _count_chains_by_caller(monkeypatch)
    classes = [index_n_subgroup_classes(G, 8) for G in groups]
    assert len(calls) == 0
    pairs = [
        permutation_pair_of_quotient(G, c.representative)
        for G, cs in zip(groups, classes)
        for c in cs
    ]
    assert len(calls) == 0
    assert len(pairs) == sum(map(len, classes)) > len(groups)


@pytest.mark.parametrize("n", [8, 12])
def test_degree_runs_build_chains_only_where_an_output_needs_one(tmp_path, monkeypatch, n):
    """A fresh run builds one chain per catalogue entry, the prefixed one
    that gives its Stab(0), and one per holomorph, for its order check; no
    pair test or core builds one.  A run on the cached catalogue builds
    none: entries read back from their files carry the orders proved when
    the files were written."""
    from hopfgalois.groups import groups_of_order
    from hopfgalois.pipeline import build_catalogue, detect_no_hgs

    calls = _count_chains_by_caller(monkeypatch)
    detect_no_hgs(n, cache_dir=tmp_path)
    catalogue = build_catalogue(n, cache_dir=tmp_path)
    prefixed = [c for c in calls if "_build_chain_prefixed" in c[1]]
    assert not any({"pair_isomorphic", "normal_core"} & names for _, names in calls)
    assert len(prefixed) == len(catalogue)
    assert all("point_stabilizer" in names for _, names in prefixed)
    hol = [c for c in calls if "holomorph" in c[1]]
    assert len(hol) == len(groups_of_order(n).groups)
    assert len(calls) == len(prefixed) + len(hol)
    calls.clear()
    detect_no_hgs(n, cache_dir=tmp_path)
    assert calls == []


def test_class_moves_build_no_stabilizer_chain(monkeypatch):
    """classify_index_n tells the class of Stab_G(0) by a fixed point of
    its representative, so over verify_pq(7, 3) no chain is built under
    ``_class_moves``."""
    from hopfgalois.pqtheory import verify_pq

    calls = _count_chains_by_caller(monkeypatch)
    verify_pq(7, 3)
    assert calls
    assert [names for _, names in calls if "_class_moves" in names] == []


def test_classify_index_n_builds_no_stabilizer_chain(monkeypatch):
    """classify_index_n reads S = Stab_G(0) off G's elements and its
    automorphisms off point maps, so over verify_pq(7, 3) it builds no chain,
    and the whole run builds at most 52."""
    from hopfgalois.pqtheory import verify_pq

    calls = _count_chains_by_caller(monkeypatch)
    verify_pq(7, 3)
    assert [names for _, names in calls if "classify_index_n" in names] == []
    assert 0 < len(calls) <= 52


def _shape(levels):
    return [(lvl.base, lvl.gens) for lvl in levels]


@pytest.mark.parametrize("n", [*range(4, 13), 55, "tuples"])
def test_chain_stopped_at_order_matches_full_run(n):
    """Each group has the order of its full chain, so every order the
    pipeline gives a constructor is true, and the elements closed from its
    generators are the chain's, whose count is that order, on a fresh copy
    too.  A chain stopped at the true order, or run with twice it as
    bound, has the full run's base points and level generators; the group
    given the true order has its elements and its members; the stabilizers
    of its least and greatest moved points have the full prefixed chain's
    generators."""
    for X in [_dihedral_on_tuples(257)] if n == "tuples" else _chain_corpus(n):
        d, gens = X.degree, X.generators
        full = _build_chain(d, gens)
        order = _chain_order(full)
        assert X.order() == order
        want = chain_elements(X)
        assert X.elements() == want
        fresh = PermGroup(d, gens)
        assert fresh.elements() == want and fresh.order() == order
        assert _shape(_build_chain(d, gens, order=order)) == _shape(full)
        assert _shape(_build_chain(d, gens, order=2 * order)) == _shape(full)
        unbounded = PermGroup(d, gens)
        probes = [compose(g, make_perm([1, 0] + list(range(2, d)))) for g in gens]
        given = PermGroup(d, gens, order)
        assert given.order() == order
        assert given.elements() == unbounded.elements()
        assert [x in given for x in probes] == [x in unbounded for x in probes]
        moved = [p for p in range(d) if any(g[p] != p for g in gens)]
        for p in {moved[0], moved[-1]} if moved else ():
            assert X.point_stabilizer(p).generators == point_stabilizer_generators(X, p)
