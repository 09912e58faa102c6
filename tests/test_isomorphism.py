import pytest

from hopfgalois.groups import groups_of_order, regular_representation
from hopfgalois.isomorphism import (
    find_isomorphism,
    is_point_stabilizer_pair,
    pair_isomorphic,
    permutation_pair_of_quotient,
    point_map,
)
from hopfgalois.engine import view_of
from hopfgalois.errors import PreconditionError, ResourceLimitError
from hopfgalois.permgroup import PermGroup
from hopfgalois.perms import compose, inverse, make_perm, parse_perm

from oracles import brute_pair_isomorphisms, cycle_type_pair_search


def S3():
    return PermGroup(3, [parse_perm("(0 1 2)"), parse_perm("(0 1)")])


def test_identity_case():
    s3 = S3()
    w = find_isomorphism(s3, s3)
    assert w is not None


def test_order_histogram_rejects():
    c4 = PermGroup(4, [parse_perm("(0 1 2 3)")])
    v4 = PermGroup(4, [parse_perm("(0 1)(2 3)"), parse_perm("(0 2)(1 3)")])
    assert find_isomorphism(c4, v4) is None


def test_metacyclic_21_copies():
    m = groups_of_order(21).groups[1]
    reg = regular_representation(m)
    w = make_perm([(5 * i + 2) % 21 for i in range(21)])
    other = reg.conjugate(w)
    assert find_isomorphism(reg, other) is not None


def _witness_is_sound(wit, G, M):
    """Re-derive the full map from the generator images and check it."""
    pairs = dict(wit.mapping)
    els = set(G.elements())
    from hopfgalois.perms import identity

    full = {identity(G.degree): identity(M.degree)}
    frontier = list(full)
    while frontier:
        new = []
        for x in frontier:
            for g, img in pairs.items():
                y = compose(g, x)
                if y not in full:
                    full[y] = compose(img, full[x])
                    new.append(y)
        frontier = new
    if len(full) != len(els):
        return False
    if len(set(full.values())) != len(els):
        return False
    return all(
        full[compose(a, b)] == compose(full[a], full[b]) for a in els for b in els
    )


def test_witness_soundness():
    m = groups_of_order(21).groups[1]
    reg = regular_representation(m)
    other = reg.conjugate(make_perm([(2 * i + 7) % 21 for i in range(21)]))
    wit = find_isomorphism(reg, other)
    assert _witness_is_sound(wit, reg, other)


def test_pair_reflexive():
    s3 = S3()
    stab = s3.point_stabilizer(0)
    w = pair_isomorphic(s3, stab, s3, stab)
    assert w is not None


def test_pair_order_mismatch():
    s3 = S3()
    a3 = PermGroup(3, [parse_perm("(0 1 2)")])
    h = PermGroup(3, [parse_perm("(0 1)")])
    assert pair_isomorphic(s3, a3, s3, h) is None


def test_pair_rejects_non_transportable():
    d4 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    c4 = PermGroup(4, [parse_perm("(0 1 2 3)")])
    v4 = PermGroup(4, [parse_perm("(0 2)(1 3)"), parse_perm("(0 1)(2 3)")])
    assert pair_isomorphic(d4, c4, d4, v4) is None
    assert pair_isomorphic(d4, c4, d4, c4) is not None


def test_pair_symmetry():
    d4 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    h1 = PermGroup(4, [parse_perm("(0 2)(1 3)"), parse_perm("(0 1)(2 3)")])
    h2 = PermGroup(4, [parse_perm("(0 2)(1 3)"), parse_perm("(0 2)")])
    forward = pair_isomorphic(d4, h1, d4, h2)
    backward = pair_isomorphic(d4, h2, d4, h1)
    assert (forward is None) == (backward is None)


@pytest.mark.parametrize(
    "ambient_gens,sub1,sub2",
    [
        (["(0 1 2 3)", "(0 2)"], ["(0 1 2 3)"], ["(0 2)(1 3)", "(0 1)(2 3)"]),
        (["(0 1 2 3)", "(0 2)"], ["(0 2)(1 3)"], ["(0 2)"]),
        (["(0 1 2 3 4)", "(1 2 4 3)"], ["(1 2 4 3)"], ["(1 4)(2 3)"]),
        (["(0 1 2)", "(0 1)"], ["(0 1)"], ["(1 2)"]),
        (["(0 1 2)(3 4 5)", "(0 3)(1 4)(2 5)"], ["(0 1 2)(3 4 5)"], ["(0 3)(1 4)(2 5)"]),
    ],
)
def test_pair_agrees_with_bruteforce(ambient_gens, sub1, sub2):
    import re

    degree = 1 + max(int(m) for g in ambient_gens for m in re.findall(r"\d+", g))
    G = PermGroup(degree, [parse_perm(g, degree) for g in ambient_gens])
    H1 = PermGroup(degree, [parse_perm(g, degree) for g in sub1])
    H2 = PermGroup(degree, [parse_perm(g, degree) for g in sub2])
    fast = pair_isomorphic(G, H1, G, H2)
    brute = brute_pair_isomorphisms(G, H1, G, H2)
    assert (fast is not None) == bool(brute)


def test_pair_completeness_small_corpus():
    """pair_isomorphic agrees with the brute generator-image search on
    index-2 subgroup pairs across the order-8 and order-12 catalogues
    (adjacent pairs keep the brute search tractable)."""
    from hopfgalois.subgroups import index_n_subgroup_classes

    for n in [8, 12]:
        for N in groups_of_order(n).groups:
            G = regular_representation(N)
            classes = index_n_subgroup_classes(G, 2)
            pairs = [(i, i) for i in range(len(classes))]
            pairs += [(i, i + 1) for i in range(len(classes) - 1)]
            for i, j in pairs:
                fast = pair_isomorphic(
                    G, classes[i].representative, G, classes[j].representative
                )
                brute = brute_pair_isomorphisms(
                    G, classes[i].representative, G, classes[j].representative
                )
                assert (fast is not None) == bool(brute), (n, N.label, i, j)


def test_quotient_pair_trivial_core():
    s3 = S3()
    h = PermGroup(3, [parse_perm("(0 1)")])
    J, J_sub = permutation_pair_of_quotient(s3, h)
    assert J.order() == 6 and J.degree == 3
    assert J_sub.order() == 2
    assert find_isomorphism(s3, J) is not None


def test_quotient_pair_d4_center():
    d4 = PermGroup(4, [parse_perm("(0 1 2 3)"), parse_perm("(0 2)")])
    center = PermGroup(4, [parse_perm("(0 2)(1 3)")])
    J, J_sub = permutation_pair_of_quotient(d4, center)
    assert J.degree == 4 and J.order() == 4
    assert J_sub.is_trivial()


def test_quotient_pair_whole_group():
    s3 = S3()
    J, J_sub = permutation_pair_of_quotient(s3, s3)
    assert J.degree == 1 and J.order() == 1


@pytest.mark.parametrize("n", [4, 6])
def test_pair_agrees_with_bruteforce_on_catalogue_pairs(n):
    """Every ordered pair of catalogue entries (M, Stab_M(0)): both sides
    are point-stabilizer pairs, so the cycle-type candidates apply."""
    from hopfgalois.pipeline import build_catalogue

    cat = build_catalogue(n)
    for a in cat:
        for b in cat:
            assert is_point_stabilizer_pair(a.group, a.stabilizer)
            fast = pair_isomorphic(a.group, a.stabilizer, b.group, b.stabilizer)
            brute = brute_pair_isomorphisms(a.group, a.stabilizer, b.group, b.stabilizer)
            assert (fast is not None) == bool(brute), (n, a.entry_id, b.entry_id)


def _pair(degree, gens, sub):
    return (PermGroup(degree, [parse_perm(g, degree) for g in gens]),
            PermGroup(degree, [parse_perm(g, degree) for g in sub]))


@pytest.mark.parametrize(
    "left,right",
    [
        # Sym(3) regular on 6 points, a stabilizer pair, against Sym(3)
        # acting on two copies of 3 points, which is intransitive: the pairs
        # are isomorphic though no element keeps its cycle type
        ((6, ["(0 1 2)(3 4 5)", "(0 3)(1 5)(2 4)"], []),
         (6, ["(0 1 2)(3 4 5)", "(0 1)(3 4)"], [])),
        # Sym(3) on 3 points: Stab(0) against the conjugate Stab(2)
        ((3, ["(0 1 2)", "(0 1)"], ["(1 2)"]), (3, ["(0 1 2)", "(0 1)"], ["(0 1)"])),
        # D4 on 4 points: Stab(0) against a subgroup of order 2 without fixed points
        ((4, ["(0 1 2 3)", "(1 3)"], ["(1 3)"]), (4, ["(0 1 2 3)", "(1 3)"], ["(0 1)(2 3)"])),
        ((4, ["(0 1 2 3)", "(1 3)"], ["(1 3)"]), (4, ["(0 1 2 3)", "(1 3)"], ["(0 2)(1 3)"])),
    ],
)
def test_pair_with_one_point_stabilizer_side(left, right):
    """Where only one side is (transitive group, Stab(0)) the candidates
    stay (order, class size), and the answer is the brute-force one."""
    G, G_sub = _pair(*left)
    M, M_sub = _pair(*right)
    assert is_point_stabilizer_pair(G, G_sub)
    assert not is_point_stabilizer_pair(M, M_sub)
    for args in ((G, G_sub, M, M_sub), (M, M_sub, G, G_sub)):
        fast = pair_isomorphic(*args)
        assert (fast is not None) == bool(brute_pair_isomorphisms(*args))
        assert fast is None or _witness_is_sound(fast, args[0], args[2])


def _same_key_pairs(n):
    """Ordered (pair, pair) tests at degree n where both sides are
    (transitive group, Stab(0)) with one order and one cycle-type multiset:
    every two catalogue entries, and every index-n quotient pair of an
    entry against every entry, in both directions."""
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import class_key_of, index_n_subgroup_classes

    catalogue = build_catalogue(n)
    by_key = {}
    for e in catalogue:
        by_key.setdefault((e.order, view_of(e.group).cycle_type_multiset()), []).append(e)
    tests = []
    for a in catalogue:
        for b in by_key[(a.order, view_of(a.group).cycle_type_multiset())]:
            tests.append(((a.group, a.stabilizer), (b.group, b.stabilizer)))
    for e in catalogue:
        stab_key = class_key_of(e.group, e.stabilizer)
        for cls in index_n_subgroup_classes(e.group, n):
            if cls.key == stab_key:
                continue
            J, J_sub = permutation_pair_of_quotient(e.group, cls.representative)
            for b in by_key.get((J.order(), view_of(J).cycle_type_multiset()), []):
                tests.append(((J, J_sub), (b.group, b.stabilizer)))
                tests.append(((b.group, b.stabilizer), (J, J_sub)))
    return tests


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_point_map_agrees_with_cycle_type_search(n):
    """The point-map decider says yes exactly when the generator-image
    search it replaced finds a pair isomorphism, and every map it returns
    fixes 0 and conjugates G into M."""
    tests = _same_key_pairs(n)
    assert tests
    for (G, G_sub), (M, M_sub) in tests:
        assert is_point_stabilizer_pair(G, G_sub) and is_point_stabilizer_pair(M, M_sub)
        sigma = point_map(G, M, M_sub)
        assert (sigma is not None) == cycle_type_pair_search(G, G_sub, M, M_sub)
        if sigma is not None:
            assert sigma[0] == 0
            s_inv = inverse(sigma)
            assert all(compose(sigma, compose(g, s_inv)) in M for g in G.generators)


def test_point_map_degree_55_entry_51():
    """Entry 51's third index-55 class has a quotient with the cycle-type
    key of entries 47 to 51: no map to 48 or 50, and a map to 51."""
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import index_n_subgroup_classes

    catalogue = build_catalogue(55)
    entry = catalogue[51]
    assert (entry.entry_id, entry.order) == (51, 1210)
    H = index_n_subgroup_classes(entry.group, 55)[2].representative
    J, J_sub = permutation_pair_of_quotient(entry.group, H)
    for other in (48, 50):
        assert point_map(J, catalogue[other].group, catalogue[other].stabilizer) is None
    sigma = point_map(J, entry.group, entry.stabilizer)
    assert sigma is not None and sigma[0] == 0
    s_inv = inverse(sigma)
    assert all(compose(sigma, compose(g, s_inv)) in entry.group for g in J.generators)
    assert pair_isomorphic(J, J_sub, entry.group, entry.stabilizer) is not None


def test_point_map_no_is_decided_below_the_view_bound(monkeypatch):
    """Two same-order degree-8 (transitive group, Stab(0)) pairs that no
    point bijection conjugates: the answer is no even when their order
    exceeds the bound on the groups the witness search may enumerate.  A
    yes between such pairs is the point map's own witness, which needs no
    bound either and replays; a pair of any other shape is still held to
    the bound."""
    import hopfgalois.isomorphism as iso
    from oracles import witness_replays

    monkeypatch.setattr(iso, "DEFAULT_ISO_BOUND", 8)

    G, G_sub = _pair(8, ["(4 5)(6 7)", "(0 4 1 5)(2 6 3 7)", "(0 6 1 7)(2 4 3 5)"], ["(4 5)(6 7)"])
    M, M_sub = _pair(8, ["(0 4 2 6)(1 5 3 7)", "(0 4 3 7)(1 5 2 6)"], ["(4 5)(6 7)"])
    assert is_point_stabilizer_pair(G, G_sub) and is_point_stabilizer_pair(M, M_sub)
    assert G.order() == M.order() == 16
    assert point_map(G, M, M_sub) is None
    assert pair_isomorphic(G, G_sub, M, M_sub) is None
    witness = pair_isomorphic(G, G_sub, G, G_sub)
    assert witness is not None
    assert [m for _, m in witness.mapping] == list(G.generators)
    assert witness_replays(witness.mapping, G, G_sub, G, G_sub)
    trivial = PermGroup(8, [])
    assert not is_point_stabilizer_pair(G, trivial)
    with pytest.raises(ResourceLimitError):
        pair_isomorphic(G, trivial, G, trivial)
    with pytest.raises(ResourceLimitError):
        find_isomorphism(G, G)


def _regenerated(J):
    """J on another generating list: elements from the top of its sorted
    element tuple, each kept while it enlarges the group they generate."""
    gens = []
    for x in reversed(J.elements()):
        if not gens or x not in PermGroup(J.degree, gens):
            gens.append(x)
            if PermGroup(J.degree, gens).order() == J.order():
                return PermGroup(J.degree, gens, J.order())
    raise AssertionError("unreachable: J's elements generate J")


@pytest.mark.parametrize("n", [8, 12])
def test_point_map_witness_depends_on_the_element_set_alone(n, monkeypatch):
    """A quotient pair rebuilt on another generating list of J's element set
    gets the witness J gets against each catalogue entry it matches, with
    no search on the left-regular actions: the ``CatalogueIndex`` keys its
    quotient memo by the element set."""
    import hopfgalois.isomorphism as iso
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import index_n_subgroup_classes

    def no_search(*args, **kwargs):
        raise AssertionError("homsearch.isomorphisms was called")

    monkeypatch.setattr(iso, "isomorphisms", no_search)
    catalogue = build_catalogue(n)
    quotients = {}
    for e in catalogue[::3]:
        for c in index_n_subgroup_classes(e.group, n):
            J, J_sub = permutation_pair_of_quotient(e.group, c.representative)
            quotients.setdefault(J.elements(), (J, J_sub))
    tested = 0
    for J, J_sub in quotients.values():
        K = _regenerated(J)
        assert K.elements() == J.elements() and K.generators != J.generators
        K_sub = PermGroup(K.degree, J_sub.generators, J_sub.order())
        for m in catalogue:
            if m.order != J.order():
                continue
            witness = pair_isomorphic(J, J_sub, m.group, m.stabilizer)
            assert pair_isomorphic(K, K_sub, m.group, m.stabilizer) == witness
            tested += witness is not None
    assert tested


# -- the witness search against its Cayley-row oracle ------------------------


def _same_results(A, B, limit=1, **kwargs):
    """The package's search and oracles.row_isomorphisms yield the same
    (gens, images, full_map) sequence: its first ``limit`` items, or all of
    it when ``limit`` is None.  The package runs first, so the oracle's
    rows cannot serve it."""
    from itertools import islice

    from hopfgalois.homsearch import isomorphisms
    from oracles import row_isomorphisms

    got = list(islice(isomorphisms(A, B, **kwargs), limit))
    expected = row_isomorphisms(A, B, first_only=limit == 1, **kwargs)
    assert got == list(islice(expected, limit))
    return got


@pytest.mark.parametrize("n", range(4, 13))
def test_isomorphisms_equal_row_oracle_on_holomorphs(n):
    """Every automorphism of each holomorph of order-n groups, in the
    oracle's order, onto a separately built view of the same group; Hol(C2^3)
    has 2688 of them, so only the first 100 are compared."""
    from hopfgalois.holomorph import holomorph

    for N in groups_of_order(n).groups:
        G = holomorph(N).group
        B = view_of(PermGroup(G.degree, G.generators))
        assert _same_results(view_of(G), B, limit=100)


def _recorded_pair_tests(monkeypatch, module, run):
    """The (G, G_sub, M, M_sub) of every pair_isomorphic call that ``run``
    makes through ``module``."""
    calls = []

    def recording(G, G_sub, M, M_sub, **kwargs):
        calls.append((G, G_sub, M, M_sub))
        return pair_isomorphic(G, G_sub, M, M_sub, **kwargs)

    monkeypatch.setattr(module, "pair_isomorphic", recording)
    run()
    monkeypatch.undo()
    return calls


def _search_args(G, G_sub, M, M_sub):
    va, vb = view_of(G), view_of(M)
    subs = {"sub_a": frozenset(va._index[h] for h in G_sub.elements()),
            "sub_b": frozenset(vb._index[h] for h in M_sub.elements())}
    return va, vb, subs


@pytest.mark.parametrize("n,limit", [
    pytest.param(8, 1, id="8"),
    pytest.param(12, 1, id="12"),
    pytest.param(8, None, id="8-all"),
])
def test_isomorphisms_equal_row_oracle_in_analyze_parallel(n, limit, monkeypatch):
    """Every pair test analyze_parallel makes, put to the search although
    the point map now decides it: the first witness, or (at degree 8) every
    pair isomorphism, which runs the subgroup-adapted search to the end."""
    from hopfgalois import pipeline

    catalogue = pipeline.build_catalogue(n)
    calls = _recorded_pair_tests(
        monkeypatch, pipeline,
        lambda: [pipeline.analyze_parallel(e, catalogue) for e in catalogue])
    assert calls
    for call in calls:
        va, vb, subs = _search_args(*call)
        _same_results(va, vb, limit=limit, **subs)


def test_isomorphisms_equal_row_oracle_in_classify_index_n(monkeypatch):
    """Every pair test of G against itself that the pairwise oracle of
    classify_index_n makes over the degree-21 catalogue (the package's
    classify_index_n makes none)."""
    import hopfgalois.isomorphism as iso
    from hopfgalois.pipeline import build_catalogue
    from oracles import classify_index_n_pairwise

    catalogue = build_catalogue(21)
    calls = _recorded_pair_tests(
        monkeypatch, iso, lambda: [classify_index_n_pairwise(e.group, 21) for e in catalogue])
    assert calls and all(G is M for G, _, M, _ in calls)
    for call in calls:
        va, vb, subs = _search_args(*call)
        _same_results(va, vb, **subs)


def test_isomorphisms_yield_each_map_as_found(monkeypatch):
    """The first automorphism of Hol(C2^3) is yielded after fewer point-map
    extensions than the whole search makes, and draining the search gives
    all 2688, in the order automorphisms() lists them: ascending generator
    images, the order the row oracle checks."""
    from hopfgalois import homsearch
    from hopfgalois.holomorph import holomorph

    (N,) = [N for N in groups_of_order(8).groups if N.tag == "C2xC2xC2"]
    view = view_of(holomorph(N).group)
    extend, calls = homsearch._extend_point_map, [0]

    def counting(*args):
        calls[0] += 1
        return extend(*args)

    monkeypatch.setattr(homsearch, "_extend_point_map", counting)
    maps = homsearch.isomorphisms(view, view)
    first = next(maps)
    at_first = calls[0]
    images = [first[1]] + [gen_images for _, gen_images, _ in maps]
    assert at_first < calls[0]
    assert len(images) == 2688
    assert all(a < b for a, b in zip(images, images[1:]))


def test_replay_guards_the_left_regular_route(monkeypatch):
    """A map from the left-regular search that is not a homomorphism is
    caught by the replay, on find_isomorphism and on a pair whose
    designated subgroup is no point stabilizer."""
    import hopfgalois.isomorphism as iso

    search = iso.isomorphisms

    def corrupted(A, B, **kwargs):
        for gens, images, full in search(A, B, **kwargs):
            yield gens, images, {**full, 1: full[2], 2: full[1]}

    monkeypatch.setattr(iso, "isomorphisms", corrupted)
    s3, a3 = S3(), PermGroup(3, [parse_perm("(0 1 2)")])
    assert not is_point_stabilizer_pair(s3, a3)
    with pytest.raises(PreconditionError):
        find_isomorphism(s3, s3)
    with pytest.raises(PreconditionError):
        pair_isomorphic(s3, a3, s3, a3)


def test_witness_search_and_replay_build_no_row_on_the_target(monkeypatch):
    """Each match analyze_parallel finds at degree 12, found again against a
    freshly built view of the catalogue pair: same witness, and the point
    map builds no Cayley row of the target; nor do the left-regular
    search and its replay on their own."""
    from hopfgalois import pipeline
    from hopfgalois.homsearch import isomorphisms
    from hopfgalois.isomorphism import _replay_verifies

    catalogue = pipeline.build_catalogue(12)
    calls = _recorded_pair_tests(
        monkeypatch, pipeline,
        lambda: [pipeline.analyze_parallel(e, catalogue) for e in catalogue])
    matches = [(call, w) for call in calls if (w := pair_isomorphic(*call)) is not None]
    assert matches
    for (J, J_sub, M, M_sub), witness in matches:
        fresh, fresh_sub = PermGroup(12, M.generators), PermGroup(12, M_sub.generators)
        assert pair_isomorphic(J, J_sub, fresh, fresh_sub) == witness
        rows = view_of(fresh)._rows
        assert rows is not None and all(row is None for row in rows)
        # the search and the replay on their own
        fresh, fresh_sub = PermGroup(12, M.generators), PermGroup(12, M_sub.generators)
        va, vb, subs = _search_args(J, J_sub, fresh, fresh_sub)
        _, _, full = next(isomorphisms(va, vb, **subs))
        assert all(row is None for row in vb._rows)
        assert _replay_verifies(va, vb, full, subs["sub_a"], subs["sub_b"])
        assert all(row is None for row in vb._rows)


# -- Aut(G)-orbits against an enumeration of automorphisms ----------------------


@pytest.mark.parametrize("degree,entry_id", [(9, 8), (12, 108)])
def test_aut_orbits_equal_all_automorphisms(degree, entry_id):
    """classify_index_n's aut_orbit labels are the orbits of all of Aut(G)
    (432 and 144 automorphisms) on the index-n classes, numbered by first
    appearance.  In both entries classes are moved both by point maps that
    normalize G and by automorphisms that carry Stab_G(0) to another class."""
    from hopfgalois.homsearch import automorphisms
    from hopfgalois.pipeline import build_catalogue
    from hopfgalois.subgroups import (
        _conjugacy_orbit,
        classify_index_n,
        index_n_subgroup_classes,
    )

    G = build_catalogue(degree)[entry_id].group
    classes = index_n_subgroup_classes(G, degree)
    view = view_of(G)
    conj = view.generator_conjugation_maps()
    index_of = {c.key: i for i, c in enumerate(classes)}
    subgroups = [
        frozenset(view._index[h] for h in c.representative.elements()) for c in classes
    ]
    label = list(range(len(classes)))
    for a in automorphisms(view):
        for i, H in enumerate(subgroups):
            j = index_of[_conjugacy_orbit(conj, frozenset(a[x] for x in H))[1]]
            old, new = max(label[i], label[j]), min(label[i], label[j])
            label = [new if x == old else x for x in label]
    numbered = {}
    expected = [numbered.setdefault(x, len(numbered)) for x in label]
    report = classify_index_n(G, degree)
    assert [d["aut_orbit"] for d in report.details] == expected
    assert report.aut_orbits == len(numbered) < len(classes)
