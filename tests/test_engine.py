"""GroupView conjugation, centre, cycle types, closures and derived
subgroups against the Cayley-table path and brute-force closures."""

import pytest

from hopfgalois.engine import CAYLEY_LIMIT, GroupView, view_of
from hopfgalois.groups import groups_of_order
from hopfgalois.holomorph import holomorph
from hopfgalois.permgroup import PermGroup
from hopfgalois.perms import compose, cycle_type, inverse, make_perm, parse_perm, perm_order, power

from oracles import mulclose
from test_subgroups import ORACLE_CORPUS, _hol_c2_cubed


def _dihedral(m):
    rotation = make_perm([(i + 1) % m for i in range(m)])
    reflection = make_perm([(-i) % m for i in range(m)])
    return PermGroup(m, [rotation, reflection])


def _sym(k):
    return PermGroup(k, [parse_perm("(" + " ".join(map(str, range(k))) + ")"), parse_perm("(0 1)", k)])


def _views():
    """A bytes view under CAYLEY_LIMIT, one over it, a tuple view of
    degree > 256 and an abstract group's view, whose indices are the
    group's own."""
    small = view_of(PermGroup(6, [parse_perm("(0 1 2 3)", 6), parse_perm("(0 4)(1 5)")]))
    large = view_of(_sym(7))
    wide = view_of(PermGroup(300, [parse_perm("(0 1 2 3)(296 297 298 299)", 300),
                                   parse_perm("(1 3)(297 299)", 300)]))
    N = groups_of_order(12).groups[2]
    table = N.view()
    assert small.size <= CAYLEY_LIMIT < large.size
    assert isinstance(wide.elements[0], tuple)
    assert all(table.mul(a, b) == N.table[a][b] for a in range(N.order) for b in range(N.order))
    return [small, large, wide, table]


@pytest.mark.parametrize("which", range(4))
def test_conjugation_map_matches_products(which):
    v = _views()[which]
    probe = list(v.generators()) + list(range(0, v.size, max(1, v.size // 7)))
    for g in probe:
        gi = v.inv(g)
        expected = [v.mul(v.mul(g, x), gi) for x in range(v.size)]
        assert list(v.conjugation_map(g)) == expected


def test_conjugation_builds_no_cayley_row():
    v = view_of(PermGroup(8, [parse_perm("(0 1 2 3)"), parse_perm("(4 5 6)(0 7)")]))
    assert v._rows is not None
    v.conj_classes()
    v.center_size()
    v.centralizer_elements(v.generators()[0])
    assert all(row is None for row in v._rows)


def test_view_is_kept_on_the_group():
    G = _sym(4)
    assert view_of(G) is view_of(G)
    assert view_of(PermGroup(4, G.generators)) is not view_of(G)


@pytest.mark.parametrize("which", range(4))
def test_center_size_matches_brute_force(which):
    v = _views()[which]
    # the centre commutes with every element; past a few hundred elements
    # commuting with the generators is checked instead, which is equivalent
    others = range(v.size) if v.size <= 300 else v.generators()
    centre = [x for x in range(v.size) if all(v.mul(x, g) == v.mul(g, x) for g in others)]
    assert v.center_size() == len(centre)


def test_center_sizes_known():
    assert view_of(_dihedral(8)).center_size() == 2
    assert view_of(_dihedral(9)).center_size() == 1
    assert view_of(_sym(4)).center_size() == 1
    assert view_of(PermGroup(5, [parse_perm("(0 1 2 3 4)")])).center_size() == 5


def _permutation_views():
    """The permutation-backed views of _views(), the largest degree-55
    holomorph (a catalogue entry), and a view built from an element set."""
    hol = max((holomorph(N).group for N in groups_of_order(55).groups), key=lambda G: G.order())
    assert hol.order() >= 1210 and hol.is_transitive()
    fallback = GroupView.from_perm_elements(_sym(5).elements(), parse_perm("()", 5))
    return _views()[:3] + [view_of(hol), fallback]


@pytest.mark.parametrize("which", range(5))
def test_cycle_types_and_orders(which):
    v = _permutation_views()[which]
    types = v.cycle_types()
    interned = {}
    for p, t, o in zip(v.elements, types, v.element_orders()):
        assert t == cycle_type(p)
        assert o == perm_order(p)
        assert interned.setdefault(t, t) is t
    assert sum(k for _, k in v.cycle_type_multiset()) == v.size
    # views of a group take one type per conjugacy class; a view of an
    # element set has no generators before its orders, so builds no classes
    assert (v._classes is not None) == (which < 4)


def test_cycle_type_multiset_is_a_conjugacy_invariant():
    G = _sym(4)
    c4 = PermGroup(4, [parse_perm("(0 1 2 3)")])
    v4 = PermGroup(4, [parse_perm("(0 1)(2 3)"), parse_perm("(0 2)(1 3)")])
    w = parse_perm("(0 2 1)", 4)
    assert view_of(c4).cycle_type_multiset() == view_of(c4.conjugate(w)).cycle_type_multiset()
    assert view_of(c4).cycle_type_multiset() != view_of(v4).cycle_type_multiset()
    assert view_of(G).cycle_type_multiset() == (((), 1), ((2,), 6), ((2, 2), 3), ((3,), 8), ((4,), 6))


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_map_matches_products(which, p):
    v = _views()[which]
    powers = v.power_map(p)
    for x in range(v.size):
        y = x
        for _ in range(p - 1):
            y = v.mul(x, y)
        assert powers[x] == y
    assert v.power_map(p) is powers


def _power_views():
    """The order-2200 degree-55 holomorph Hol(C55), the degree-300 tuple view
    and a view of Sym(5) built from its element set, which has no generators."""
    hol = next(G for G in (holomorph(N).group for N in groups_of_order(55).groups)
               if G.order() == 2200)
    fallback = GroupView.from_perm_elements(_sym(5).elements(), parse_perm("()", 5))
    return [view_of(hol), _views()[2], fallback]


@pytest.mark.parametrize("which", range(3))
def test_power_map_matches_perm_powers(which):
    """The class walk of views with generators, and the element loop of the
    others, give each element's power as perms.power does."""
    v = _power_views()[which]
    for p in (2, 3, 5, 11):
        assert list(v.power_map(p)) == [v._index[power(x, p)] for x in v.elements]
    assert (v._gens is None) == (which == 2)


def test_power_map_and_conjugates_build_no_cayley_row():
    """Power maps and conjugates on a small view; closures from scratch and
    grown, greedy generators and the normalizer filter on a fresh view of
    Hol(C2^3) (order 1344, under CAYLEY_LIMIT)."""
    v = view_of(PermGroup(8, [parse_perm("(0 1 2 3)"), parse_perm("(4 5 6)(0 7)")]))
    assert v._rows is not None
    for p in (2, 3, 5):
        v.power_map(p)
    for g in range(v.size):
        v.conjugates(g, range(v.size))
    assert all(row is None for row in v._rows)

    v = GroupView.from_perm_group(_hol_c2_cubed())
    assert v.size == 1344 and v._rows is not None
    gens = v.generators()
    assert len(v._grow(v.closure(gens[:-1]), gens)) == v.size
    S = v.closure(gens[:2], maxsize=v.size // 2)
    assert S is not None and len(S) > 1
    assert v.greedy_generators(range(v.size), (1,))
    s_gens = v.greedy_generators(S)
    assert set(S) <= set(v.normalizing(range(v.size), s_gens, S, ()))
    assert all(row is None for row in v._rows)


def _closure_oracle(v, seed):
    """The closure of ``seed`` by oracles.mulclose on the view's permutations."""
    return {v._index[p] for p in mulclose([v.elements[g] for g in seed], len(v.elements[0]))}


@pytest.mark.parametrize("which", range(4))
def test_closure_matches_mulclose(which):
    v = _views()[which]
    step = max(1, v.size // 5)
    gens = list(v.generators())
    seeds = [[], [v.identity], gens[:1], gens, list(range(1, v.size, step)),
             [v.size - 1, v.identity, v.size - 1]]
    for seed in seeds:
        rows_before = None if v._rows is None else {i for i, r in enumerate(v._rows) if r is not None}
        expected = _closure_oracle(v, seed)
        assert v.closure(seed) == expected
        if rows_before is not None:
            built = {i for i, r in enumerate(v._rows) if r is not None} - rows_before
            assert not built
        for maxsize in (len(expected) - 1, len(expected), len(expected) + 1, len(expected) // 2):
            got = v.closure(seed, maxsize=maxsize)
            assert got == (None if len(expected) > maxsize else expected)


def _greedy_oracle(v, subset, seed=()):
    """greedy_generators with every closure taken from scratch by
    oracles.mulclose."""
    orders = v.element_orders()
    pool = sorted(subset, key=lambda i: (-orders[i], i))
    gens = list(seed)
    have = _closure_oracle(v, gens)
    for x in pool:
        if len(have) == len(pool):
            break
        if x not in have:
            gens.append(x)
            have = _closure_oracle(v, gens)
    return tuple(gens)


def _bytes_and_tuple_views():
    """A bytes view with Cayley rows, one without, and tuple views of
    degree > 256 with and without: Sym(6) x C3 has order 2160."""
    small, large, wide, _ = _views()
    wide_large = view_of(PermGroup(300, [parse_perm("(0 1 2 3 4 5)", 300), parse_perm("(0 1)", 300),
                                         parse_perm("(297 298 299)", 300)]))
    return [small, large, wide, wide_large]


@pytest.mark.parametrize("which", range(4))
def test_grown_closures_match_closures_from_scratch(which):
    """On bytes and tuple views (degree > 256), each with and without
    Cayley rows: a closure grown by one generator at a time, and the
    generators greedy_generators picks that way, equal closures and picks
    made from scratch."""
    v = _bytes_and_tuple_views()[which]
    assert (v._rows is None, isinstance(v.elements[0], tuple)) == [
        (False, False), (True, False), (False, True), (True, True)][which]
    gens = list(v.generators()) + [1, v.size // 2]
    have = v.closure([])
    for k in range(1, len(gens) + 1):
        have = v._grow(have, gens[:k])
        assert have == _closure_oracle(v, gens[:k])
    subsets = [frozenset(range(v.size))] + [
        v.closure(seed) for seed in ([gens[0]], gens[-2:], [v.size - 1, v.size // 3])
    ]
    for S in subsets:
        assert v.greedy_generators(S) == _greedy_oracle(v, S)
        some = min(S)
        assert v.greedy_generators(S, (some,)) == _greedy_oracle(v, S, (some,))


def _brute_derived(elements):
    """Closure of every commutator a b a^-1 b^-1 of the given permutations."""
    comms = {compose(compose(a, b), compose(inverse(a), inverse(b)))
             for a in elements for b in elements}
    return mulclose(list(comms), len(next(iter(elements))))


A5 = PermGroup(5, [parse_perm("(0 1 2)", 5), parse_perm("(0 1 2 3 4)")])


@pytest.mark.parametrize("name,G", ORACLE_CORPUS + [("A5", A5)])
def test_derived_subgroup_matches_commutator_closure(name, G):
    """On the whole group and on the stabilizer of point 0."""
    v = view_of(G)
    for H in (G, G.point_stabilizer(0)):
        els = H.elements()
        sub = frozenset(v._index[p] for p in els)
        derived = {v.elements[i] for i in v.derived_subgroup_of(sub)}
        assert derived == _brute_derived(els)
