import pytest

from hopfgalois.errors import PreconditionError
from hopfgalois.groups import cyclic, direct_product, groups_of_order, trivial_group
from hopfgalois.holomorph import (
    automorphism_group,
    hall_decomposition,
    hall_pi_subgroup,
    holomorph,
    holomorph_projection,
)
from hopfgalois.permgroup import PermGroup
from hopfgalois.perms import compose, inverse, make_perm


def test_automorphism_group_examples():
    assert automorphism_group(cyclic(3)).order() == 2
    assert automorphism_group(direct_product(cyclic(2), cyclic(2))).order() == 6
    assert automorphism_group(trivial_group()).order() == 1


def test_automorphisms_respect_multiplication():
    for n in [8, 12]:
        for N in groups_of_order(n).groups:
            aut = automorphism_group(N)
            for pi in aut.maps:
                assert pi[0] == 0
                for a in range(n):
                    for b in range(n):
                        assert pi[N.mul(a, b)] == N.mul(pi[a], pi[b])


def test_known_aut_orders():
    # |Aut| for the five groups of order 8: C2^3 -> 168, C4xC2 -> 8,
    # C8 -> 4, Q8 -> 24, D4 -> 8
    orders = sorted(automorphism_group(g).order() for g in groups_of_order(8).groups)
    assert orders == [4, 8, 8, 24, 168]


def test_holomorph_examples():
    assert holomorph(cyclic(2)).group.order() == 2
    h3 = holomorph(cyclic(3))
    assert h3.group.order() == 6  # Hol(C3) = Sym(3)
    assert h3.group.degree == 3
    c2c4 = next(g for g in groups_of_order(8).groups if g.tag == "C4xC2")
    h = holomorph(c2c4)
    assert h.group.order() == 64
    assert h.group.degree == 8


def test_holomorph_structure():
    for n in [6, 8, 12]:
        for N in groups_of_order(n).groups:
            h = holomorph(N)
            assert h.group.order() == N.order * h.aut.order()
            assert h.group.is_transitive()
            stab = h.group.point_stabilizer(0)
            assert stab.order() == h.aut.order()
            assert all(g in stab for g in h.aut.group.generators)
            # the holomorph normalizes the regular copy
            lam = h.lambda_group
            for g in h.group.generators:
                gi = inverse(g)
                for x in lam.generators:
                    assert compose(g, compose(x, gi)) in lam


def test_holomorph_is_normalizer_of_regular_copy():
    # brute-force normalizer of lambda(N) in Sym(n) for |N| <= 8
    import itertools

    for n in [4, 6]:
        for N in groups_of_order(n).groups:
            h = holomorph(N)
            lam_els = set(h.lambda_group.elements())
            count = 0
            for images in itertools.permutations(range(n)):
                p = make_perm(images)
                pi = inverse(p)
                if all(compose(p, compose(x, pi)) in lam_els for x in lam_els):
                    count += 1
            assert count == h.group.order()


def test_hall_subgroup_squarefree():
    c15 = groups_of_order(15).groups[0]
    h = holomorph(c15)
    Q = hall_pi_subgroup(h)
    assert Q.order() == 15
    # unique Hall subgroup = all elements of order with primes dividing 15
    from hopfgalois.perms import perm_order
    import math

    pi_els = {x for x in h.group.elements() if math.gcd(perm_order(x), 8) == 1}
    assert set(Q.elements()) == pi_els
    # normality
    for g in h.group.generators:
        gi = inverse(g)
        assert all(compose(g, compose(x, gi)) in Q for x in Q.generators)


def test_hall_decomposition_examples():
    c15 = groups_of_order(15).groups[0]
    h = holomorph(c15)
    U, V = hall_decomposition(h, h.group)
    assert U.order() == 15 and V.order() == 8
    # U normal, U meet V trivial, U*V = G
    assert all(x in h.group for x in U.generators)
    uv = PermGroup(15, list(U.generators) + list(V.generators))
    assert uv.order() == 120
    # lambda(N) decomposes as itself times trivial
    U, V = hall_decomposition(h, h.lambda_group)
    assert U == h.lambda_group and V.is_trivial()
    # trivial subgroup
    U, V = hall_decomposition(h, PermGroup(15, []))
    assert U.is_trivial() and V.is_trivial()


def test_hall_decomposition_metacyclic_21():
    m21 = groups_of_order(21).groups[1]
    h = holomorph(m21)
    Q = hall_pi_subgroup(h)
    assert Q.order() == 441
    U, V = hall_decomposition(h, h.group)
    assert U.order() == 441 and V.order() == 2


def test_hall_requires_squarefree():
    c4 = groups_of_order(4).groups[1]
    h = holomorph(c4)
    with pytest.raises(PreconditionError):
        hall_pi_subgroup(h)


def test_projection_c4():
    cat = groups_of_order(4)
    c4 = next(g for g in cat.groups if g.tag == "C4")
    sq = PermGroup(4, [make_perm(c4.table[2])])
    proj = holomorph_projection(c4, sq)
    h = holomorph(c4)
    img = proj.project_group(h.group)
    assert img.degree == 2 and img.order() == 2
    assert img.is_transitive()


def test_projection_is_homomorphism():
    cat = groups_of_order(8)
    c2c4 = next(g for g in cat.groups if g.tag == "C4xC2")
    h = holomorph(c2c4)
    # characteristic subgroup: squares (the image of x -> x^2)
    squares = sorted({c2c4.mul(a, a) for a in range(8)})
    sub = PermGroup(8, [make_perm(c2c4.table[a]) for a in squares])
    proj = holomorph_projection(c2c4, sub)
    els = h.group.elements()
    for x in els:
        for y in els:
            assert proj.apply(compose(x, y)) == compose(proj.apply(x), proj.apply(y))


def test_projection_trivial_subgroup_is_identity():
    c4 = groups_of_order(4).groups[1]
    triv = PermGroup(4, [])
    proj = holomorph_projection(c4, triv)
    h = holomorph(c4)
    for g in h.group.generators:
        assert proj.apply(g) == g


def test_projection_rejects_non_characteristic():
    v4 = groups_of_order(4).groups[0]
    # a single C2 factor of V4 is normal but not characteristic
    sub = PermGroup(4, [make_perm(v4.table[1])])
    with pytest.raises(PreconditionError):
        holomorph_projection(v4, sub)


def test_projection_kills_coprime_factor():
    # N = C3 x C5, M = the C5 factor: projection to Hol(C3) with C5 in kernel
    c15 = groups_of_order(15).groups[0]
    fives = sorted({(3 * i) % 15 for i in range(5)})
    sub = PermGroup(15, [make_perm(c15.table[a]) for a in fives])
    proj = holomorph_projection(c15, sub)
    assert proj.quotient.order == 3
    h = holomorph(c15)
    img = proj.project_group(h.group)
    assert img.degree == 3 and img.is_transitive()
    for a in fives:
        assert proj.apply(make_perm(c15.table[a])) == tuple(range(3)) or all(
            x == i for i, x in enumerate(proj.apply(make_perm(c15.table[a])))
        )
