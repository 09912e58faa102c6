import random

import pytest

from hopfgalois.perms import (
    compose,
    cycle_decomposition,
    format_cycles,
    format_images,
    identity,
    inverse,
    is_identity,
    left_multiples,
    make_perm,
    parse_perm,
    perm_order,
    power,
)


def test_make_perm_validates():
    assert make_perm([1, 0, 2]) == bytes([1, 0, 2])
    with pytest.raises(ValueError):
        make_perm([0, 0, 1])
    with pytest.raises(ValueError):
        make_perm([1, 2, 3])


def test_compose_applies_right_first():
    p = make_perm([1, 2, 0])
    q = make_perm([0, 2, 1])
    pq = compose(p, q)
    assert all(pq[i] == p[q[i]] for i in range(3))


def test_group_axioms_small():
    import itertools

    perms = [make_perm(s) for s in itertools.permutations(range(4))]
    for p in perms[:8]:
        assert compose(p, identity(4)) == p
        assert compose(identity(4), p) == p
        assert compose(p, inverse(p)) == identity(4)
        assert compose(inverse(p), p) == identity(4)
    for p, q, r in itertools.islice(itertools.product(perms, repeat=3), 200):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_power_and_order():
    c = parse_perm("(0 1 2 3 4)")
    assert perm_order(c) == 5
    assert power(c, 5) == identity(5)
    assert power(c, -1) == inverse(c)
    assert power(c, 7) == compose(c, c)


def test_cycle_roundtrip():
    p = parse_perm("(0 1)(2 3)")
    assert p == make_perm([1, 0, 3, 2])
    assert format_cycles(p) == "(0 1)(2 3)"
    assert format_images(p) == "[1,0,3,2]"
    assert parse_perm(format_images(p)) == p
    assert parse_perm("()", 3) == identity(3)
    assert cycle_decomposition(identity(4)) == []


def test_parse_comma_cycles():
    assert parse_perm("(0, 1)(2, 3)") == make_perm([1, 0, 3, 2])
    assert parse_perm("[1,0]", 4) == make_perm([1, 0, 2, 3])


def test_big_degree_uses_tuples():
    images = list(range(1, 300)) + [0]
    p = make_perm(images)
    assert isinstance(p, tuple)
    assert perm_order(p) == 300
    assert compose(p, inverse(p)) == identity(300)


@pytest.mark.parametrize("degree", [1, 8, 255, 256, 300])
def test_inverse_and_is_identity_match_definitions(degree):
    """Against the loop definitions, on bytes (degree <= 256) and tuples."""
    rng = random.Random(degree)
    perms = [identity(degree)]
    for _ in range(20):
        images = list(range(degree))
        rng.shuffle(images)
        perms.append(make_perm(images))
    if degree > 1:  # one transposition: a single moved pair
        perms.append(make_perm([1, 0] + list(range(2, degree))))
    for p in perms:
        inv = [0] * degree
        for i, j in enumerate(p):
            inv[j] = i
        assert inverse(p) == make_perm(inv)
        assert type(inverse(p)) is type(p)
        assert is_identity(p) == all(i == x for i, x in enumerate(p))


@pytest.mark.parametrize("degree", [5, 256, 300])
def test_left_multiples_compose(degree):
    rng = random.Random(degree)
    p = make_perm(rng.sample(range(degree), degree))
    qs = [make_perm(rng.sample(range(degree), degree)) for _ in range(4)]
    assert list(left_multiples(p, qs)) == [compose(p, q) for q in qs]
