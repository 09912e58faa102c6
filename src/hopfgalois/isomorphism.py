"""Abstract isomorphism and designated-subgroup ("pair") isomorphism tests.

A pair (G, G') is isomorphic to (M, M') when some abstract isomorphism
G -> M carries G' onto M'.  The search adapts the generating sequence to
the designated subgroup, so the constraint prunes instead of multiplying
work; every returned witness is re-verified by replay.

When both pairs are (transitive group, stabilizer of point 0) on one
degree, every pair isomorphism is conjugation by a bijection of the points
fixing 0 (the two actions are equivalent to the actions on the cosets of
the stabilizers).  Such pairs are decided by searching for that bijection
(``point_map``); the generator-image search runs only once it exists, to
produce the witness, with each generator's candidate images sharing its
cycle type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import view_of
from .errors import PreconditionError, ResourceLimitError
from .homsearch import isomorphisms
from .permgroup import PermGroup, coset_action
from .perms import compose, cycle_length_at, cycle_type, inverse, make_perm, orbit_of_0

DEFAULT_ISO_BOUND = 10_000


@dataclass(frozen=True)
class PairWitness:
    """Generator-image list defining an isomorphism, with subgroup data.

    ``mapping`` pairs source generators with their images (permutations of
    the respective groups' points).  ``verified`` records that the witness
    was replayed: the map extends to a bijective homomorphism carrying the
    designated subgroup onto its target.
    """

    mapping: tuple
    verified: bool

    def to_json(self) -> dict:
        return {
            "mapping": [[list(a), list(b)] for a, b in self.mapping],
            "verified": self.verified,
        }


def _bounded_views(G, M, max_order):
    if G.order() > max_order or M.order() > max_order:
        raise ResourceLimitError(
            f"isomorphism search bound exceeded: orders {G.order()}, {M.order()} > {max_order}"
        )
    return view_of(G), view_of(M)


def _subgroup_indices(view, H: PermGroup) -> frozenset:
    try:
        return frozenset(view._index[h] for h in H.elements())
    except KeyError:
        raise PreconditionError("designated subgroup is not contained in its parent") from None


def is_point_stabilizer_pair(G: PermGroup, G_sub: PermGroup) -> bool:
    """Whether G is transitive and G_sub is its stabilizer of point 0."""
    return (
        all(g[0] == 0 for g in G_sub.generators)
        and G_sub.order() * G.degree == G.order()
        and G.is_transitive()
        and G_sub.is_subgroup_of(G)
    )


def point_map(G: PermGroup, M: PermGroup, M_sub: PermGroup):
    """A bijection s of the points with s(0) = 0 and s G s^-1 = M, or None.

    G and M are transitive of one degree and order, and M_sub = Stab_M(0).
    s keeps each element's cycle type and its cycle length through 0, so
    both groups have as many elements of each such key.  s is fixed by the
    images f(g) = s g s^-1 of elements g whose orbit of 0 is every point,
    through s(g x) = f(g) s(x).  The first, an element of G with the longest
    cycle through 0, is mapped only up to conjugation by M_sub (if s works,
    so does h s for h in M_sub); generators of G follow while they add
    points.  Their images are chosen among M's elements of the same key, one
    at a time; after each choice s is extended by breadth-first search from
    0 and the choice is dropped once s is not well defined or not injective.
    A total s that conjugates G's generators into M conjugates G onto M,
    since the orders agree.
    """
    vg, vm = view_of(G), view_of(M)
    n = G.degree
    pools = vm.point_pools()
    sizes = {k: sum(map(len, b.values())) for k, b in pools.items()}
    if sizes != {k: sum(map(len, b.values())) for k, b in vg.point_pools().items()}:
        return None

    def key(g):
        return cycle_type(g), cycle_length_at(g, 0)

    first_key = max(sizes, key=lambda k: (k[1], -sizes[k]))
    seq = [vg.elements[next(iter(vg.point_pools()[first_key].values()))[0]]]
    while len(orbit_of_0(seq)) < n:
        seq.append(max(G.generators, key=lambda g: (len(orbit_of_0(seq + [g])), -sizes[key(g)])))
    first = vm.point_pool_reps(first_key, [vm._index[h] for h in M_sub.generators])
    els = vm.elements

    def search(pairs, sigma, hit, orbit):
        t = len(pairs)
        if len(orbit) == n:
            s = make_perm(sigma)
            s_inv = inverse(s)
            if all(compose(s, compose(g, s_inv)) in vm._index for g in G.generators):
                return s
            return None
        g = seq[t]
        pool = pools[key(g)]
        if t == 0:
            cands = first
        elif sigma[g[0]] >= 0:
            # f(g) sends s(0) = 0 to s(g 0)
            cands = pool.get(sigma[g[0]], ())
        else:
            cands = [c for v, group in pool.items() if not hit[v] for c in group]
        for c in cands:
            chosen = pairs + [(g, els[c])]
            state = _extend_point_map(chosen, sigma, hit, orbit)
            if state is not None:
                s = search(chosen, *state)
                if s is not None:
                    return s
        return None

    hit = bytearray(n)
    hit[0] = 1
    return search([], [0] + [-1] * (n - 1), hit, [0])


def _extend_point_map(pairs, sigma, hit, orbit):
    """The point map extended along the last (g, f(g)) of ``pairs`` from the
    points it covers, and along every pair from the points that adds; None
    once a point gets two images or two points one."""
    sigma, hit, orbit = sigma[:], hit[:], orbit[:]
    old = len(orbit)
    for pos, x in enumerate(orbit):
        sx = sigma[x]
        for g, m in pairs[-1:] if pos < old else pairs:
            y, v = g[x], m[sx]
            s = sigma[y]
            if s < 0:
                if hit[v]:
                    return None
                sigma[y] = v
                hit[v] = 1
                orbit.append(y)
            elif s != v:
                return None
    return sigma, hit, orbit


def _witness_from(va, vb, gens, images) -> PairWitness:
    mapping = tuple(
        (va.elements[g], vb.elements[h]) for g, h in zip(gens, images)
    )
    return PairWitness(mapping, True)


def _replay_verifies(va, vb, full_map, sub_a=None, sub_b=None) -> bool:
    """Re-check a found map f: bijective, multiplicative (f(g a) = f(g) f(a)
    for every generator g and element a), subgroup onto subgroup.  The
    products compose permutations on permutation-backed views, so the
    replay builds no Cayley row."""
    if len(full_map) != va.size or len(set(full_map.values())) != vb.size:
        return False
    images = [full_map[a] for a in range(va.size)]
    for g in va.generators():
        products = va.left_multiples(g, range(va.size))
        if [images[x] for x in products] != vb.left_multiples(full_map[g], images):
            return False
    if sub_a is not None:
        if {full_map[x] for x in sub_a} != set(sub_b):
            return False
    return True


def find_isomorphism(
    G: PermGroup, M: PermGroup, *, max_order: int = DEFAULT_ISO_BOUND
) -> PairWitness | None:
    """A verified isomorphism G -> M, or None when none exists."""
    if G.order() != M.order():
        return None
    va, vb = _bounded_views(G, M, max_order)
    if va.invariant_vector() != vb.invariant_vector():
        return None
    for gens, images, full in isomorphisms(va, vb, first_only=True):
        if not _replay_verifies(va, vb, full):
            raise PreconditionError("isomorphism replay failed")
        return _witness_from(va, vb, gens, images)
    return None


def pair_isomorphic(
    G: PermGroup,
    G_sub: PermGroup,
    M: PermGroup,
    M_sub: PermGroup,
    *,
    max_order: int = DEFAULT_ISO_BOUND,
) -> PairWitness | None:
    """A verified isomorphism G -> M with image of G_sub equal to M_sub."""
    if G.order() != M.order() or G_sub.order() != M_sub.order():
        return None
    va, vb = _bounded_views(G, M, max_order)
    by_cycle_type = (
        G.degree == M.degree
        and is_point_stabilizer_pair(G, G_sub)
        and is_point_stabilizer_pair(M, M_sub)
    )
    if by_cycle_type and point_map(G, M, M_sub) is None:
        return None
    sub_a = _subgroup_indices(va, G_sub)
    sub_b = _subgroup_indices(vb, M_sub)
    if not by_cycle_type and (
        va.invariant_vector() != vb.invariant_vector()
        or va.subgroup_order_histogram(sub_a) != vb.subgroup_order_histogram(sub_b)
    ):
        return None
    for gens, images, full in isomorphisms(
        va, vb, sub_a=sub_a, sub_b=sub_b, first_only=True, by_cycle_type=by_cycle_type
    ):
        if not _replay_verifies(va, vb, full, sub_a, sub_b):
            raise PreconditionError("pair isomorphism replay failed")
        return _witness_from(va, vb, gens, images)
    return None


def permutation_pair_of_quotient(G: PermGroup, H: PermGroup):
    """The transitive pair (J, J') of the action of G on the cosets of H:
    J = G/Core_G(H) acting faithfully on [G:H] points, J' = Stab_J(0)."""
    action = coset_action(G, H)
    J = action.image
    j_sub = PermGroup(J.degree, [action.image_of_element(h) for h in H.generators])
    return J, j_sub
