"""Abstract isomorphism and designated-subgroup ("pair") isomorphism tests.

A pair (G, G') is isomorphic to (M, M') when some abstract isomorphism
G -> M carries G' onto M'.  Every test runs the point-map backtrack of
``homsearch``.

When both pairs are (transitive group, stabilizer of point 0) on one
degree, every pair isomorphism is conjugation by a bijection of the points
fixing 0 (the two actions are equivalent to the actions on the cosets of
the stabilizers).  Such pairs are decided by searching for that bijection
on the points (``point_map``), and the bijection s is the witness:
g -> s g s^-1, listed on the target's generators.  They build no Cayley
view, so no order bound applies to them.  The same search, run of a
transitive group onto itself one level at a time, finds maps that
generate all the point maps normalizing it (``normalizing_maps``), from
which ``subgroups.classify_index_n`` reads the automorphisms keeping
Stab(0)'s class.

Every other test (``find_isomorphism``, and pairs of another shape) takes
one route, ``_regular_search``: it views both groups, held to an order
bound, and searches the left-regular actions (``homsearch.isomorphisms``),
with the generating sequence adapted to the designated subgroup, if any,
so the constraint prunes instead of multiplying work; the map it finds
is re-verified by replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import view_of
from .errors import PreconditionError, ResourceLimitError
from .homsearch import _point_search, isomorphisms
from .permgroup import PermGroup, coset_action
from .perms import compose, cycle_length_at, cycle_type, inverse, orbit_of

DEFAULT_ISO_BOUND = 10_000


@dataclass(frozen=True)
class PairWitness:
    """Generator-image list defining an isomorphism, with subgroup data.

    ``mapping`` pairs source generators with their images (permutations of
    the respective groups' points).  Every witness is verified when it is
    made: the map extends to a bijective homomorphism carrying the
    designated subgroup onto its target, because it was replayed or is
    conjugation by a point map (see ``pair_isomorphic``).
    """

    mapping: tuple


def _bounded_views(G, M):
    if G.order() > DEFAULT_ISO_BOUND or M.order() > DEFAULT_ISO_BOUND:
        raise ResourceLimitError(
            f"isomorphism search bound exceeded: orders {G.order()}, {M.order()} "
            f"> {DEFAULT_ISO_BOUND}"
        )
    return view_of(G), view_of(M)


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
    so does h s for h in M_sub); conjugacy-class representatives of G follow
    while they add points (they generate G, as no proper subgroup meets
    every class).  Their images are chosen among M's elements of the same
    key, one at a time (``_point_search``).  So s depends on G's element set,
    not on its generators.  A total s that conjugates G's generators into M
    conjugates G onto M, since the orders agree.
    """
    search = _point_search_inputs(G, M, M_sub)
    if search is None:
        return None
    *inputs, conjugates = search
    return next(filter(conjugates, _point_search(*inputs)), None)


def _point_search_inputs(G, M, M_sub):
    """``point_map``'s arguments of ``_point_search`` (its sequence, their
    keys, M's pools, the first images, M's elements) and its check of a
    total map; None when the key counts differ."""
    vg, vm = view_of(G), view_of(M)
    pools = vm.point_pools()
    sizes = _pool_sizes(pools)
    if sizes != _pool_sizes(vg.point_pools()):
        return None

    def key(g):
        return cycle_type(g), cycle_length_at(g, 0)

    # the first element mapped has the longest cycle through 0, then the
    # fewest elements of its key
    first_key = max(sizes, key=lambda k: (k[1], -sizes[k]))
    # then class representatives while the orbit of 0 is not every point:
    # each time one whose orbit is largest, of fewest elements of its key
    els = vg.elements
    seq = [els[next(iter(vg.point_pools()[first_key].values()))[0]]]
    reps = [els[c[0]] for c in vg.conj_classes()]
    while len(orbit_of(seq)) < G.degree:
        seq.append(max(reps, key=lambda g: (len(orbit_of(seq + [g])), -sizes[key(g)])))
    first = vm.point_pool_reps(first_key, [vm._index[h] for h in M_sub.generators])

    def conjugates(s):
        s_inv = inverse(s)
        return all(compose(s, compose(g, s_inv)) in vm._index for g in G.generators)

    return seq, [key(g) for g in seq], pools, first, vm.elements.__getitem__, conjugates


def normalizing_maps(G: PermGroup, G_sub: PermGroup) -> list:
    """Point maps s with s(0) = 0 and s G s^-1 = G that generate, with
    G_sub = Stab_G(0), the group N_0 of all such maps.

    s is fixed by the images f(g_t) = s g_t s^-1 of ``point_map``'s
    sequence g_0, g_1, ..., so N_0 is generated by one map for each image
    of g_t under N_0^(t), the maps fixing g_0 .. g_{t-1} (Sims' method).
    From the last level t on, each image not given by the maps kept so far
    (and G_sub at t = 0, whose first images are taken up to it) is sought
    by one ``_point_search`` with the images of g_0 .. g_t set, which stops
    at its first map."""
    seq, keys, pools, first, image, conjugates = _point_search_inputs(G, G, G_sub)
    view = view_of(G)
    els, index = view.elements, view._index
    fixed = [index[g] for g in seq]
    found = []
    for t in reversed(range(len(seq))):
        pool = [x for group in pools[keys[t]].values() for x in group]

        def conjugation(k):
            k_inv = inverse(k)
            return {x: index[compose(k, compose(els[x], k_inv))] for x in pool}

        maps = [conjugation(k) for k in found + list(G_sub.generators if t == 0 else ())]
        reached = set(orbit_of(maps, fixed[t:t + 1]))
        for c in first if t == 0 else pool:
            if c in reached:
                continue
            images = fixed[:t] + [c]
            level = [{els[x][0]: [x]} for x in images] + [pools[k] for k in keys[t + 1:]]
            search = _point_search(seq, range(len(seq)), level, images[:1], image)
            s = next(filter(conjugates, search), None)
            if s is not None:
                found.append(s)
                maps.append(conjugation(s))
                reached = set(orbit_of(maps, fixed[t:t + 1]))
    return found


def _pool_sizes(pools) -> dict:
    return {k: sum(map(len, b.values())) for k, b in pools.items()}


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


def _regular_search(G, G_sub, M, M_sub) -> PairWitness | None:
    """A witness of an isomorphism G -> M carrying G_sub onto M_sub (with
    no subgroup condition when both are None), from the search on the
    left-regular actions of both groups' views, held to ``DEFAULT_ISO_BOUND``.
    The map found is replayed before the witness is built."""
    if G.order() != M.order():
        return None
    va, vb = _bounded_views(G, M)
    sub_a = sub_b = None
    if G_sub is not None:
        sub_a, sub_b = va.subgroup_indices(G_sub), vb.subgroup_indices(M_sub)
    if va.invariant_vector() != vb.invariant_vector() or (
        sub_a is not None
        and va.subgroup_order_histogram(sub_a) != vb.subgroup_order_histogram(sub_b)
    ):
        return None
    for gens, images, full in isomorphisms(va, vb, sub_a=sub_a, sub_b=sub_b):
        if not _replay_verifies(va, vb, full, sub_a, sub_b):
            raise PreconditionError("isomorphism replay failed")
        mapping = tuple((va.elements[g], vb.elements[h]) for g, h in zip(gens, images))
        return PairWitness(mapping)
    return None


def find_isomorphism(G: PermGroup, M: PermGroup) -> PairWitness | None:
    """A verified isomorphism G -> M, or None when none exists."""
    return _regular_search(G, None, M, None)


def pair_isomorphic(
    G: PermGroup,
    G_sub: PermGroup,
    M: PermGroup,
    M_sub: PermGroup,
) -> PairWitness | None:
    """A verified isomorphism G -> M with image of G_sub equal to M_sub.

    Two (transitive group, Stab(0)) pairs of one degree and order are
    decided by ``point_map``.  A point map s certifies the witness: the map
    g -> s g s^-1 fixes 0, so carries G_sub onto M_sub, and maps G into M,
    onto as |G| = |M|.  It is given as (s^-1 m s, m) for M's generators m,
    with no view bound or replay.  Every other pair shape goes through
    the search on the left-regular actions, held to ``DEFAULT_ISO_BOUND``, as
    ``find_isomorphism`` does."""
    if G.order() != M.order() or G_sub.order() != M_sub.order():
        return None
    if (
        G.degree == M.degree
        and is_point_stabilizer_pair(G, G_sub)
        and is_point_stabilizer_pair(M, M_sub)
    ):
        s = point_map(G, M, M_sub)
        if s is None:
            return None
        s_inv = inverse(s)
        return PairWitness(tuple((compose(s_inv, compose(m, s)), m) for m in M.generators))
    return _regular_search(G, G_sub, M, M_sub)


def permutation_pair_of_quotient(G: PermGroup, H: PermGroup):
    """The transitive pair (J, J') of the action of G on the cosets of H:
    J = G/Core_G(H) acting faithfully on [G:H] points, J' = Stab_J(0).
    |J'| = |G| / (|Core_G(H)| [G:H]) needs no chain of J."""
    action = coset_action(G, H)
    J = action.image
    j_sub = PermGroup(
        J.degree,
        [action.image_of_element(h) for h in H.generators],
        G.order() // (action.kernel_order * J.degree),
    )
    return J, j_sub
