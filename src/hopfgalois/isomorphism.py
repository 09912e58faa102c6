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
view, so no order bound applies to them.  The same backtrack decides
which subgroups of one transitive group an automorphism keeping Stab(0)'s
class carries into which classes, on the group's points and one
subgroup's cosets side by side (``TwoBlockMaps``).

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
from .perms import compose, cycle_length_at, cycle_type, inverse, make_perm, orbit_of

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
    so does h s for h in M_sub); conjugacy-class representatives of G follow
    while they add points (they generate G, as no proper subgroup meets
    every class).  Their images are chosen among M's elements of the same
    key, one at a time (``_point_search``).  So s depends on G's element set,
    not on its generators.  A total s that conjugates G's generators into M
    conjugates G onto M, since the orders agree.
    """
    vg, vm = view_of(G), view_of(M)
    pools = vm.point_pools()
    sizes = _pool_sizes(pools)
    if sizes != _pool_sizes(vg.point_pools()):
        return None

    def key(g):
        return cycle_type(g), cycle_length_at(g, 0)

    first_key = _first_key(sizes)
    els = vg.elements
    seq = _covering_sequence(
        els[next(iter(vg.point_pools()[first_key].values()))[0]],
        [els[c[0]] for c in vg.conj_classes()], (0,), lambda g: sizes[key(g)],
    )
    first = vm.point_pool_reps(first_key, [vm._index[h] for h in M_sub.generators])

    def conjugates(s):
        s_inv = inverse(s)
        return all(compose(s, compose(g, s_inv)) in vm._index for g in G.generators)

    sigma = [0] + [-1] * (G.degree - 1)
    maps = _point_search(seq, [key(g) for g in seq], pools, first, vm.elements.__getitem__, sigma)
    return next(filter(conjugates, maps), None)


def _pool_sizes(pools) -> dict:
    return {k: sum(map(len, b.values())) for k, b in pools.items()}


def _first_key(sizes):
    """The key of the first element mapped: the longest cycle through 0
    (the key's second part), then the fewest elements."""
    return max(sizes, key=lambda k: (k[1], -sizes[k]))


def _covering_sequence(first, gens, start, weight) -> list:
    """``first``, then generators from ``gens`` while the orbit of the
    points ``start`` is not every point: each time the one whose orbit is
    largest, of least ``weight`` among those."""
    npts = len(first)
    seq = [first]
    while len(orbit_of(seq, start)) < npts:
        seq.append(max(gens, key=lambda g: (len(orbit_of(seq + [g], start)), -weight(g))))
    return seq


class TwoBlockMaps:
    """Automorphisms of a transitive group G that keep the class of
    S = Stab_G(0), as point maps of G acting on its points and on the
    cosets of a subgroup side by side.

    ``actions[i]`` is the action rho_i of G on the cosets of a subgroup
    H_i, all of one index n; G acts on [d] + G/H_i (the cosets as the points
    d.., the coset H_i as d) by g + rho_i(g).  ``exists(i, j)`` says whether
    some automorphism a of G with a(S) ~ S has a(H_i) ~ H_j.  That holds
    exactly when a point bijection s of [d] + G/H_i onto [d] + G/H_j with
    s(0) = 0 conjugates each g + rho_i(g) to a(g) + rho_j(a(g)): a, changed
    by an inner automorphism to fix S, is conjugation by a bijection of [d]
    fixing 0, and g H_i -> a(g) x H_j (for a(H_i) = x H_j x^-1) is the
    second block; conversely the first block of s gives a with a(S) = S,
    and a(H_i) is the stabilizer of s(d), a conjugate of H_j.

    s is sought by ``_point_search``, seeded with s(0) = 0 and s(d) = c for
    each point c of the second block.  Candidate images are keyed by
    (cycle type on [d], cycle length through 0, cycle type on G/H), whose
    last part is taken once per conjugacy class of G; the first image is
    chosen only up to conjugation by S, as h s works for h in S when s
    does.  Answers are cached, and the test is symmetric.
    """

    def __init__(self, G: PermGroup, actions):
        self.view = view_of(G)
        self.degree = G.degree
        self.actions = actions
        self.gens = [self.view._index[g] for g in G.generators]
        self.stab_gens = [self.view._index[h] for h in G.point_stabilizer(0).generators]
        self._pools = {}
        self._perms = [{} for _ in actions]
        self._answers = {}

    def exists(self, i: int, j: int) -> bool:
        if i == j:
            return True
        pair = (min(i, j), max(i, j))
        found = self._answers.get(pair)
        if found is None:
            found = self._answers[pair] = self._search(*pair) is not None
        return found

    def _joined(self, i, x):
        """g + rho_i(g) for the element g of index x."""
        perm = self._perms[i].get(x)
        if perm is None:
            g = self.view.elements[x]
            d = self.degree
            images = list(g)
            images.extend(d + v for v in self.actions[i].image_of_element(g))
            perm = self._perms[i][x] = make_perm(images)
        return perm

    def _pools_of(self, i):
        """Key -> image of point 0 -> elements, the key sizes and the cycle
        type on G/H_i per conjugacy class of G."""
        got = self._pools.get(i)
        if got is None:
            view = self.view
            els = view.elements
            image = self.actions[i].image_of_element
            types = [cycle_type(image(els[c[0]])) for c in view.conj_classes()]
            class_of = view._class_of
            pools = {}
            for (t, length), pool in view.point_pools().items():
                for v, group in pool.items():
                    for x in group:
                        key = (t, length, types[class_of[x]])
                        pools.setdefault(key, {}).setdefault(v, []).append(x)
            got = self._pools[i] = (pools, _pool_sizes(pools), types)
        return got

    def _search(self, i, j):
        """A point map s for the pair (i, j), or None."""
        pools, sizes, types_i = self._pools_of(i)
        target, target_sizes, types_j = self._pools_of(j)
        if sizes != target_sizes:
            return None
        view, d = self.view, self.degree
        els, class_of, ctypes = view.elements, view._class_of, view.cycle_types()
        first_key = _first_key(sizes)
        source = [next(iter(pools[first_key].values()))[0]] + self.gens
        key_of = {
            self._joined(i, x): (ctypes[x], cycle_length_at(els[x], 0), types_i[class_of[x]])
            for x in source
        }
        seq = _covering_sequence(
            self._joined(i, source[0]),
            [self._joined(i, x) for x in self.gens],
            (0, d),
            lambda g: sizes[key_of[g]],
        )
        t, length, u = first_key
        first = [
            x for x in view.point_pool_reps((t, length), self.stab_gens)
            if types_j[class_of[x]] == u
        ]

        def image(x):
            return self._joined(j, x)

        def conjugates(s):
            s_inv = inverse(s)
            for x in self.gens:
                m = compose(s, compose(self._joined(i, x), s_inv))
                y = view._index.get(make_perm(m[:d]))
                if y is None or self._joined(j, y) != m:
                    return False
            return True

        keys = [key_of[g] for g in seq]
        npts = len(seq[0])
        for c in range(d, npts):
            sigma = [-1] * npts
            sigma[0], sigma[d] = 0, c
            maps = _point_search(seq, keys, target, first, image, sigma)
            s = next(filter(conjugates, maps), None)
            if s is not None:
                return s
        return None


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
        sub_a, sub_b = _subgroup_indices(va, G_sub), _subgroup_indices(vb, M_sub)
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
