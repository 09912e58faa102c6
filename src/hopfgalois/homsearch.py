"""Backtracking for isomorphisms between finite groups, as point maps.

One backtrack, ``_point_search``, serves every isomorphism search of the
package.  It is a generator: it yields the bijections s of points that
conjugate one permutation group onto another, in search order and only
as far as the caller reads.  It chooses one generator image at a time
and extends s along each choice by s(g x) = f(g) s(x).  Callers that
need more than conjugation of the sequence it is given filter what it
yields.

``isomorphisms`` runs it on left-regular actions: an isomorphism
phi: A -> B is exactly a point map s = phi of A's indices onto B's that
fixes the identity and conjugates lambda(A) onto lambda(B) (Dixon and
Mortimer, *Permutation Groups*, 1.6).  The generating sequence of A can
be adapted to a designated subgroup (its generators come first and their
images are restricted to the designated target subgroup).  A generator's
candidate images are the target elements with its fingerprint, (order,
conjugacy class size), in index order, so solutions come in lexicographic
order of the generator images.  A target element's left-regular
permutation is composed from the target's own permutations, so the
search builds no Cayley row there.

``isomorphism.point_map`` and ``isomorphism.normalizing_maps`` run the
same backtrack on the points a transitive group acts on.
"""

from __future__ import annotations

from .engine import GroupView
from .perms import make_perm


def _adapted_generators(view: GroupView, sub: frozenset | None):
    """Generating sequence of the whole view; if ``sub`` is given its
    generators form a prefix.  Returns (gens, cut) with cut = prefix length."""
    if sub is None:
        return list(view.generators()), 0
    sub_gens = view.greedy_generators(sub)
    return list(view.greedy_generators(range(view.size), sub_gens)), len(sub_gens)


def _candidate_pools(A: GroupView, B: GroupView, gens, cut, sub_b):
    fps_a = A.fingerprints()
    fps_b = B.fingerprints()
    buckets = {}
    for j in range(B.size):
        buckets.setdefault(fps_b[j], []).append(j)
    pools = []
    for t, g in enumerate(gens):
        pool = buckets.get(fps_a[g], [])
        if t < cut:
            pool = [j for j in pool if j in sub_b]
        pools.append(pool)
    return pools


def isomorphisms(
    A: GroupView,
    B: GroupView,
    *,
    sub_a: frozenset | None = None,
    sub_b: frozenset | None = None,
):
    """Yield isomorphisms A -> B as ``(gens, gen_images, full_map)``, each
    as the search finds it.

    ``full_map`` maps every A-index to its B-index.  With ``sub_a``/
    ``sub_b`` given, only isomorphisms carrying sub_a onto sub_b are
    produced (sub_a must be a subgroup of A, sub_b of B).

    The map is a point map s of A's indices onto B's with s(0) = 0: the
    identity permutation sorts first, so the identity is index 0 on every
    view, and lambda(b) sends it to b.  So the pool of a generator's image
    is {b: [b]} over its candidates b, and the left-regular permutation of
    b is composed once per search.
    """
    if A.size != B.size:
        return
    if (sub_a is None) != (sub_b is None):
        raise ValueError("sub_a and sub_b must be given together")
    if sub_a is not None and len(sub_a) != len(sub_b):
        return
    if A.size == 1:
        yield [], [], {A.identity: B.identity}
        return
    gens, cut = _adapted_generators(A, sub_a)
    pools = _candidate_pools(A, B, gens, cut, sub_b)
    if any(not p for p in pools):
        return
    points = range(A.size)
    rows = {}

    def image(j):
        row = rows.get(j)
        if row is None:
            row = rows[j] = B.left_multiples(j, points)
        return row

    for s in _point_search(
        [A.left_multiples(g, points) for g in gens],
        range(len(gens)),
        [{j: [j] for j in pool} for pool in pools],
        pools[0],
        image,
    ):
        yield list(gens), [s[g] for g in gens], dict(enumerate(s))


def automorphisms(view: GroupView):
    """All automorphisms as full maps."""
    return [full for _, _, full in isomorphisms(view, view)]


def _point_search(seq, keys, pools, first, image):
    """The backtrack behind ``isomorphisms``, ``point_map`` and
    ``normalizing_maps``: yield, in search order, every bijection s of the
    points with s(0) = 0 that conjugates each g of ``seq`` to a chosen
    f(g), through s(g x) = f(g) s(x); ``seq`` moves point 0 onto every
    point.

    f(seq[0]) runs over ``first``; f(g) for a later g over ``pools[key]``
    (key -> image of point 0 -> entries) for g's key in ``keys``, and only
    over the entries that send s(0) to s(g 0) once that is known.  Entries
    become permutations by ``image``.  After each choice s is extended by
    breadth-first search from the points it covers, and the choice is
    dropped once s is not well defined or not injective.  The search goes
    no further than the caller reads."""
    npts = len(seq[0])
    sigma = [0] + [-1] * (npts - 1)
    hit = bytearray(npts)
    hit[0] = 1
    orbit = [0]

    def search(pairs, sigma, hit, orbit):
        t = len(pairs)
        if len(orbit) == npts:
            yield make_perm(sigma)
            return
        g = seq[t]
        if t == 0:
            cands = first
        else:
            pool = pools[keys[t]]
            if sigma[g[0]] >= 0:
                # f(g) sends s(0) to s(g 0)
                cands = pool.get(sigma[g[0]], ())
            else:
                cands = [c for v, group in pool.items() if not hit[v] for c in group]
        for c in cands:
            chosen = pairs + [(g, image(c))]
            state = _extend_point_map(chosen, sigma, hit, orbit)
            if state is not None:
                yield from search(chosen, *state)

    try:
        yield from search([], sigma, hit, orbit)
    finally:
        search = None  # break the cycle through its own closure cell


def _extend_point_map(pairs, sigma, hit, orbit):
    """The point map extended along the last (g, f(g)) of ``pairs`` from the
    points it covers, and along every pair from the points that adds; None
    once a point gets two images or two points one.  The two walks take
    turns, so a relation between the last pair and the others is checked
    after a few points: on a left-regular action the points covered before
    are a whole subgroup, which the last pair alone maps onto a new coset
    without a single check."""
    sigma, hit, orbit = sigma[:], hit[:], orbit[:]
    old = len(orbit)
    last = pairs[-1:]
    i, j = 0, old  # the next point covered before, the next point added
    while i < old or j < len(orbit):
        if j < len(orbit) and (i == old or j - old < i):
            x, batch = orbit[j], pairs
            j += 1
        else:
            x, batch = orbit[i], last
            i += 1
        sx = sigma[x]
        for g, m in batch:
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
