"""Independent brute-force oracles.

Everything here recomputes results from first principles (closures over
full element sets, exhaustive searches over bijections) without touching
the stabilizer chains, lattice walk, or backtracking engine, so the fast
paths can be checked against it on small inputs.
"""

from __future__ import annotations

import itertools
from functools import partial

from hopfgalois.perms import compose, identity, inverse, perm_order


def mulclose(gens, degree):
    els = {identity(degree)}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return els


def brute_order(G) -> int:
    return len(mulclose(G.generators, G.degree))


def brute_membership(G, p) -> bool:
    return p in mulclose(G.generators, G.degree)


def brute_orbit(G, point) -> set:
    return {p[point] for p in mulclose(G.generators, G.degree)}


def brute_stabilizer(G, point) -> set:
    return {p for p in mulclose(G.generators, G.degree) if p[point] == point}


def brute_all_subgroups(G) -> set:
    """Every subgroup, by closing generator sets grown one element at a time."""
    els = sorted(mulclose(G.generators, G.degree))
    subs = {frozenset({identity(G.degree)})}
    frontier = list(subs)
    while frontier:
        new = []
        for S in frontier:
            for x in els:
                if x in S:
                    continue
                T = _close(set(S) | {x})
                if T not in subs:
                    subs.add(T)
                    new.append(T)
        frontier = new
    return subs


def _close(seed):
    """Close a set under multiplication (every seed element is a generator)."""
    gens = [g for g in seed if not all(i == x for i, x in enumerate(g))]
    els = set(seed)
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = compose(g, a)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return frozenset(els)


def brute_subgroup_classes(G) -> list[set]:
    """Conjugacy classes of subgroups, as sets of frozensets."""
    subs = brute_all_subgroups(G)
    gens = G.generators
    seen = set()
    classes = []
    for S in sorted(subs, key=lambda s: (len(s), tuple(sorted(s)))):
        if S in seen:
            continue
        orbit = {S}
        queue = [S]
        while queue:
            T = queue.pop()
            for g in gens:
                gi = inverse(g)
                U = frozenset(compose(g, compose(x, gi)) for x in T)
                if U not in orbit:
                    orbit.add(U)
                    queue.append(U)
        seen |= orbit
        classes.append(orbit)
    return classes


def brute_core(G, H) -> frozenset:
    """Intersection of all conjugates of H in G."""
    gels = mulclose(G.generators, G.degree)
    hels = mulclose(H.generators, H.degree)
    core = set(hels)
    for g in gels:
        gi = inverse(g)
        core &= {compose(g, compose(x, gi)) for x in hels}
    return frozenset(core)


def brute_normalizer(G, H) -> set:
    gels = mulclose(G.generators, G.degree)
    hels = mulclose(H.generators, H.degree)
    out = set()
    for g in gels:
        gi = inverse(g)
        if {compose(g, compose(x, gi)) for x in hels} == hels:
            out.add(g)
    return out


def brute_pair_isomorphisms(G, G_sub, M, M_sub, first_only=True):
    """Isomorphisms G -> M carrying G_sub onto M_sub, by searching all
    generator-image assignments filtered only by element order."""
    gels = sorted(mulclose(G.generators, G.degree))
    mels = sorted(mulclose(M.generators, M.degree))
    if len(gels) != len(mels):
        return []
    gsub = frozenset(mulclose(G_sub.generators, G.degree))
    msub = frozenset(mulclose(M_sub.generators, M.degree))
    if len(gsub) != len(msub):
        return []
    gens = _greedy_gens(gels, G.degree)
    out = []
    pools = []
    for g in gens:
        o = perm_order(g)
        pools.append([m for m in mels if perm_order(m) == o])
    for images in itertools.product(*pools):
        phi = _extend_hom(gens, images, gels, G.degree)
        if phi is None:
            continue
        if len(set(phi.values())) != len(mels):
            continue
        if {phi[x] for x in gsub} != msub:
            continue
        out.append(phi)
        if first_only:
            return out
    return out


def brute_isomorphic(G, M) -> bool:
    gels = sorted(mulclose(G.generators, G.degree))
    trivial_sub_g = type(G)(G.degree, [])
    trivial_sub_m = type(M)(M.degree, [])
    return bool(brute_pair_isomorphisms(G, trivial_sub_g, M, trivial_sub_m))


def _greedy_gens(els, degree):
    gens = []
    have = {identity(degree)}
    for x in sorted(els, key=lambda p: (-perm_order(p), p)):
        if x in have:
            continue
        gens.append(x)
        have = mulclose(gens, degree)
        if len(have) == len(els):
            break
    return gens


def _extend_hom(gens, images, gels, degree):
    """Extend generator images to a homomorphism, or None on conflict."""
    phi = {identity(degree): identity(degree)}
    frontier = [identity(degree)]
    pairs = dict(zip(gens, images))
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                img = compose(pairs[g], phi[x])
                if y in phi:
                    if phi[y] != img:
                        return None
                else:
                    phi[y] = img
                    new.append(y)
        frontier = new
    if len(phi) != len(gels):
        return None
    for x in gels:
        for g in gens:
            if phi[compose(g, x)] != compose(pairs[g], phi[x]):
                return None
    return phi


def witness_replays(mapping, G, G_sub, M, M_sub) -> bool:
    """Whether the generator images of a pair witness between groups of one
    degree extend, by closure under compose alone, to a bijective
    homomorphism G -> M that carries G_sub onto M_sub."""
    gels = G.elements()
    phi = _extend_hom([a for a, _ in mapping], [b for _, b in mapping], gels, G.degree)
    return (
        phi is not None
        and set(phi) == set(gels)
        and set(phi.values()) == set(M.elements())
        and len(gels) == M.order()
        and {phi[h] for h in G_sub.elements()} == set(M_sub.elements())
    )


# -- the matching scan before keyed lookup ----------------------------------
#
# Unlike the oracles above this one runs the package's lattice and
# backtracking engine: it is the slow path that analyze_parallel replaced,
# kept as its reference.  Every same-order catalogue entry is pair-tested in
# catalogue order, and candidate images are chosen by (element order,
# conjugacy class size) alone.


def same_order_scan(entry, catalogue):
    """Per index-n class of the entry, in analyze_parallel's order:
    (core order, matched entry id or None, witness mapping or None,
    no_hgs, scanned entry ids)."""
    from hopfgalois.isomorphism import permutation_pair_of_quotient
    from hopfgalois.permgroup import normal_core
    from hopfgalois.subgroups import class_key_of, index_n_subgroup_classes

    G = entry.group
    stab_key = class_key_of(G, entry.stabilizer)
    out = []
    for cls in index_n_subgroup_classes(G, entry.degree):
        H = cls.representative
        if cls.key == stab_key:
            identity_map = tuple((g, g) for g in G.generators)
            out.append((1, entry.entry_id, identity_map, False, (entry.entry_id,)))
            continue
        core = normal_core(G, H).order()
        J, J_sub = permutation_pair_of_quotient(G, H)
        same = [e for e in catalogue if e.order == J.order()]
        for k, cand in enumerate(same):
            mapping = _fingerprint_pair_witness(J, J_sub, cand.group, cand.stabilizer)
            if mapping is not None:
                scanned = tuple(e.entry_id for e in same[: k + 1])
                out.append((core, cand.entry_id, mapping, False, scanned))
                break
        else:
            out.append((core, None, None, True, tuple(e.entry_id for e in same)))
    return out


def _fingerprint_pair_witness(G, G_sub, M, M_sub, by_cycle_type=False):
    """The first pair isomorphism found with (order, class size) candidates,
    narrowed by cycle type when ``by_cycle_type`` (through row_isomorphisms,
    as the package's search has no such filter)."""
    from hopfgalois.engine import view_of
    from hopfgalois.homsearch import isomorphisms

    if G.order() != M.order() or G_sub.order() != M_sub.order():
        return None
    va, vb = view_of(G), view_of(M)
    sub_a = frozenset(va._index[h] for h in G_sub.elements())
    sub_b = frozenset(vb._index[h] for h in M_sub.elements())
    if va.invariant_vector() != vb.invariant_vector():
        return None
    if va.subgroup_order_histogram(sub_a) != vb.subgroup_order_histogram(sub_b):
        return None
    search = partial(row_isomorphisms, by_cycle_type=True) if by_cycle_type else isomorphisms
    for gens, images, _ in search(va, vb, sub_a=sub_a, sub_b=sub_b):
        return tuple((va.elements[g], vb.elements[h]) for g, h in zip(gens, images))
    return None


# -- the point-stabilizer pair test before the point-map decider --------------
#
# Like same_order_scan, this runs the package's backtracking engine: it is
# the path pair_isomorphic took for two (transitive group, Stab(0)) pairs
# of one degree before point_map decided them, kept as its reference.


def cycle_type_pair_search(G, G_sub, M, M_sub) -> bool:
    """Whether the invariant prefilters pass and the generator-image search
    with cycle-type candidates finds a pair isomorphism."""
    return _fingerprint_pair_witness(G, G_sub, M, M_sub, by_cycle_type=True) is not None


# -- the perfect-subgroup sweep before seeding inside the perfect residual ----
#
# Like same_order_scan, this runs the package's engine: it is the body of
# the lattice's perfect-subgroup seeding before the sweep moved into
# G^(oo) and halved its pairs, kept as its reference.  It closes <x, y>
# for every class representative x and every orbit of x's centralizer.


def perfect_subgroups(view):
    """Perfect subgroups up to conjugacy, via 2-generated sweeps plus a
    residual closure round.  Subgroups whose order forces solvability
    are dismissed without computing a derived series."""
    from hopfgalois.subgroups import _order_forces_solvable

    size = view.size
    classes = view.conj_classes()
    orders = view.element_orders()
    found: dict[frozenset, None] = {}
    residual_cache: dict[frozenset, frozenset] = {}

    def residual(S):
        if _order_forces_solvable(len(S)):
            return None
        R = residual_cache.get(S)
        if R is None:
            R = view.perfect_residual(S)
            residual_cache[S] = R
        return R

    def note(S):
        R = residual(S)
        if R is not None and len(R) > 1:
            found.setdefault(R)
            return R
        return None

    reps = [c[0] for c in classes if orders[c[0]] > 1]
    for x in reps:
        cent = view.centralizer_elements(x)
        cent_gens = view.greedy_generators(cent)
        cmaps = [view.conjugation_map(g) for g in cent_gens]
        seen_y = set()
        for y in range(size):
            if y in seen_y:
                continue
            orbit = [y]
            seen_y.add(y)
            pos = 0
            while pos < len(orbit):
                z = orbit[pos]
                pos += 1
                for m in cmaps:
                    w = m[z]
                    if w not in seen_y:
                        seen_y.add(w)
                        orbit.append(w)
            S = view.closure([x, y], maxsize=size)
            if S is None or size % len(S) != 0:
                continue
            note(S)
    # residual closure: extend each perfect subgroup by single elements
    frontier = list(found)
    while frontier:
        new = []
        for P in frontier:
            pgens = view.greedy_generators(P)
            for c in classes:
                g = c[0]
                if g in P or orders[g] == 1:
                    continue
                S = view.closure(list(pgens) + [g], maxsize=size)
                if S is None:
                    continue
                fresh = residual(S)
                if fresh is not None and len(fresh) > 1 and fresh not in found:
                    found.setdefault(fresh)
                    new.append(fresh)
        frontier = new
    return sorted(found, key=lambda S: (len(S), tuple(sorted(S))))


# -- the sweep's pairs before it paired cyclic subgroups ----------------------
#
# Like perfect_subgroups, this runs the package's engine: it is the pair
# loop of subgroups._perfect_subgroups before the sweep paired cyclic
# subgroups up to conjugacy, kept as its reference.  x runs over the
# class representatives and y over one element per orbit of x's
# centralizer in the classes no earlier than x's, by class size.


def centralizer_sweep_pairs(view):
    """The pairs (x, y) the sweep closed before it named cyclic subgroups."""
    classes = sorted(view.conj_classes(), key=len)
    orders = view.element_orders()
    for rank, c in enumerate(classes):
        x = c[0]
        if orders[x] == 1:
            continue
        cmaps = [
            view.conjugation_map(g)
            for g in view.greedy_generators(view.centralizer_elements(x))
        ]
        seen_y = set()
        for y in (y for d in classes[rank:] for y in d):
            if y in seen_y:
                continue
            seen_y.add(y)
            orbit = [y]
            for z in orbit:
                for m in cmaps:
                    w = m[z]
                    if w not in seen_y:
                        seen_y.add(w)
                        orbit.append(w)
            yield x, y


# -- the cyclic-extension loop before it read candidates off power-map preimages --
#
# Like perfect_subgroups, this runs the package's engine: it is the body of
# _Lattice.run before the candidates came from the preimages of the power
# maps and the cosets from composed permutations, kept as its reference.
# It scans every element through the order, prime and power-map filters and
# forms each coset with the view's mul.


def extension_run(lat):
    """Run the lattice ``lat`` (a fresh subgroups._Lattice) to completion."""
    from hopfgalois._numtheory import factorize

    self = lat
    self.seed()
    view = self.view
    mul = view.mul
    orders = view.element_orders()
    while self.worklist:
        cid = self.worklist.pop()
        rec = self.classes[cid]
        U = rec["rep"]
        u_order = rec["order"]
        allowed = [
            p
            for p, _ in factorize(self.size // u_order)
            if self.target % (u_order * p) == 0
        ]
        if not allowed:
            continue
        u_gens = view.greedy_generators(U)
        rec["gens"] = u_gens
        # candidate g with U <| <U, g> of prime index p: g normalizes U
        # and g^p lies in U.  Scan cheap filters first: the order of g^p
        # (= o/gcd(o,p)) must divide |U|.
        covered = set(U)
        for g in range(self.size):
            if g in covered:
                continue
            o = orders[g]
            ext_prime = None
            for p in allowed:
                if u_order % (o // (p if o % p == 0 else 1)) != 0:
                    continue
                if view.power_map(p)[g] in U:
                    ext_prime = p
                    break
            if ext_prime is None:
                continue
            if any(x not in U for x in view.conjugates(g, u_gens)):
                continue
            new_els = set(U)
            coset = [mul(u, g) for u in U]
            new_els.update(coset)
            for _ in range(ext_prime - 2):
                coset = [mul(x, g) for x in coset]
                new_els.update(coset)
            V = frozenset(new_els)
            covered |= V
            self.register(V)


# -- the generator-image search before isomorphisms ran as point maps --------
#
# Like same_order_scan, this runs the package's engine: it is
# homsearch.isomorphisms as a generator-image search over a word schedule,
# before it became a point map of the left-regular actions, kept as its
# reference (with the package's generating sequence and candidate pools, so
# both yield the same sequence).  Every product goes through the target
# view's mul, so it reads (and builds) the target's Cayley rows.


class _Schedule:
    """Word schedule for one prefix <g_1..g_t> of the generating sequence.

    ``ops`` lists (is_check, target, gen_slot, source): with is_check False
    the element at position ``target`` equals gens[slot] * element[source]
    and is being defined; with is_check True it was defined earlier and the
    equality is a consistency requirement.
    """

    __slots__ = ("order", "elements", "ops")

    def __init__(self, view, gens, identity):
        pos = {identity: 0}
        elements = [identity]
        ops = []
        qi = 0
        while qi < len(elements):
            x = elements[qi]
            qi += 1
            for slot, g in enumerate(gens):
                y = view.mul(g, x)
                known = pos.get(y)
                if known is None:
                    pos[y] = len(elements)
                    ops.append((False, len(elements), slot, qi - 1))
                    elements.append(y)
                else:
                    ops.append((True, known, slot, qi - 1))
        self.order = len(elements)
        self.elements = elements
        self.ops = ops


def row_isomorphisms(
    A,
    B,
    *,
    sub_a=None,
    sub_b=None,
    first_only=True,
    by_cycle_type=False,
):
    """Yield isomorphisms A -> B as ``(gens, gen_images, full_map)``.

    ``by_cycle_type`` (views of one degree) keeps only the candidate images
    of each generator's cycle type, as the search did when it produced the
    witness of two point-stabilizer pairs."""
    from hopfgalois.homsearch import _adapted_generators, _candidate_pools

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
    schedules = [_Schedule(A, gens[: t + 1], A.identity) for t in range(len(gens))]
    pools = _candidate_pools(A, B, gens, cut, sub_b)
    if by_cycle_type:
        types_a, types_b = A.cycle_types(), B.cycle_types()
        pools = [[j for j in pool if types_b[j] == types_a[g]] for g, pool in zip(gens, pools)]
    if any(not p for p in pools):
        return
    depth = len(gens)
    bmul = B.mul

    # images of each schedule's elements, stacked per depth
    img_stack: list[list[int]] = []
    gen_imgs: list[int] = []

    def extend(t):
        sched = schedules[t]
        prev_imgs = img_stack[t - 1] if t else [B.identity]
        prev_elements = schedules[t - 1].elements if t else [A.identity]
        carry = {x: prev_imgs[i] for i, x in enumerate(prev_elements)}
        base = [carry.get(x, -1) for x in sched.elements]
        for cand in pools[t]:
            img = list(base)
            gen_imgs.append(cand)
            ok = True
            for is_check, target, slot, source in sched.ops:
                value = bmul(gen_imgs[slot], img[source])
                if is_check:
                    if img[target] != value:
                        ok = False
                        break
                elif img[target] < 0:
                    img[target] = value
                elif img[target] != value:
                    ok = False
                    break
            if ok and len(set(img)) == sched.order:
                img_stack.append(img)
                if t + 1 == depth:
                    yield list(gens), list(gen_imgs), {
                        x: img[i] for i, x in enumerate(sched.elements)
                    }
                else:
                    yield from extend(t + 1)
                img_stack.pop()
            gen_imgs.pop()

    for result in extend(0):
        yield result
        if first_only:
            return


# -- the coset action before it padded each coset representative once -------
#
# The body of permgroup.coset_action before the cosets were filled through
# one padded table per representative, kept as its reference.  Every
# product goes through perms.compose, which pads its left factor each time.


def compose_coset_action(G, H):
    """(reps, coset_of, image generators, kernel elements) of the action of
    G on the left cosets of H."""
    from hopfgalois.perms import make_perm

    degree = G.degree
    h_elements = H.elements()
    coset_of = {}
    reps = [identity(degree)]
    for h in h_elements:
        coset_of[h] = 0
    queue = 0
    while queue < len(reps):
        r = reps[queue]
        queue += 1
        for g in G.generators:
            x = compose(g, r)
            if x not in coset_of:
                cid = len(reps)
                reps.append(x)
                for h in h_elements:
                    coset_of[compose(x, h)] = cid
    image_gens = [make_perm([coset_of[compose(g, r)] for r in reps]) for g in G.generators]
    kernel_els = [
        h for h in h_elements if all(coset_of[compose(h, r)] == i for i, r in enumerate(reps))
    ]
    return reps, coset_of, image_gens, kernel_els


# -- the orbit test before point maps -----------------------------------------
#
# Like same_order_scan, this runs the package's engine: it is the body of
# classify_index_n when Aut(G)-orbits were decided by a pair-isomorphism test
# of (G, H_i) against (G, H_j) for every pair with equal invariants, kept as
# its reference.


def classify_index_n_pairwise(G, n):
    """classify_index_n with pairwise orbit tests: its ClassificationReport."""
    from hopfgalois.engine import view_of
    from hopfgalois.isomorphism import find_isomorphism, pair_isomorphic
    from hopfgalois.permgroup import normal_core
    from hopfgalois.subgroups import ClassificationReport, _partition, index_n_subgroup_classes

    classes = index_n_subgroup_classes(G, n)
    k = len(classes)
    reps = [c.representative for c in classes]

    # invariants preserved by any ambient automorphism: subgroup order and
    # order histogram, conjugacy class size, core order
    view = view_of(G)
    profiles = []
    for c in classes:
        idxs = frozenset(view._index[h] for h in c.representative.elements())
        profiles.append(
            (
                c.order,
                c.class_size,
                view.subgroup_order_histogram(idxs),
                normal_core(G, c.representative).order(),
            )
        )

    # orbit partition under Aut(G); isomorphism classes refine across orbits
    orbit_of = _partition(
        k,
        lambda i, j: profiles[i] == profiles[j]
        and pair_isomorphic(G, reps[i], G, reps[j]),
    )
    iso_of = _partition(
        k,
        lambda i, j: orbit_of[i] == orbit_of[j]
        or (classes[i].order == classes[j].order and find_isomorphism(reps[i], reps[j])),
    )
    aut_orbits = max(orbit_of, default=-1) + 1
    iso_classes = max(iso_of, default=-1) + 1

    details = tuple(
        {
            "class_index": i,
            "order": classes[i].order,
            "class_size": classes[i].class_size,
            "aut_orbit": orbit_of[i],
            "iso_class": iso_of[i],
        }
        for i in range(k)
    )
    # refinement chain sanity: orbits refine iso classes
    orbit_to_iso = {}
    for d in details:
        prev = orbit_to_iso.setdefault(d["aut_orbit"], d["iso_class"])
        assert prev == d["iso_class"]
    return ClassificationReport(k, aut_orbits, iso_classes, details)


# -- point stabilizers from the full Schreier-Sims run ------------------------
#
# Like compose_coset_action, this runs the package's kernel: the unbounded
# prefixed chain that PermGroup.point_stabilizer read before its chain build
# stopped at the proved order, kept as its reference.


def point_stabilizer_generators(G, p):
    """The generators of levels 1 and up of G's full chain with base
    starting at p, normalized as PermGroup normalizes them."""
    from hopfgalois.permgroup import _build_chain_prefixed

    gens = set()
    for lvl in _build_chain_prefixed(G.degree, G.generators, p)[1:]:
        gens.update(lvl.gens)
    return tuple(sorted(gens))


# -- element enumeration through the full Schreier-Sims chain -----------------
#
# PermGroup closes its generators to list its elements; this is the chain's
# enumeration it used before, kept as the reference: one transversal element
# per level, multiplied out, as many as the chain's orbit product.


def chain_elements(G):
    """G's elements, sorted, from the transversals of its full chain."""
    from hopfgalois.permgroup import _build_chain, _chain_order

    levels = _build_chain(G.degree, G.generators)
    els = [identity(G.degree)]
    for lvl in reversed(levels):
        reps = list(lvl.transversal.values())
        els = [compose(rep, e) for rep in reps for e in els]
    els.sort()
    assert len(els) == _chain_order(levels)
    return tuple(els)
