"""Independent brute-force oracles.

Everything here recomputes results from first principles (closures over
full element sets, exhaustive searches over bijections) without touching
the stabilizer chains, lattice walk, or backtracking engine, so the fast
paths can be checked against it on small inputs.
"""

from __future__ import annotations

import itertools

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
    narrowed by cycle type when ``by_cycle_type``."""
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
    for gens, images, _ in isomorphisms(va, vb, sub_a=sub_a, sub_b=sub_b, by_cycle_type=by_cycle_type):
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
