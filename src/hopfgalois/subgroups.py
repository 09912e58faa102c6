"""Subgroup enumeration up to conjugacy.

The lattice is grown bottom-up by cyclic extension: a class representative
U is extended by elements g of its normalizer with g^p in U, so the new
subgroup is the union of p cosets and needs no closure.  Solvable ambient
groups are fully covered this way; otherwise the walk is seeded with the
perfect subgroups, found as perfect residuals of two-generated subgroups
(every perfect group within the supported order range is 2-generated).

Deduplication keys every conjugate of every discovered subgroup, so a
candidate is recognized in one set lookup; class sizes and normalizers fall
out of the same conjugation orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._numtheory import factorize
from .engine import view_of
from .errors import PreconditionError, ResourceLimitError
from .permgroup import PermGroup

DEFAULT_MAX_ORDER = 100_000


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups, named by a deterministic representative."""

    representative: PermGroup
    class_size: int
    order: int
    key: tuple = field(repr=False, compare=False)


def _order_forces_solvable(n: int) -> bool:
    """True when every group of order n is solvable: n < 60, n not divisible
    by 4 (odd-order and 2*odd groups are solvable), or n = p^a q^b."""
    if n < 60 or n % 4 != 0:
        return True
    return len(factorize(n)) < 3


class _Lattice:
    def __init__(self, G: PermGroup, order_divides=None, max_order=DEFAULT_MAX_ORDER):
        if G.order() > max_order:
            raise ResourceLimitError(
                f"subgroup enumeration bound exceeded: |G| = {G.order()} > {max_order}",
                partial=None,
            )
        self.G = G
        self.view = view_of(G)
        self.size = self.view.size
        self.target = order_divides if order_divides else self.size
        if self.size % self.target != 0:
            raise PreconditionError("order_divides must divide |G|")
        self.conj_maps = self.view.generator_conjugation_maps()
        self.seen: dict[frozenset, int] = {}
        self.classes: list[dict] = []
        self.worklist: list[int] = []

    # -- registration -----------------------------------------------------

    def register(self, S: frozenset) -> int:
        cid = self.seen.get(S)
        if cid is not None:
            return cid
        cid = len(self.classes)
        orbit = [S]
        self.seen[S] = cid
        pos = 0
        while pos < len(orbit):
            T = orbit[pos]
            pos += 1
            for m in self.conj_maps:
                U = frozenset(m[i] for i in T)
                if U not in self.seen:
                    self.seen[U] = cid
                    orbit.append(U)
        canonical = min(orbit, key=lambda T: tuple(sorted(T)))
        self.classes.append(
            {"rep": canonical, "order": len(S), "class_size": len(orbit)}
        )
        self.worklist.append(cid)
        return cid

    # -- seeds -------------------------------------------------------------

    def seed(self):
        self.register(frozenset({self.view.identity}))
        if _order_forces_solvable(self.size) or self.view.is_solvable():
            return
        for P in self._perfect_subgroups():
            if self.target % len(P) == 0:
                self.register(P)

    def _perfect_subgroups(self):
        """Perfect subgroups up to conjugacy, via 2-generated sweeps plus a
        residual closure round.  Subgroups whose order forces solvability
        are dismissed without computing a derived series."""
        view = self.view
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
            for y in range(self.size):
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
                S = view.closure([x, y], maxsize=self.size)
                if S is None or self.size % len(S) != 0:
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
                    S = view.closure(list(pgens) + [g], maxsize=self.size)
                    if S is None:
                        continue
                    fresh = residual(S)
                    if fresh is not None and len(fresh) > 1 and fresh not in found:
                        found.setdefault(fresh)
                        new.append(fresh)
            frontier = new
        return sorted(found, key=lambda S: (len(S), tuple(sorted(S))))

    # -- extension ----------------------------------------------------------

    def run(self):
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

    # -- output ------------------------------------------------------------

    def result(self) -> list[SubgroupClass]:
        view = self.view
        out = []
        for rec in self.classes:
            rep_set = rec["rep"]
            gens = rec.get("gens") or view.greedy_generators(rep_set)
            rep = PermGroup(self.G.degree, [view.elements[i] for i in gens])
            assert rep.order() == rec["order"]
            key = tuple(sorted(rep_set))
            out.append(
                SubgroupClass(
                    representative=rep,
                    class_size=rec["class_size"],
                    order=rec["order"],
                    key=key,
                )
            )
        out.sort(key=lambda c: (c.order, c.key))
        return out


def all_subgroup_classes(G: PermGroup, *, max_order: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """One representative per conjugacy class of subgroups of G."""
    lat = _Lattice(G, None, max_order)
    lat.run()
    return lat.result()


def subgroup_classes_dividing(
    G: PermGroup, order_divides: int, *, max_order: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Classes of subgroups whose order divides ``order_divides``."""
    lat = _Lattice(G, order_divides, max_order)
    lat.run()
    return lat.result()


def index_n_subgroup_classes(
    G: PermGroup, n: int, *, max_order: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups of order |G|/n."""
    if G.order() % n != 0:
        raise PreconditionError(f"index {n} does not divide |G| = {G.order()}")
    target = G.order() // n
    classes = subgroup_classes_dividing(G, target, max_order=max_order)
    return [c for c in classes if c.order == target]


def transitive_subgroup_classes(hol, *, max_order: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """Transitive subgroup classes of a holomorph, up to conjugacy there."""
    classes = all_subgroup_classes(hol.group, max_order=max_order)
    degree = hol.group.degree
    return [
        c
        for c in classes
        if c.order % degree == 0 and c.representative.is_transitive()
    ]


def class_key_of(G: PermGroup, H: PermGroup) -> tuple:
    """Canonical key of H's conjugacy class inside G (minimal conjugate,
    as a sorted tuple of element indices in G's sorted element list)."""
    view = view_of(G)
    try:
        start = frozenset(view._index[h] for h in H.elements())
    except KeyError:
        raise PreconditionError("H is not contained in G") from None
    maps = view.generator_conjugation_maps()
    seen = {start}
    orbit = [start]
    pos = 0
    while pos < len(orbit):
        T = orbit[pos]
        pos += 1
        for m in maps:
            U = frozenset(m[i] for i in T)
            if U not in seen:
                seen.add(U)
                orbit.append(U)
    return tuple(sorted(min(orbit, key=lambda T: tuple(sorted(T)))))


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """Index-n subgroups sorted three ways: conjugacy, ambient-automorphism
    orbits, abstract isomorphism classes.  Each level refines the next."""

    conjugacy_classes: int
    aut_orbits: int
    iso_classes: int
    details: tuple

    def triple(self) -> tuple[int, int, int]:
        return (self.conjugacy_classes, self.aut_orbits, self.iso_classes)


def classify_index_n(G: PermGroup, n: int, *, max_order: int = DEFAULT_MAX_ORDER) -> ClassificationReport:
    """Classify the index-n subgroups of G.

    Automorphism orbits are decided pairwise: H1 and H2 lie in one Aut(G)
    orbit exactly when some isomorphism G -> G carries H1 to H2, which is a
    pair-isomorphism test of (G, H1) against (G, H2).
    """
    from .isomorphism import find_isomorphism, pair_isomorphic
    from .permgroup import normal_core

    classes = index_n_subgroup_classes(G, n, max_order=max_order)
    k = len(classes)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

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

    # orbit partition under Aut(G)
    for i in range(k):
        for j in range(i + 1, k):
            if find(i) == find(j):
                continue
            if profiles[i] != profiles[j]:
                continue
            if pair_isomorphic(
                G, classes[i].representative, G, classes[j].representative
            ):
                union(i, j)
    orbit_of = {}
    orbit_ids = []
    for i in range(k):
        r = find(i)
        if r not in orbit_of:
            orbit_of[r] = len(orbit_ids)
            orbit_ids.append(r)
        orbit_of[i] = orbit_of[r]
    aut_orbits = len(orbit_ids)

    # isomorphism classes refine across orbits
    parent2 = list(range(k))

    def find2(i):
        while parent2[i] != i:
            parent2[i] = parent2[parent2[i]]
            i = parent2[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if find2(i) == find2(j):
                continue
            if find(i) == find(j):
                parent2[find2(i)] = find2(j)
                continue
            if classes[i].order != classes[j].order:
                continue
            if find_isomorphism(classes[i].representative, classes[j].representative):
                parent2[find2(i)] = find2(j)
    iso_of = {}
    iso_ids = []
    for i in range(k):
        r = find2(i)
        if r not in iso_of:
            iso_of[r] = len(iso_ids)
            iso_ids.append(r)
        iso_of[i] = iso_of[r]
    iso_classes = len(iso_ids)

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


# -- solvability helper (exposed for tests) --------------------------------


def is_solvable(G: PermGroup) -> bool:
    view = view_of(G)
    return view.is_solvable()
