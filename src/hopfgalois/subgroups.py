"""Subgroup enumeration up to conjugacy.

The lattice is grown bottom-up by cyclic extension: a class representative
U is extended by elements g of its normalizer with g^p in U, so the new
subgroup is the union of p cosets and needs no closure.  Solvable ambient
groups are fully covered this way; otherwise the walk is also seeded with
the perfect subgroups.  They all lie in the perfect residual G^(oo), so the
search runs inside it (on a view of its own when it is proper): G^(oo)
itself, and the perfect residuals of two-generated subgroups (every perfect
group within the supported order range is 2-generated), of which only half
the generating pairs are closed: one per pair up to conjugacy and swapping.

Deduplication keys every conjugate of every discovered subgroup, so a
candidate is recognized in one set lookup; class sizes and normalizers fall
out of the same conjugation orbits.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ._numtheory import factorize
from .engine import GroupView, view_of
from .errors import PreconditionError, ResourceLimitError
from .permgroup import PermGroup
from .perms import compose, inverse, orbit_of

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


def _conjugacy_orbit(conj_maps, S: frozenset):
    """The conjugates of the subgroup S (a set of element indices) under the
    group whose generators have the conjugation maps ``conj_maps``, S first,
    and the class key: the least conjugate as a sorted tuple."""
    seen = {S}
    orbit = [S]
    for T in orbit:
        for m in conj_maps:
            U = frozenset(m[i] for i in T)
            if U not in seen:
                seen.add(U)
                orbit.append(U)
    return orbit, min(tuple(sorted(T)) for T in orbit)


def _perfect_subgroups(view) -> list[frozenset]:
    """Perfect subgroups of the view's group, at least one in each class of
    nontrivial proper ones: perfect residuals of two-generated subgroups,
    then a round that extends each one found by single class
    representatives.

    Only pairs (x, y) are closed where x represents a conjugacy class and y
    an orbit of the centralizer of x in a class that comes no earlier in
    the order by class size: any pair (a, b) becomes one of these by
    swapping a and b to put a's class first and then conjugating.
    A closure past half the group is the whole group (Lagrange) and is
    dropped.  Subgroups whose order forces solvability are dismissed
    without computing a derived series."""
    classes = sorted(view.conj_classes(), key=len)
    orders = view.element_orders()
    half = view.size // 2
    found: dict[frozenset, None] = {}
    residual_cache: dict[frozenset, frozenset] = {}

    def residual(S):
        if _order_forces_solvable(len(S)):
            return None
        R = residual_cache.get(S)
        if R is None:
            R = residual_cache[S] = view.perfect_residual(S)
        return R

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
            S = view.closure([x, y], maxsize=half)
            if S is not None:
                R = residual(S)
                if R is not None and len(R) > 1:
                    found.setdefault(R)
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
                fresh = residual(view.closure(list(pgens) + [g]))
                if fresh is not None and len(fresh) > 1 and fresh not in found:
                    found.setdefault(fresh)
                    new.append(fresh)
        frontier = new
    return sorted(found, key=lambda S: (len(S), tuple(sorted(S))))


def _preimages(power_map) -> tuple[array, array]:
    """The inverse of a power map m, in two arrays (xs, start): the x with
    m[x] = y are xs[start[y]:start[y + 1]], ascending."""
    size = len(power_map)
    xs = array("i", sorted(range(size), key=power_map.__getitem__))
    start = array("i", [0]) * (size + 1)
    for y in power_map:
        start[y + 1] += 1
    for y in range(size):
        start[y + 1] += start[y]
    return xs, start


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
        orbit, key = _conjugacy_orbit(self.conj_maps, S)
        self.seen.update(dict.fromkeys(orbit, cid))
        self.classes.append(
            {"rep": frozenset(key), "key": key, "order": len(S), "class_size": len(orbit)}
        )
        self.worklist.append(cid)
        return cid

    # -- seeds -------------------------------------------------------------

    def seed(self):
        """The trivial subgroup and the perfect subgroups, which all lie in
        R = G^(oo)."""
        view = self.view
        self.register(frozenset({view.identity}))
        if _order_forces_solvable(self.size):
            return
        R = view.perfect_residual(frozenset(range(self.size)))
        if len(R) == 1:
            return
        if len(R) == self.size:
            perfect = _perfect_subgroups(view)
        else:
            els = view.elements
            r_view = GroupView.from_perm_elements([els[i] for i in R], els[view.identity])
            perfect = [
                frozenset(view._index[r_view.elements[i]] for i in P)
                for P in _perfect_subgroups(r_view)
            ]
        for P in perfect + [R]:
            if self.target % len(P) == 0:
                self.register(P)

    # -- extension ----------------------------------------------------------

    def run(self):
        self.seed()
        view = self.view
        preimages = {}
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
            # candidate g with U <| <U, g> of prime index p: g^p lies in U,
            # so g is read off the preimages of U's elements under the p-th
            # power map, and g normalizes U.  No g outside U has g^p and g^q
            # in U for two primes, so each is tried at most once.
            covered = set(U)
            for p in allowed:
                pre = preimages.get(p)
                if pre is None:
                    pre = preimages[p] = _preimages(view.power_map(p))
                xs, start = pre
                for u in U:
                    for g in xs[start[u]:start[u + 1]]:
                        if g in covered:
                            continue
                        if any(x not in U for x in view.conjugates(g, u_gens)):
                            continue
                        new_els = set(U)
                        coset = view.right_multiples(U, g)
                        new_els.update(coset)
                        for _ in range(p - 2):
                            coset = view.right_multiples(coset, g)
                            new_els.update(coset)
                        V = frozenset(new_els)
                        covered |= V
                        self.register(V)

    # -- output ------------------------------------------------------------

    def result(self, keep=None) -> list[SubgroupClass]:
        """The classes by (order, key); with ``keep``, only those for which
        ``keep(order, generator permutations)`` holds, and only their
        representatives are built."""
        view = self.view
        out = []
        for rec in self.classes:
            gens = [view.elements[i] for i in rec.get("gens") or view.greedy_generators(rec["rep"])]
            if keep is not None and not keep(rec["order"], gens):
                continue
            rep = PermGroup(self.G.degree, gens, rec["order"])
            assert rep.order() == rec["order"]
            out.append(
                SubgroupClass(
                    representative=rep,
                    class_size=rec["class_size"],
                    order=rec["order"],
                    key=rec["key"],
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
    lat = _Lattice(G, target, max_order)
    lat.run()
    return lat.result(lambda order, gens: order == target)


def transitive_subgroup_classes(hol, *, max_order: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """Transitive subgroup classes of a holomorph, up to conjugacy there."""
    degree = hol.group.degree
    lat = _Lattice(hol.group, None, max_order)
    lat.run()
    return lat.result(
        lambda order, gens: order % degree == 0 and len(orbit_of(gens)) == degree
    )


def class_key_of(G: PermGroup, H: PermGroup) -> tuple:
    """Canonical key of H's conjugacy class inside G (minimal conjugate,
    as a sorted tuple of element indices in G's sorted element list)."""
    view = view_of(G)
    try:
        start = frozenset(view._index[h] for h in H.elements())
    except KeyError:
        raise PreconditionError("H is not contained in G") from None
    return _conjugacy_orbit(view.generator_conjugation_maps(), start)[1]


# -- classification -------------------------------------------------------


def _partition(k: int, joined) -> list[int]:
    """Class labels of 0..k-1 under the equivalence generated by the pairs
    i < j with ``joined(i, j)``, numbered in order of first appearance.
    Pairs are tried in lexicographic order, skipping those already in one
    class."""
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            ri, rj = find(i), find(j)
            if ri != rj and joined(i, j):
                parent[ri] = rj
    labels: dict[int, int] = {}
    return [labels.setdefault(find(i), len(labels)) for i in range(k)]


def _class_moves(G: PermGroup, n: int, classes, actions, max_order) -> list[tuple]:
    """For each core-free class K of index d = G.degree other than the class
    of S = Stab_G(0) with a point map s_K onto G's action rho_K on the
    cosets of K: the permutation pi_K of the index-n ``classes`` (whose
    coset ``actions`` are given) sending j to the class of
    s_K^-1 rho_K(H_j) s_K.  The distinct permutations, the identity first."""
    from .isomorphism import point_map
    from .permgroup import coset_action

    d = G.degree
    s_key = class_key_of(G, G.point_stabilizer(0))
    if d == n:
        others = zip(classes, actions)
    else:
        others = (
            (K, coset_action(G, K.representative))
            for K in index_n_subgroup_classes(G, d, max_order=max_order)
        )
    index_of = {c.key: i for i, c in enumerate(classes)}
    moves = [tuple(range(len(classes)))]
    for K, action in others:
        if K.key == s_key or action.kernel.order() != 1:
            continue
        rho = action.image_of_element
        s = point_map(G, action.image, PermGroup(d, [rho(h) for h in K.representative.generators]))
        if s is None:
            continue
        s_inv = inverse(s)
        pi = []
        for c in classes:
            gens = [compose(s_inv, compose(rho(h), s)) for h in c.representative.generators]
            pi.append(index_of[class_key_of(G, PermGroup(d, gens))])
        if tuple(pi) not in moves:
            moves.append(tuple(pi))
    return moves


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

    Automorphism orbits are found with point maps.  Let G be transitive of
    degree d (an intransitive G is replaced by its regular action, the
    action on the cosets of the trivial subgroup), S = Stab_G(0), and
    rho_i the action of G on the cosets of H_i.

    1. Some automorphism a with a(S) ~ S and a(H_i) ~ H_j exists iff a
       point bijection s of [d] + G/H_i onto [d] + G/H_j with s(0) = 0
       conjugates g + rho_i(g) to a(g) + rho_j(a(g))
       (``isomorphism.TwoBlockMaps``).
    2. For each other core-free class K of index d, a point map s_K with
       s_K G s_K^-1 = rho_K(G) (``isomorphism.point_map``) gives the
       automorphism b_K = rho_K^-1 o (conjugation by s_K), with
       b_K(S) = K; pi_K(j) is the class of b_K^-1(H_j) =
       s_K^-1 rho_K(H_j) s_K.  Every automorphism is some b_K (or the
       identity) after one of fact 1, so H_i and H_j lie in one orbit iff
       fact 1 holds for (i, pi(j)) for some pi in {identity} + {pi_K}.

    Pairs are tried only when their invariants agree: subgroup order and
    order histogram, conjugacy class size, core order.
    """
    from .isomorphism import TwoBlockMaps, find_isomorphism
    from .permgroup import coset_action

    classes = index_n_subgroup_classes(G, n, max_order=max_order)
    k = len(classes)
    reps = [c.representative for c in classes]
    if G.is_transitive():
        A, a_reps = G, reps
    else:
        regular = coset_action(G, PermGroup(G.degree))
        A = regular.image
        a_reps = [
            PermGroup(A.degree, [regular.image_of_element(h) for h in H.generators])
            for H in reps
        ]
    actions = [coset_action(A, H) for H in a_reps]

    # invariants preserved by any ambient automorphism: subgroup order and
    # order histogram, conjugacy class size, core order
    view = view_of(G)
    profiles = []
    for c, action in zip(classes, actions):
        idxs = frozenset(view._index[h] for h in c.representative.elements())
        profiles.append(
            (c.order, c.class_size, view.subgroup_order_histogram(idxs), action.kernel.order())
        )

    # orbit partition under Aut(G); isomorphism classes refine across orbits
    maps = TwoBlockMaps(A, actions)
    moves = None

    def joined(i, j):
        nonlocal moves
        if profiles[i] != profiles[j]:
            return False
        if moves is None:
            # in the regular action S is trivial: every automorphism keeps it
            moves = _class_moves(G, n, classes, actions, max_order) if A is G else [tuple(range(k))]
        return any(maps.exists(i, pi[j]) for pi in moves)

    orbit_label = _partition(k, joined)
    iso_of = _partition(
        k,
        lambda i, j: orbit_label[i] == orbit_label[j]
        or (classes[i].order == classes[j].order and find_isomorphism(reps[i], reps[j])),
    )
    aut_orbits = max(orbit_label, default=-1) + 1
    iso_classes = max(iso_of, default=-1) + 1

    details = tuple(
        {
            "class_index": i,
            "order": classes[i].order,
            "class_size": classes[i].class_size,
            "aut_orbit": orbit_label[i],
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
