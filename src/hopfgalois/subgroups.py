"""Subgroup enumeration up to conjugacy.

The lattice is grown bottom-up by cyclic extension: a class representative
U is extended by elements g of its normalizer with g^p in U, so the new
subgroup is the union of p cosets and needs no closure.  The candidates g
are read off the inverse of the p-th power map, and the normalizer test
runs over them in one pass (``GroupView.normalizing``) before any coset
is formed.  Solvable ambient groups are fully covered this way; otherwise
the walk is also seeded with the perfect subgroups, of the orders it is
after only (none when those force solvability).  They all lie in the
perfect residual G^(oo), so the search runs inside it (on a view of its
own when it is proper): G^(oo) itself, and the perfect residuals of
two-generated subgroups (every perfect group within the supported order
range is 2-generated).  <x, y> depends only on the cyclic subgroups <x>
and <y>, so one pair is closed per pair of cyclic subgroups up to
conjugacy and swapping, and the sweep runs at most once per element set:
a later call with no larger a cap is served from a bounded table.

Deduplication keys every conjugate of every discovered subgroup, so a
candidate is recognized in one set lookup; class sizes and normalizers fall
out of the same conjugation orbits.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter

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
    and the class key: the least conjugate as a sorted tuple.  Each
    conjugate is read off the maps by one ``itemgetter`` of S's elements,
    which for a single element returns no tuple: the trivial subgroup is
    its own orbit."""
    if len(S) == 1:
        return [S], tuple(S)
    seen = {S}
    orbit = [S]
    for T in orbit:
        images = itemgetter(*T)
        for m in conj_maps:
            U = frozenset(images(m))
            if U not in seen:
                seen.add(U)
                orbit.append(U)
    return orbit, tuple(min(map(sorted, orbit)))


def _sweep_pairs(view):
    """The pairs (x, y) whose closures the perfect-subgroup sweep takes: one
    per pair of cyclic subgroups (X, Y) up to conjugacy and swapping.

    A cyclic subgroup is ranked by the least rank, in the order of the
    conjugacy classes by size, of a class holding one of its generators,
    and named by its least-index generator, read off the power maps x^k
    for k prime to the order of x.  x runs over the class representatives
    that generate a cyclic subgroup X of their own rank, one per class of
    cyclic subgroups, and y over the names of one Y per N_G(X)-orbit of
    the cyclic subgroups ranked no earlier than X.  Any pair (a, b)
    becomes one of these: swap a and b to rank <a> first, conjugate <a>
    onto X, which makes a some x^k, then conjugate <b> within its
    N_G(X)-orbit; <x^k, b> = <x, y> for y the name of <b>."""
    size = view.size
    classes = sorted(view.conj_classes(), key=len)
    orders = view.element_orders()
    rank = array("i", [0]) * size
    for r, c in enumerate(classes):
        for i in c:
            rank[i] = r
    name = list(range(size))
    least = rank.tolist()
    for k in range(2, max(orders)):
        m = view.power_map(k)
        for y in range(size):
            if k < orders[y] and gcd(k, orders[y]) == 1:
                z = m[y]
                if z < name[y]:
                    name[y] = z
                if rank[z] < least[y]:
                    least[y] = rank[z]
    for r, c in enumerate(classes):
        x = c[0]
        if orders[x] == 1 or least[x] < r:
            continue
        X = view.closure([x])
        nmaps = [
            view.conjugation_map(g)
            for g in view.greedy_generators(view.normalizing(range(size), (x,), X, ()))
        ]
        seen = set()
        for y in (y for d in classes[r:] for y in d):
            if name[y] != y or least[y] < r or y in seen:
                continue
            seen.add(y)
            orbit = [y]
            for z in orbit:
                for m in nmaps:
                    w = name[m[z]]
                    if w not in seen:
                        seen.add(w)
                        orbit.append(w)
            yield x, y


# element set -> (cap, perfect subgroups) of the last sweep on it
_SWEEPS: dict[tuple, tuple] = {}
_SWEEPS_MAXSIZE = 32


def _perfect_subgroups(view, cap: int) -> list[frozenset]:
    """Perfect subgroups of the view's group, which must be perfect, at
    least one in each class of nontrivial proper ones of order at most
    ``cap``: perfect residuals of two-generated subgroups, then a round that
    extends each one found by single class representatives.

    Only the pairs of ``_sweep_pairs`` are closed, one per pair of cyclic
    subgroups up to conjugacy and swapping.  A perfect group has no proper
    subgroup of index k <= 4: its action on the k cosets would have a
    perfect transitive image in the solvable Sym(k).  So a closure, in the
    sweep or the round, past a fifth of the group is the whole group and is
    cut off there, and so is one past ``cap`` when that is smaller: a
    wanted perfect P is itself 2-generated, so some pair closes to a
    conjugate of P within the cap.  Subgroups whose order forces
    solvability are dismissed without computing a derived series.

    The result depends on the element set alone, and a sweep with a
    larger cap finds a superset of the sets one with a smaller cap finds.
    So the last sweep on each element set is kept in a bounded table, and
    a call whose cap, cut at a fifth of the group, is no larger than the
    stored one is served from it, keeping the sets of order at most its
    cap; these are all genuine perfect subgroups, so the lattice's classes
    do not change."""
    cap = min(cap, view.size // 5)
    key = tuple(view.elements)
    stored = _SWEEPS.pop(key, None)
    if stored is not None and stored[0] >= cap:
        _SWEEPS[key] = stored
        return [P for P in stored[1] if len(P) <= cap]
    classes = view.conj_classes()
    orders = view.element_orders()
    found: dict[frozenset, None] = {}
    residual_cache: dict[frozenset, frozenset] = {}

    def residual(S):
        if _order_forces_solvable(len(S)):
            return None
        R = residual_cache.get(S)
        if R is None:
            R = residual_cache[S] = view.perfect_residual(S)
        return R

    for x, y in _sweep_pairs(view):
        S = view.closure([x, y], maxsize=cap)
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
                S = view.closure(list(pgens) + [g], maxsize=cap)
                fresh = None if S is None else residual(S)
                if fresh is not None and len(fresh) > 1 and fresh not in found:
                    found.setdefault(fresh)
                    new.append(fresh)
        frontier = new
    result = sorted(found, key=lambda S: (len(S), tuple(sorted(S))))
    if len(_SWEEPS) >= _SWEEPS_MAXSIZE:
        del _SWEEPS[next(iter(_SWEEPS))]
    _SWEEPS[key] = (cap, result)
    return result


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
                f"subgroup enumeration bound exceeded: |G| = {G.order()} > {max_order}"
            )
        self.G = G
        self.view = view_of(G)
        self.size = self.view.size
        self.target = order_divides if order_divides else self.size
        if self.size % self.target != 0:
            raise PreconditionError("order_divides must divide |G|")
        # lists, not arrays: itemgetter reads their ints without boxing
        self.conj_maps = [m.tolist() for m in self.view.generator_conjugation_maps()]
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
        """The trivial subgroup and the perfect subgroups of order dividing
        the target, which all lie in R = G^(oo).  When the target's order
        forces solvability so does every divisor's, and none is wanted."""
        view = self.view
        self.register(frozenset({view.identity}))
        if _order_forces_solvable(self.target):
            return
        R = view.perfect_residual(frozenset(range(self.size)))
        if len(R) == 1:
            return
        if len(R) == self.size:
            perfect = _perfect_subgroups(view, self.target)
        else:
            els = view.elements
            r_view = GroupView.from_perm_elements([els[i] for i in R], els[view.identity])
            perfect = [
                frozenset(view._index[r_view.elements[i]] for i in P)
                for P in _perfect_subgroups(r_view, self.target)
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
            # power map, and g normalizes U.  One pass of the normalizer
            # test filters them, skipping those an earlier V covers, and V
            # is formed for the survivors only.  No g outside U has g^p and
            # g^q in U for two primes, so each is tried at most once.
            covered = set(U)
            for p in allowed:
                pre = preimages.get(p)
                if pre is None:
                    pre = preimages[p] = _preimages(view.power_map(p))
                xs, start = pre
                roots = (g for u in U for g in xs[start[u]:start[u + 1]])
                for g in view.normalizing(roots, u_gens, U, covered):
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
            # greedy_generators proved that gens generate rec["order"] elements
            rep = PermGroup(self.G.degree, gens, rec["order"])
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


def all_subgroup_classes(G: PermGroup) -> list[SubgroupClass]:
    """One representative per conjugacy class of subgroups of G."""
    lat = _Lattice(G)
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


def _class_moves(G: PermGroup, n: int, classes, actions) -> list[tuple]:
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
            for K in index_n_subgroup_classes(G, d)
        )
    index_of = {c.key: i for i, c in enumerate(classes)}
    moves = [tuple(range(len(classes)))]
    for K, action in others:
        if K.key == s_key or action.kernel_order != 1:
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


def classify_index_n(G: PermGroup, n: int, *, classes=None) -> ClassificationReport:
    """Classify the index-n subgroups of G.  ``classes``, when given, must be
    ``index_n_subgroup_classes(G, n)``, which is then not run again.

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

    if classes is None:
        classes = index_n_subgroup_classes(G, n)
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
            (c.order, c.class_size, view.subgroup_order_histogram(idxs), action.kernel_order)
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
            moves = _class_moves(G, n, classes, actions) if A is G else [tuple(range(k))]
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
