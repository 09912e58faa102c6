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
own when it is proper): G^(oo) itself, and the two-generated subgroups
that are perfect (every perfect group within the supported order range
is 2-generated).  <x, y> depends only on the cyclic subgroups <x> and
<y>, so one pair is closed per pair of cyclic subgroups up to conjugacy
and swapping.

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


def _perfect_subgroups(view, cap: int) -> list[frozenset]:
    """Perfect subgroups of the view's group, which must be perfect, at
    least one in each class of nontrivial proper ones of order at most
    ``cap``: the closures of the ``_sweep_pairs`` pairs that are their own
    derived subgroups.

    A perfect group has no proper subgroup of index k <= 4: its action on
    the k cosets would have a perfect transitive image in the solvable
    Sym(k).  So a closure past a fifth of the group is the whole group and
    is cut off there, and so is one past ``cap`` when that is smaller.  A
    wanted perfect P is itself 2-generated, P = <a, b>, and
    ``_sweep_pairs`` has a pair (x, y) with <x, y> a conjugate of P, which
    is found within the cut.  A closure whose order forces solvability is
    dismissed without computing its derived subgroup."""
    cap = min(cap, view.size // 5)
    perfect: dict[frozenset, bool] = {}
    for x, y in _sweep_pairs(view):
        S = view.closure([x, y], maxsize=cap)
        if S is None or S in perfect or _order_forces_solvable(len(S)):
            continue
        perfect[S] = view.derived_subgroup_of(S) == S
    return [S for S, is_perfect in perfect.items() if is_perfect]


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


def _check_order(G: PermGroup, max_order: int):
    if G.order() > max_order:
        raise ResourceLimitError(
            f"subgroup enumeration bound exceeded: |G| = {G.order()} > {max_order}"
        )


def _classes_of(G: PermGroup, view, records, keep=None) -> list[SubgroupClass]:
    """The classes of lattice records (order, class_size, key, generator
    indices or None) by (order, key); with ``keep``, only those for which
    ``keep(order, generator permutations)`` holds, and only their
    representatives are built.  A record without generators gets the
    greedy generators of its key's elements, as the lattice picks them."""
    out = []
    for order, class_size, key, gens in records:
        gens = [view.elements[i] for i in gens or view.greedy_generators(frozenset(key))]
        if keep is not None and not keep(order, gens):
            continue
        # greedy_generators proved that gens generate ``order`` elements
        rep = PermGroup(G.degree, gens, order)
        out.append(SubgroupClass(representative=rep, class_size=class_size, order=order, key=key))
    out.sort(key=lambda c: (c.order, c.key))
    return out


class _Lattice:
    def __init__(self, G: PermGroup, order_divides=None, max_order=DEFAULT_MAX_ORDER):
        _check_order(G, max_order)
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
        """The classes by (order, key), filtered by ``keep`` as
        ``_classes_of`` does."""
        records = ((r["order"], r["class_size"], r["key"], r.get("gens")) for r in self.classes)
        return _classes_of(self.G, self.view, records, keep)


def all_subgroup_classes(G: PermGroup) -> list[SubgroupClass]:
    """One representative per conjugacy class of subgroups of G."""
    lat = _Lattice(G)
    lat.run()
    return lat.result()


def index_n_subgroup_classes(
    G: PermGroup, n: int, *, max_order: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups of order |G|/n, by (order, key).

    A group that carries the lattice records of its classes of index
    ``G.degree`` (a whole holomorph from ``transitive_subgroup_classes``,
    or its catalogue entry read back from a file) gets its classes for
    n = G.degree from them, with the representatives the lattice would
    build; the ``max_order`` guard still applies.  Every other call runs
    the lattice."""
    if G.order() % n != 0:
        raise PreconditionError(f"index {n} does not divide |G| = {G.order()}")
    target = G.order() // n
    if n == G.degree and G._index_classes is not None:
        _check_order(G, max_order)
        return _classes_of(G, view_of(G), ((*r, None) for r in G._index_classes))
    lat = _Lattice(G, target, max_order)
    lat.run()
    return lat.result(lambda order, gens: order == target)


def transitive_subgroup_classes(hol, *, max_order: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """Transitive subgroup classes of a holomorph, up to conjugacy there.

    The last is the whole group, and its representative is handed the
    lattice's (order, class_size, key) records of the classes of index
    the degree, for ``index_n_subgroup_classes``.  A key indexes the
    group's sorted element list, so a change to that order must bump
    ``cache.ALGORITHM_VERSION``: catalogue files store these records."""
    degree = hol.group.degree
    lat = _Lattice(hol.group, None, max_order)
    lat.run()
    classes = lat.result(
        lambda order, gens: order % degree == 0 and len(orbit_of(gens)) == degree
    )
    target = lat.size // degree
    classes[-1].representative._index_classes = tuple(sorted(
        (r["order"], r["class_size"], r["key"]) for r in lat.classes if r["order"] == target
    ))
    return classes


def class_key_of(G: PermGroup, H: PermGroup) -> tuple:
    """Canonical key of H's conjugacy class inside G (minimal conjugate,
    as a sorted tuple of element indices in G's sorted element list)."""
    view = view_of(G)
    return _conjugacy_orbit(view.generator_conjugation_maps(), view.subgroup_indices(H))[1]


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


def _class_perm(A: PermGroup, reps, index_of, s, rho) -> list[int]:
    """The permutation of the classes of the subgroups ``reps`` of A (their
    class keys -> their positions in ``index_of``) made by the automorphism
    g -> s^-1 rho(g) s of A, for a point map s with s A s^-1 = rho(A): j goes
    to the class of s^-1 rho(H_j) s."""
    s_inv = inverse(s)
    perm = []
    for H in reps:
        gens = [compose(s_inv, compose(rho(h), s)) for h in H.generators]
        perm.append(index_of[class_key_of(A, PermGroup(A.degree, gens))])
    return perm


def _class_moves(G: PermGroup, n: int, classes, index_of):
    """For each core-free class K of index d = G.degree but S = Stab_G(0)'s
    (whose representative fixes a point) with a point map s_K onto G's
    action rho_K on the cosets of K: the permutation pi_K of the index-n
    ``classes`` sending j to the class of s_K^-1 rho_K(H_j) s_K."""
    from .isomorphism import point_map
    from .permgroup import coset_action

    d = G.degree
    reps = [c.representative for c in classes]
    for K in classes if d == n else index_n_subgroup_classes(G, d):
        if K.representative.fixes_a_point() is not None:
            continue
        action = coset_action(G, K.representative)
        if action.kernel_order != 1:
            continue
        rho = action.image_of_element
        s = point_map(G, action.image, PermGroup(d, [rho(h) for h in K.representative.generators]))
        if s is not None:
            yield _class_perm(G, reps, index_of, s, rho)


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

    Automorphism orbits are the orbits of permutations of the classes,
    each made by an automorphism.  Let G be transitive of degree d (an
    intransitive G is replaced by its regular action, the action on the
    cosets of the trivial subgroup) and S = Stab_G(0).

    1. An automorphism a with a(S) ~ S is, after an inner one, some
       g -> s g s^-1 with s in N_0 = {s : s(0) = 0, s G s^-1 = G} (Dixon and
       Mortimer, *Permutation Groups*, 1.6); inner automorphisms and S act
       trivially on the classes.  Each of the maps that generate N_0 with
       S (``isomorphism.normalizing_maps``) gives pi_s: j -> the class of
       s^-1 H_j s.  In the regular action S is trivial and N_0 = Aut(G).
    2. For each other core-free class K of index d (its representative
       fixes no point: an index-d subgroup fixing x is Stab(x), a
       conjugate of S), a point map s_K with s_K G s_K^-1 = rho_K(G)
       (``isomorphism.point_map``), rho_K the action of G on the cosets of
       K, gives the automorphism b_K = rho_K^-1 o (conjugation by s_K),
       with b_K(S) = K; pi_K(j) is the class of b_K^-1(H_j) =
       s_K^-1 rho_K(H_j) s_K.  Every automorphism is some b_K (or the
       identity) after one of fact 1, so the pi_s and pi_K generate the
       action of Aut(G) on the classes.
    """
    from .isomorphism import find_isomorphism, normalizing_maps
    from .permgroup import coset_action, group_from_elements

    if classes is None:
        classes = index_n_subgroup_classes(G, n)
    k = len(classes)
    reps = [c.representative for c in classes]
    if G.is_transitive():
        A, a_reps, keys = G, reps, [c.key for c in classes]
    else:
        regular = coset_action(G, PermGroup(G.degree))
        A = regular.image
        a_reps = [
            PermGroup(A.degree, [regular.image_of_element(h) for h in H.generators])
            for H in reps
        ]
        keys = [class_key_of(A, H) for H in a_reps]
    index_of = {key: i for i, key in enumerate(keys)}

    # the moves of facts 1 and 2; their orbits are the Aut(G)-orbits
    S = group_from_elements(A.degree, [x for x in A.elements() if x[0] == 0])
    moves = [_class_perm(A, a_reps, index_of, s, lambda g: g) for s in normalizing_maps(A, S)]
    if A is G:
        moves.extend(_class_moves(G, n, classes, index_of))
    orbit_label = [-1] * k
    aut_orbits = 0
    for i in range(k):
        if orbit_label[i] < 0:
            for j in orbit_of(moves, (i,)):
                orbit_label[j] = aut_orbits
            aut_orbits += 1

    # isomorphism classes refine across orbits
    iso_of = _partition(
        k,
        lambda i, j: orbit_label[i] == orbit_label[j]
        or (classes[i].order == classes[j].order and find_isomorphism(reps[i], reps[j])),
    )
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
