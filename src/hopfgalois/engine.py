"""Indexed element arithmetic shared by the lattice and isomorphism engines.

A :class:`GroupView` numbers the elements of a finite group 0..n-1 and
exposes multiplication, inverses, element orders, conjugacy classes and
subgroup closures on those indices.  Every view is backed by a sorted
list of permutations: a subgroup of a symmetric group, or an abstract
group through its left-regular permutations (see ``AbstractGroup.view``).
Closures, conjugation and left and right multiplication of a list of
elements compose the permutations themselves (by ``bytes.translate`` over
a per-element pad on bytes views), so they build no Cayley row.  Only
``mul``, which ``commutator`` calls in the derived series, fills rows, and
only on views of at most ``CAYLEY_LIMIT`` elements.  Views
also know each element's cycle type and p-th power, computed once per
conjugacy class when the view has its group's generators (the power is
carried along the class by the generators' conjugation maps), and derive
the element orders from the cycle types.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter

from .perms import (
    compose,
    cycle_length_at,
    cycle_type,
    inverse,
    left_multiples,
    orbit_of,
    pad256,
    power,
)

CAYLEY_LIMIT = 2048


class GroupView:
    __slots__ = (
        "size",
        "identity",
        "elements",
        "_index",
        "_rows",
        "_pads",
        "_inv",
        "_orders",
        "_gens",
        "_conj_maps",
        "_classes",
        "_class_of",
        "_fingerprints",
        "_cycle_types",
        "_cycle_multiset",
        "_invariant",
        "_powers",
        "_point_pools",
        "_pool_reps",
    )

    def __init__(self):
        self.size = 0
        self.identity = 0
        self.elements = None
        self._index = None
        self._rows = None
        self._pads = None
        self._inv = None
        self._orders = None
        self._gens = None
        self._conj_maps = None
        self._classes = None
        self._class_of = None
        self._fingerprints = None
        self._cycle_types = None
        self._cycle_multiset = None
        self._invariant = None
        self._powers = None
        self._point_pools = None
        self._pool_reps = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_perm_elements(cls, elements, identity_perm) -> "GroupView":
        v = cls()
        els = sorted(elements)
        v.size = len(els)
        v.elements = els
        v._index = {p: i for i, p in enumerate(els)}
        v.identity = v._index[identity_perm]
        if els and isinstance(els[0], bytes):
            v._pads = [pad256(p) for p in els]
        if v.size <= CAYLEY_LIMIT:
            v._rows = [None] * v.size
        return v

    @classmethod
    def from_perm_group(cls, G) -> "GroupView":
        from .perms import identity as id_perm

        v = cls.from_perm_elements(G.elements(), id_perm(G.degree))
        v._gens = tuple(v._index[g] for g in G.generators)
        return v

    # -- multiplication ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._rows is not None:
            row = self._rows[i]
            if row is None:
                row = self._build_row(i)
            return row[j]
        return self._mul_direct(i, j)

    def _mul_direct(self, i, j):
        if self._pads is not None:
            return self._index[self.elements[j].translate(self._pads[i])]
        return self._index[compose(self.elements[i], self.elements[j])]

    def _build_row(self, i):
        if self._pads is not None:
            pad = self._pads[i]
            idx = self._index
            row = array("i", [idx[q.translate(pad)] for q in self.elements])
        else:
            row = array("i", [self._mul_direct(i, j) for j in range(self.size)])
        self._rows[i] = row
        return row

    def inv(self, i: int) -> int:
        invs = self._inv
        if invs is None:
            invs = self._inv = array("i", [-1]) * self.size
        v = invs[i]
        if v >= 0:
            return v
        v = invs[i] = self._index[inverse(self.elements[i])]
        return v

    def element_orders(self):
        if self._orders is None:
            order_of = {t: math.lcm(*t) for t in set(self.cycle_types())}
            self._orders = array("i", [order_of[t] for t in self.cycle_types()])
        return self._orders

    def cycle_types(self) -> list:
        """Per element, its cycle type; equal types are one shared tuple.
        Views that know their generators take one type per conjugacy class,
        which conjugation in Sym(n) keeps; the others need the types for
        their generators, so go element by element."""
        if self._cycle_types is None:
            interned = {}
            els = self.elements
            if self._gens is None:
                types = [interned.setdefault(t, t) for t in map(cycle_type, els)]
            else:
                types = [None] * self.size
                for c in self.conj_classes():
                    t = cycle_type(els[c[0]])
                    t = interned.setdefault(t, t)
                    for i in c:
                        types[i] = t
            self._cycle_types = types
        return self._cycle_types

    def power_map(self, p: int):
        """Array m with m[x] = x^p, built once per exponent from the powers of
        the permutations, so no Cayley row is built.  Views that know their
        generators power one element per conjugacy class and carry it along
        the class by the generators' conjugation maps c, since
        c(y)^p = c(y^p); the others power every element."""
        if self._powers is None:
            self._powers = {}
        m = self._powers.get(p)
        if m is None:
            if self._gens is None:
                idx = self._index
                m = array("i", [idx[power(x, p)] for x in self.elements])
            else:
                maps = self.generator_conjugation_maps()
                m = array("i", [-1]) * self.size
                for c in self.conj_classes():
                    m[c[0]] = self._index[power(self.elements[c[0]], p)]
                    walk = [c[0]]
                    for y in walk:
                        for cm in maps:
                            z = cm[y]
                            if m[z] < 0:
                                m[z] = cm[m[y]]
                                walk.append(z)
            self._powers[p] = m
        return m

    def point_pools(self) -> dict:
        """(cycle type, length of the cycle through point 0) -> image of
        point 0 -> the elements with both, ascending."""
        if self._point_pools is None:
            pools = self._point_pools = {}
            for i, (t, x) in enumerate(zip(self.cycle_types(), self.elements)):
                pool = pools.setdefault((t, cycle_length_at(x, 0)), {})
                pool.setdefault(x[0], []).append(i)
        return self._point_pools

    def point_pool_reps(self, key, stab_gens) -> list:
        """One element of each orbit of ``point_pools()[key]`` under conjugation
        by ``stab_gens``, which must generate the stabilizer of point 0 (each
        view has one, so the result is cached per key)."""
        if self._pool_reps is None:
            self._pool_reps = {}
        reps = self._pool_reps.get(key)
        if reps is None:
            pool = [x for group in self.point_pools()[key].values() for x in group]
            maps = [dict(zip(pool, self.conjugates(h, pool))) for h in stab_gens]
            seen = set()
            reps = []
            for x in pool:
                if x not in seen:
                    reps.append(x)
                    seen.update(orbit_of(maps, (x,)))
            self._pool_reps[key] = reps
        return reps

    def cycle_type_multiset(self) -> tuple:
        """Sorted (cycle type, count) pairs over all elements: equal for
        groups conjugate in the symmetric group."""
        if self._cycle_multiset is None:
            self._cycle_multiset = tuple(sorted(Counter(self.cycle_types()).items()))
        return self._cycle_multiset

    # -- generators ---------------------------------------------------------

    def generators(self) -> tuple:
        """A small generating sequence (greedy, by descending element order)."""
        if self._gens is None:
            self._gens = self.greedy_generators(range(self.size))
        return self._gens

    def greedy_generators(self, subset, seed=()) -> tuple:
        """Generators of the subgroup with element set ``subset``: ``seed``
        (elements of it), then each element of ``subset`` that the ones
        before do not generate, by descending order, then ascending index.
        Each new generator grows the closure of the ones before it, and the
        last closure must have ``len(subset)`` elements."""
        orders = self.element_orders()
        pool = sorted(subset, key=lambda i: (-orders[i], i))
        target = len(pool)
        gens = list(seed)
        have = self.closure(gens)
        for x in pool:
            if len(have) == target:
                break
            if x in have:
                continue
            gens.append(x)
            have = self._grow(have, gens)
        assert len(have) == target
        return tuple(gens)

    def closure(self, seed, maxsize=None) -> frozenset | None:
        """Subgroup generated by ``seed``; None exactly when it has more than
        ``maxsize`` elements."""
        els = {self.identity}
        gens = [g for g in seed if g != self.identity]
        els.update(gens)
        return self._close(els, els, gens, maxsize)

    def _grow(self, have: frozenset, gens) -> frozenset:
        """The subgroup generated by ``gens``, given ``have``, the one
        generated by all but the last: only the products of the last
        generator with ``have`` can be new, and the rest grows from them."""
        fresh = self._products(gens[-1:], have)
        fresh -= have
        return self._close(fresh.union(have), fresh, gens)

    def _close(self, els: set, frontier, gens, maxsize=None) -> frozenset | None:
        """Close ``els`` under left multiplication by ``gens``, where only
        the elements of ``frontier`` may have products outside it."""
        while frontier:
            if maxsize is not None and len(els) > maxsize:
                return None
            frontier = self._products(gens, frontier)
            frontier -= els
            els |= frontier
        return frozenset(els)

    def _products(self, gens, xs) -> set:
        """{g x for g in gens for x in xs}, composing with each generator's
        permutation (by ``bytes.translate`` over its pad on bytes views), so
        no Cayley row is built: a closure meets few of the products a row
        would hold."""
        idx, els = self._index, self.elements
        if self._pads is not None:
            pads = [self._pads[g] for g in gens]
            return {idx[els[x].translate(pad)] for pad in pads for x in xs}
        return {idx[compose(els[g], els[x])] for g in gens for x in xs}

    # -- conjugation ----------------------------------------------------------

    def conjugates(self, g: int, xs) -> list[int]:
        """[g x g^{-1} for x in xs], composing the permutations directly,
        which costs no Cayley row."""
        gi = self.inv(g)
        idx = self._index
        if self._pads is not None:
            pads = self._pads
            right, left = self.elements[gi], pads[g]
            return [idx[right.translate(pads[x]).translate(left)] for x in xs]
        els = self.elements
        gp, gip = els[g], els[gi]
        return [idx[compose(gp, compose(els[x], gip))] for x in xs]

    def normalizing(self, xs, gens, subset, skip):
        """Iterator over the x in ``xs`` outside ``skip`` with x g x^{-1} in
        ``subset`` for every g in ``gens``.  ``skip`` is read as each x is
        reached, so the caller may grow it between steps.  Bytes views
        compare the table of x g x^{-1}, which ``bytes.maketrans`` builds
        from x and x g, with the pads of ``subset``, so x needs no inverse.
        The last generator is tested first and the others only on its
        survivors: in a greedy list it has the least order, and it rejects
        the most candidates in the degree-55 lattices."""
        if self._pads is None:
            return (
                x for x in xs
                if x not in skip and all(y in subset for y in self.conjugates(x, gens))
            )
        if not gens:
            return (x for x in xs if x not in skip)
        els, pads = self.elements, self._pads
        members = {pads[u] for u in subset}
        maketrans = bytes.maketrans
        *rest, first = [els[g] for g in gens]
        return (
            x for x in xs
            if x not in skip
            and maketrans(els[x], first.translate(pads[x])) in members
            and all(maketrans(els[x], q.translate(pads[x])) in members for q in rest)
        )

    def left_multiples(self, g: int, xs) -> list[int]:
        """[g x for x in xs], composing the permutations directly, which
        costs no Cayley row."""
        els = self.elements
        products = left_multiples(els[g], map(els.__getitem__, xs))
        return list(map(self._index.__getitem__, products))

    def right_multiples(self, xs, g: int) -> list[int]:
        """[x g for x in xs], composing the permutations directly, which
        costs no Cayley row."""
        idx = self._index
        q = self.elements[g]
        if self._pads is not None:
            pads = self._pads
            return [idx[q.translate(pads[x])] for x in xs]
        els = self.elements
        return [idx[compose(els[x], q)] for x in xs]

    def conjugation_map(self, g: int):
        """Array m with m[x] = g x g^{-1}."""
        return array("i", self.conjugates(g, range(self.size)))

    def generator_conjugation_maps(self) -> list:
        """The conjugation maps of ``generators()``, built once."""
        if self._conj_maps is None:
            self._conj_maps = [self.conjugation_map(g) for g in self.generators()]
        return self._conj_maps

    def conj_classes(self):
        """Conjugacy classes under the whole group, via the generators."""
        if self._classes is None:
            maps = self.generator_conjugation_maps()
            class_of = array("i", [-1]) * self.size
            classes = []
            for i in range(self.size):
                if class_of[i] < 0:
                    orbit = orbit_of(maps, (i,))
                    for x in orbit:
                        class_of[x] = len(classes)
                    classes.append(tuple(sorted(orbit)))
            self._classes = classes
            self._class_of = class_of
        return self._classes

    def fingerprints(self):
        """Per-element invariant (order, conjugacy class size), preserved by
        any isomorphism between whole groups."""
        if self._fingerprints is None:
            orders = self.element_orders()
            classes = self.conj_classes()
            class_of = self._class_of
            sizes = [len(c) for c in classes]
            self._fingerprints = [
                (orders[i], sizes[class_of[i]]) for i in range(self.size)
            ]
        return self._fingerprints

    # -- structural helpers -----------------------------------------------

    def centralizer_elements(self, x: int) -> list[int]:
        return [g for g, y in enumerate(self.conjugates(x, range(self.size))) if g == y]

    def center_size(self) -> int:
        return sum(1 for c in self.conj_classes() if len(c) == 1)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def derived_subgroup_of(self, subgroup: frozenset, gens=None) -> frozenset:
        """Derived subgroup of a subgroup given by its element set: the normal
        closure of the commutators of its generators, grown by each
        generator's conjugates under them that it does not yet contain."""
        if gens is None:
            gens = self.greedy_generators(subgroup)
        seed = {self.commutator(a, b) for a in gens for b in gens}
        seed.discard(self.identity)
        normal_gens = list(seed)
        current = self.closure(normal_gens)
        for n in normal_gens:
            for g in gens:
                y = self.conjugates(g, (n,))[0]
                if y not in current:
                    normal_gens.append(y)
                    current = self.closure(normal_gens)
        return current

    def perfect_residual(self, subgroup: frozenset) -> frozenset:
        current = subgroup
        while True:
            nxt = self.derived_subgroup_of(current)
            if nxt == current:
                return current
            current = nxt

    def is_solvable(self) -> bool:
        whole = frozenset(range(self.size))
        return len(self.perfect_residual(whole)) == 1

    def subgroup_order_histogram(self, subgroup) -> tuple:
        orders = self.element_orders()
        counts = {}
        for i in subgroup:
            counts[orders[i]] = counts.get(orders[i], 0) + 1
        return tuple(sorted(counts.items()))

    def invariant_vector(self) -> tuple:
        """(order, element-order histogram, class-size multiset,
        derived-subgroup order, center order): cheap isomorphism invariants."""
        if self._invariant is None:
            whole = frozenset(range(self.size))
            hist = self.subgroup_order_histogram(whole)
            class_sizes = tuple(sorted(len(c) for c in self.conj_classes()))
            derived = len(self.derived_subgroup_of(whole, self.generators()))
            self._invariant = (self.size, hist, class_sizes, derived, self.center_size())
        return self._invariant


def view_of(G) -> GroupView:
    """The GroupView of an immutable PermGroup, built once and kept on it."""
    v = G._view
    if v is None:
        v = G._view = GroupView.from_perm_group(G)
    return v
