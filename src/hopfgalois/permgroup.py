"""Permutation groups, with deterministic stabilizer chains.

Groups are immutable after construction.  Elements are closed from the
generators (``perms.closure_of``).  A group made with its proved order
(lattice results, point stabilizers, groups closed from elements, coset
actions, quotient pairs) reads it back as given.  A stabilizer chain is
built on first use, and only where nothing else answers: the order of a
group given none and never enumerated (size guards, groups read back
from a file), membership in a group without a view, and point
stabilizers.  Schreier-Sims stops once the chain reaches a proved order
(Seress, *Permutation Group Algorithms*, 2003, section 4.5).  Base points
are the least moved point at each level, and orbits are swept in sorted
order, so chains are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .engine import GroupView
from .errors import PreconditionError
from .perms import (
    closure_of,
    compose,
    format_cycles,
    identity,
    inverse,
    is_identity,
    left_multiples,
    make_perm,
    orbit_of,
    parse_perm,
)

GROUP_JSON_VERSION = 1


class _Level:
    __slots__ = ("base", "gens", "transversal")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []
        self.transversal = {base: identity(degree)}


def _first_moved(p):
    for i, x in enumerate(p):
        if x != i:
            return i
    return None


class _Complete(Exception):
    """Raised inside ``_build_chain`` once the chain reaches the known order."""


def _build_chain(degree, gens, first_base=None, order=None):
    """Deterministic Schreier-Sims; returns the list of levels.  With
    ``first_base`` given, the chain's first base point is forced to it.

    ``order`` is the order of a group known to contain ``<gens>``.  For any
    partial chain the product of the basic orbit lengths is at most
    ``|<gens>|``, with equality only when the chain is complete, so the run
    stops as soon as the product reaches ``order``.  The rest of a full run
    would add no generator to any level, so base points and level
    generators are those of the full run; an ``order`` that is too large
    only means the full run."""
    levels = [] if first_base is None else [_Level(first_base, degree)]

    def sift(p, start):
        for i in range(start, len(levels)):
            lvl = levels[i]
            img = p[lvl.base]
            if img == lvl.base:
                continue
            rep = lvl.transversal.get(img)
            if rep is None:
                return p, i
            p = compose(inverse(rep), p)
        return p, len(levels)

    def complete(i):
        # Re-verify level i until a clean pass: rebuild the orbit with the
        # cumulative generators, then sift every Schreier generator.
        while True:
            lvl = levels[i]
            gens_i = [g for level in levels[i:] for g in level.gens]
            trans = {lvl.base: identity(degree)}
            frontier = [lvl.base]
            while frontier:
                new = []
                for pt in frontier:
                    rep = trans[pt]
                    for g in gens_i:
                        img = g[pt]
                        if img not in trans:
                            trans[img] = compose(g, rep)
                            new.append(img)
                new.sort()
                frontier = new
            lvl.transversal = trans
            if order is not None and _chain_order(levels) == order:
                raise _Complete
            added = False
            for pt in sorted(trans):
                rep = trans[pt]
                for g in gens_i:
                    srep = trans[g[pt]]
                    schreier = compose(inverse(srep), compose(g, rep))
                    if is_identity(schreier):
                        continue
                    residue, j = sift(schreier, i + 1)
                    if is_identity(residue):
                        continue
                    if j == len(levels):
                        levels.append(_Level(_first_moved(residue), degree))
                    levels[j].gens.append(residue)
                    complete(j)
                    added = True
            if not added:
                return

    try:
        for g in gens:
            residue, i = sift(g, 0)
            if is_identity(residue):
                continue
            if i == len(levels):
                levels.append(_Level(_first_moved(residue), degree))
            levels[i].gens.append(residue)
            complete(i)
            for j in range(i - 1, -1, -1):
                complete(j)
    except _Complete:
        pass
    complete = None  # break the cycle through its own closure cell
    return levels


def _chain_order(levels):
    return math.prod(len(lvl.transversal) for lvl in levels)


class PermGroup:
    """An immutable permutation group on ``degree`` points.

    ``order``, when given, must be the proved order of ``<generators>``;
    ``order()`` returns it, and any chain built stops on reaching it.
    Otherwise ``order()`` counts the elements once they are known, and
    builds the chain while they are not.  Membership reads the view's
    index once ``engine.view_of`` has built one, and the chain otherwise."""

    __slots__ = ("degree", "generators", "_chain", "_order", "_elements", "_view")

    def __init__(self, degree, generators=(), order=None):
        if degree < 1:
            raise PreconditionError("degree must be at least 1")
        norm = set()
        for g in generators:
            p = g if isinstance(g, (bytes, tuple)) else make_perm(g)
            if len(p) < degree:
                p = make_perm(list(p) + list(range(len(p), degree)))
            elif len(p) > degree:
                raise PreconditionError(
                    f"generator degree {len(p)} exceeds group degree {degree}"
                )
            if not is_identity(p):
                norm.add(p)
        self.degree = degree
        self.generators = tuple(sorted(norm))
        self._chain = None
        self._order = order
        self._elements = None
        self._view = None  # engine.view_of

    @property
    def _levels(self):
        if self._chain is None:
            self._chain = _build_chain(self.degree, self.generators, order=self._order)
        return self._chain

    # -- basic queries -------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            els = self._elements
            self._order = _chain_order(self._levels) if els is None else len(els)
        return self._order

    def is_trivial(self) -> bool:
        return not self.generators

    def __contains__(self, p) -> bool:
        if len(p) != self.degree:
            return False
        if not isinstance(p, (bytes, tuple)):
            p = make_perm(p)
        if self._view is not None:
            return p in self._view._index
        for lvl in self._levels:
            img = p[lvl.base]
            if img == lvl.base:
                continue
            rep = lvl.transversal.get(img)
            if rep is None:
                return False
            p = compose(inverse(rep), p)
        return is_identity(p)

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and all(g in other for g in self.generators)
        )

    def __hash__(self):
        return hash((self.degree, self.order()))

    def __repr__(self):
        gens = ", ".join(format_cycles(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order()}, <{gens}>)"

    # -- orbits and stabilizers ----------------------------------------

    def orbit(self, p: int) -> list[int]:
        if not 0 <= p < self.degree:
            raise PreconditionError(f"point {p} outside 0..{self.degree - 1}")
        return sorted(orbit_of(self.generators, (p,)))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def fixes_a_point(self) -> int | None:
        """Some point that every generator fixes, or None."""
        return next(
            (x for x in range(self.degree) if all(g[x] == x for g in self.generators)), None
        )

    def point_stabilizer(self, p: int) -> "PermGroup":
        """Stab_G(p), via a chain rebuilt with base starting at p.  That
        chain is complete, so it also proves G's order."""
        if not 0 <= p < self.degree:
            raise PreconditionError(f"point {p} outside 0..{self.degree - 1}")
        if all(g[p] == p for g in self.generators):
            return self
        levels = _build_chain_prefixed(self.degree, self.generators, p, self._order)
        self._order = _chain_order(levels)
        gens = [g for lvl in levels[1:] for g in lvl.gens]
        return PermGroup(self.degree, gens, self._order // len(levels[0].transversal))

    def elements(self) -> tuple:
        """All elements, sorted; cached.  No chain is built."""
        if self._elements is None:
            self._elements = tuple(sorted(closure_of(self.generators, self.degree)))
        return self._elements

    def conjugate(self, w) -> "PermGroup":
        """The group w G w^{-1}."""
        winv = inverse(w)
        return PermGroup(self.degree, [compose(w, compose(g, winv)) for g in self.generators])

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": GROUP_JSON_VERSION,
            "degree": self.degree,
            "generators": [list(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, obj) -> "PermGroup":
        if obj.get("version") != GROUP_JSON_VERSION:
            raise PreconditionError(f"unknown group JSON version {obj.get('version')!r}")
        degree = obj["degree"]
        gens = []
        for g in obj["generators"]:
            if isinstance(g, str):
                gens.append(parse_perm(g, degree))
            else:
                gens.append(make_perm(g))
        return cls(degree, gens)


def _build_chain_prefixed(degree, gens, first_base, order=None):
    # Kept as its own name for point stabilizers so that callers tracing
    # chain builds by name (bench/spans.py) still find it.
    return _build_chain(degree, gens, first_base, order)


# -- module-level operations ---------------------------------------------


def group_order(G: PermGroup) -> int:
    return G.order()


def is_transitive(G: PermGroup) -> bool:
    return G.is_transitive()


def point_stabilizer(G: PermGroup, p: int) -> PermGroup:
    return G.point_stabilizer(p)


def _require_subgroup(G: PermGroup, H: PermGroup, name="H"):
    if not H.is_subgroup_of(G):
        raise PreconditionError(f"{name} is not a subgroup of G")


def group_from_elements(degree, elements) -> PermGroup:
    """The subgroup with the given elements (the identity may be left out),
    generated as ``GroupView.greedy_generators`` picks."""
    id_perm = identity(degree)
    elements = set(elements) | {id_perm}
    if len(elements) == 1:
        return PermGroup(degree)
    view = GroupView.from_perm_elements(elements, id_perm)
    gens = view.greedy_generators(range(view.size))
    return PermGroup(degree, [view.elements[i] for i in gens], len(elements))


def normal_core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G contained in H (kernel of the coset action)."""
    _require_subgroup(G, H)
    action = coset_action(G, H)
    return action.kernel


@dataclass
class CosetActionResult:
    """Action of G on the left cosets of H, with kernel = Core_G(H).  The
    identity coset H is point 0 of the image.  The kernel is known by its
    elements; its group is built on first use."""

    image: PermGroup
    _coset_of: dict = field(repr=False)
    _reps: list = field(repr=False)
    _kernel_elements: list = field(repr=False)

    @property
    def kernel_order(self) -> int:
        return len(self._kernel_elements)

    @cached_property
    def kernel(self) -> PermGroup:
        els = self._kernel_elements  # never empty: the identity is in it
        return group_from_elements(len(els[0]), els)

    def image_of_element(self, x):
        """The permutation of cosets induced by x (x must lie in G)."""
        return make_perm(map(self._coset_of.__getitem__, left_multiples(x, self._reps)))


def coset_action(G: PermGroup, H: PermGroup) -> CosetActionResult:
    """The action of G on the left cosets x H, enumerated from the identity
    coset by G's generators.  Each new coset's elements x h (h in H) are
    composed through one translation table of x, and an h of H lies in the
    kernel when h r H = r H for every coset representative r."""
    _require_subgroup(G, H)
    degree = G.degree
    h_elements = H.elements()
    coset_of = dict.fromkeys(h_elements, 0)
    reps = [identity(degree)]
    queue = 0
    while queue < len(reps):
        r = reps[queue]
        queue += 1
        for g in G.generators:
            x = compose(g, r)
            if x not in coset_of:
                coset_of.update(zip(left_multiples(x, h_elements), repeat(len(reps))))
                reps.append(x)
    index = len(reps)
    if index * H.order() != G.order():
        raise PreconditionError("coset enumeration mismatch; H is not a subgroup of G")
    cosets = coset_of.__getitem__
    kernel_els = [
        h
        for h in h_elements
        if all(cosets(y) == i for i, y in enumerate(left_multiples(h, reps)))
    ]
    image_gens = [make_perm(map(cosets, left_multiples(g, reps))) for g in G.generators]
    image = PermGroup(max(index, 1), image_gens, G.order() // len(kernel_els))
    return CosetActionResult(image, coset_of, reps, kernel_els)


def are_conjugate_subgroups(G: PermGroup, H1: PermGroup, H2: PermGroup):
    """(True, witness) if some g in G maps H1 onto H2, else (False, None)."""
    _require_subgroup(G, H1, "H1")
    _require_subgroup(G, H2, "H2")
    if H1.order() != H2.order():
        return False, None
    target = frozenset(H2.elements())
    start = frozenset(H1.elements())
    if start == target:
        return True, identity(G.degree)
    seen = {start: identity(G.degree)}
    frontier = [start]
    while frontier:
        new = []
        for S in frontier:
            w = seen[S]
            for g in G.generators:
                ginv = inverse(g)
                T = frozenset(compose(g, compose(x, ginv)) for x in S)
                if T in seen:
                    continue
                wt = compose(g, w)
                if T == target:
                    return True, wt
                seen[T] = wt
                new.append(T)
        frontier = new
    return False, None
