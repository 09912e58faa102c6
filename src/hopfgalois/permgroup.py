"""Permutation groups with deterministic stabilizer chains.

Groups are immutable after construction: the chain is built eagerly, base
points are chosen as the least moved point at each level, and orbits are
swept in sorted order, so orders, membership tests and element enumeration
are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .engine import GroupView
from .errors import PreconditionError
from .perms import (
    compose,
    format_cycles,
    identity,
    inverse,
    is_identity,
    left_multiples,
    make_perm,
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


def _build_chain(degree, gens, first_base=None):
    """Deterministic Schreier-Sims; returns the list of levels.  With
    ``first_base`` given, the chain's first base point is forced to it."""
    levels = [] if first_base is None else [_Level(first_base, degree)]

    def cumulative(i):
        out = []
        for lvl in levels[i:]:
            out.extend(lvl.gens)
        return out

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
            gens_i = cumulative(i)
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
    return levels


class PermGroup:
    """An immutable permutation group on ``degree`` points."""

    __slots__ = ("degree", "generators", "_levels", "_order", "_elements", "_view")

    def __init__(self, degree, generators=()):
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
        self._levels = _build_chain(degree, self.generators)
        order = 1
        for lvl in self._levels:
            order *= len(lvl.transversal)
        self._order = order
        self._elements = None
        self._view = None  # engine.view_of

    # -- basic queries -------------------------------------------------

    def order(self) -> int:
        return self._order

    def is_trivial(self) -> bool:
        return self._order == 1

    def __contains__(self, p) -> bool:
        if len(p) != self.degree:
            return False
        if not isinstance(p, (bytes, tuple)):
            p = make_perm(p)
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
            and self._order == other._order
            and all(g in other for g in self.generators)
        )

    def __hash__(self):
        return hash((self.degree, self._order))

    def __repr__(self):
        gens = ", ".join(format_cycles(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self._order}, <{gens}>)"

    # -- orbits and stabilizers ----------------------------------------

    def orbit(self, p: int) -> list[int]:
        if not 0 <= p < self.degree:
            raise PreconditionError(f"point {p} outside 0..{self.degree - 1}")
        seen = {p}
        frontier = [p]
        while frontier:
            new = []
            for pt in frontier:
                for g in self.generators:
                    img = g[pt]
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            new.sort()
            frontier = new
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        seen = set()
        out = []
        for p in range(self.degree):
            if p in seen:
                continue
            orb = self.orbit(p)
            seen.update(orb)
            out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, p: int) -> "PermGroup":
        """Stab_G(p), via a chain rebuilt with base starting at p."""
        if not 0 <= p < self.degree:
            raise PreconditionError(f"point {p} outside 0..{self.degree - 1}")
        moved = any(g[p] != p for g in self.generators)
        if not moved:
            return self
        levels = _build_chain_prefixed(self.degree, self.generators, p)
        gens = []
        for lvl in levels[1:]:
            gens.extend(lvl.gens)
        stab = PermGroup(self.degree, gens)
        assert stab.order() * len(levels[0].transversal) == self._order
        return stab

    def elements(self) -> tuple:
        """All elements, sorted; cached."""
        if self._elements is None:
            els = [identity(self.degree)]
            for lvl in reversed(self._levels):
                reps = list(lvl.transversal.values())
                els = [compose(rep, e) for rep in reps for e in els]
            els.sort()
            self._elements = tuple(els)
            assert len(self._elements) == self._order
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


def _build_chain_prefixed(degree, gens, first_base):
    # Kept as its own name for point stabilizers so that callers tracing
    # chain builds by name (bench/spans.py) still find it.
    return _build_chain(degree, gens, first_base)


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
    return PermGroup(degree, [view.elements[i] for i in gens])


def normal_core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G contained in H (kernel of the coset action)."""
    _require_subgroup(G, H)
    action = coset_action(G, H)
    return action.kernel


@dataclass
class CosetActionResult:
    """Action of G on the left cosets of H, with kernel = Core_G(H)."""

    image: PermGroup
    kernel: PermGroup
    point_of_identity_coset: int
    _coset_of: dict = field(repr=False)
    _reps: list = field(repr=False)

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
    image_gens = [make_perm(map(cosets, left_multiples(g, reps))) for g in G.generators]
    image = PermGroup(max(index, 1), image_gens)
    kernel_els = [
        h
        for h in h_elements
        if all(cosets(y) == i for i, y in enumerate(left_multiples(h, reps)))
    ]
    kernel = group_from_elements(degree, kernel_els)
    return CosetActionResult(image, kernel, 0, coset_of, reps)


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
