"""Automorphism groups, holomorphs, and related projections.

For a group N with elements 0..n-1 (identity 0), an automorphism is both an
index map and a permutation of the points of the regular action, so the
holomorph lives on the same n points as N itself: it is generated by the
left translations together with the automorphisms, acts by
``[eta, alpha] . mu = eta * alpha(mu)``, and has order |N| * |Aut(N)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._numtheory import crt, factorize, is_squarefree, primitive_root
from .engine import GroupView
from .errors import PreconditionError, ResourceLimitError
from .groups import AbstractGroup
from .homsearch import automorphisms as _automorphism_maps
from .permgroup import PermGroup, group_from_elements
from .perms import compose, identity, make_perm

AUT_ORDER_BOUND = 256


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(N) as permutations of N's elements; every map fixes point 0."""

    group: PermGroup
    maps: tuple  # every automorphism, sorted

    def order(self) -> int:
        return len(self.maps)


def automorphism_group(N: AbstractGroup, max_order: int = AUT_ORDER_BOUND) -> AutomorphismGroup:
    if N.order > max_order:
        raise ResourceLimitError(
            f"automorphism search bound exceeded: |N| = {N.order} > {max_order}"
        )
    return _automorphism_group_cached(N.table)


@lru_cache(maxsize=256)
def _automorphism_group_cached(table) -> AutomorphismGroup:
    n = len(table)
    view = GroupView.from_table(table)
    maps = sorted(
        make_perm([full[x] for x in range(n)]) for full in _automorphism_maps(view)
    )
    return AutomorphismGroup(group_from_elements(n, maps), tuple(maps))


@dataclass(frozen=True)
class Holomorph:
    """Hol(N) acting on the n points of N."""

    group: PermGroup
    lambda_group: PermGroup
    aut: AutomorphismGroup
    N_ref: AbstractGroup

    @property
    def degree(self) -> int:
        return self.group.degree

    def to_json(self) -> dict:
        return {
            "version": 1,
            "label": self.N_ref.label,
            "degree": self.degree,
            "lambda_generators": [list(p) for p in self.lambda_group.generators],
            "aut_generators": [list(p) for p in self.aut.group.generators],
        }


def holomorph(N: AbstractGroup, max_order: int = AUT_ORDER_BOUND) -> Holomorph:
    aut = automorphism_group(N, max_order)
    lam = _regular_group(N)
    gens = list(lam.generators) + list(aut.group.generators)
    group = PermGroup(max(N.order, 1), gens)
    expected = N.order * aut.order()
    if group.order() != expected:
        raise PreconditionError(
            f"holomorph construction failed: |group| = {group.order()}, expected {expected}"
        )
    return Holomorph(group, lam, aut, N)


def _regular_group(N: AbstractGroup) -> PermGroup:
    from .groups import regular_representation

    return regular_representation(N)


# -- squarefree Hall decomposition ----------------------------------------


def _prime_set(n: int) -> set[int]:
    return {p for p, _ in factorize(n)}


def _pi_part(m: int, primes: set[int]) -> int:
    out = 1
    for p, a in factorize(m):
        if p in primes:
            out *= p**a
    return out


def _metacyclic_params(N: AbstractGroup):
    if N.params and N.params[0] == "metacyclic":
        return N.params[1], N.params[2], N.params[3]
    if N.params and N.params[0] == "cyclic":
        return N.params[1], 1, 1
    raise PreconditionError(
        "Hall decomposition needs a squarefree group built from its metacyclic presentation"
    )


def automorphism_from_images(N: AbstractGroup, gen_images: dict):
    """Point permutation of the automorphism sending each generator index to
    the given image index; raises if the assignment is not an automorphism."""
    gens = list(gen_images)
    # express every element over the provided generators via BFS words
    word_parent = {0: None}
    order_list = [0]
    qi = 0
    while qi < len(order_list):
        x = order_list[qi]
        qi += 1
        for g in gens:
            y = N.mul(g, x)
            if y not in word_parent:
                word_parent[y] = (g, x)
                order_list.append(y)
    if len(order_list) != N.order:
        raise PreconditionError("given generators do not generate N")
    img = {0: 0}
    for y in order_list[1:]:
        g, x = word_parent[y]
        img[y] = N.mul(gen_images[g], img[x])
    # verify multiplicativity on all Cayley edges
    for x in range(N.order):
        for g in gens:
            if img[N.mul(g, x)] != N.mul(gen_images[g], img[x]):
                raise PreconditionError("generator images do not define an automorphism")
    if len(set(img.values())) != N.order:
        raise PreconditionError("generator images do not define a bijection")
    return make_perm([img[x] for x in range(N.order)])


def hall_pi_subgroup(hol: Holomorph) -> PermGroup:
    """The unique Hall subgroup of Hol(N) for the primes dividing |N|,
    built from the presentation of squarefree N: N extended by the
    automorphisms fixing the torsion data (theta and the pi-part of the
    diagonal maps)."""
    N = hol.N_ref
    n = N.order
    if not is_squarefree(n):
        raise PreconditionError("Hall decomposition requires squarefree |N|")
    e, d, k = _metacyclic_params(N)
    primes = _prime_set(n)
    # element s^i t^j has index i*d + j
    sigma = 1 * d % (e * d) if e > 1 else 0
    tau = 1 if d > 1 else 0
    gens = list(hol.lambda_group.generators)
    if e > 1:
        if d > 1:
            z = math.gcd(k - 1, e)
            theta = automorphism_from_images(
                N, {sigma: sigma, tau: N.mul(_s_power(N, z, d), tau)}
            )
            gens.append(theta)
        # diagonal maps phi_s: s -> s^m, t -> t, for m in the pi-part of (Z/e)*
        for m in _pi_part_unit_generators(e, primes):
            images = {sigma: _s_power(N, m, d)}
            if d > 1:
                images[tau] = tau
            gens.append(automorphism_from_images(N, images))
    Q = PermGroup(max(n, 1), gens)
    expected = _pi_part(hol.group.order(), primes)
    if Q.order() != expected:
        raise PreconditionError(
            f"Hall subgroup construction failed: order {Q.order()}, expected {expected}"
        )
    return Q


def _s_power(N: AbstractGroup, i: int, d: int) -> int:
    e = N.order // d
    return (i % e) * d


def _pi_part_unit_generators(e: int, primes: set[int]) -> list[int]:
    """Generators of the Hall pi-part of (Z/e)* for squarefree e, via CRT."""
    out = []
    for p, _ in factorize(e):
        root = primitive_root(p)
        target = _pi_part(p - 1, primes)
        if target == 1:
            continue
        exp = (p - 1) // target
        val = pow(root, exp, p)
        out.append(crt(val, p, 1, e // p))
    return out


def hall_decomposition(hol: Holomorph, G: PermGroup):
    """G = U x| V for squarefree |N|: U = G meet Q is the unique Hall
    subgroup of G for the primes of |N|, V a complement of coprime order."""
    N = hol.N_ref
    n = N.order
    if not is_squarefree(n):
        raise PreconditionError("Hall decomposition requires squarefree |N|")
    if not G.is_subgroup_of(hol.group):
        raise PreconditionError("G must be a subgroup of the holomorph")
    Q = hall_pi_subgroup(hol)
    u_elements = [x for x in G.elements() if x in Q]
    U = group_from_elements(G.degree, u_elements)
    v_order = G.order() // U.order()
    if v_order == 1:
        return U, PermGroup(G.degree, [])
    primes = _prime_set(n)
    from .perms import perm_order

    pi_prime = [
        x for x in G.elements() if math.gcd(perm_order(x), math.prod(primes)) == 1
    ]
    pi_prime_set = set(pi_prime)
    # V is abelian (inside a conjugate of the diagonal complement), so grow
    # subgroups whose elements all have order coprime to n
    seen = set()
    frontier = [frozenset({identity(G.degree)})]
    seen.add(frontier[0])
    while frontier:
        new = []
        for S in frontier:
            if len(S) == v_order:
                V = group_from_elements(G.degree, S)
                return U, V
            for x in sorted(pi_prime):
                if x in S:
                    continue
                closure = _closure_within(S, x, pi_prime_set)
                if closure is None or closure in seen:
                    continue
                if v_order % len(closure) == 0:
                    seen.add(closure)
                    new.append(closure)
        frontier = new
    raise PreconditionError("no Hall complement found; G is not inside the holomorph")


def _closure_within(S, x, allowed):
    els = set(S)
    els.add(x)
    gens = [g for g in els if not all(i == v for i, v in enumerate(g))]
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                y = compose(g, a)
                if y not in allowed:
                    return None
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return frozenset(els)


# -- characteristic quotient projection -----------------------------------


@dataclass(frozen=True)
class HolomorphProjection:
    """The block-system homomorphism Hol(N) -> Hol(N/M) for characteristic M."""

    source: AbstractGroup
    quotient: AbstractGroup
    coset_of: tuple  # N-element index -> quotient element index
    reps: tuple      # quotient element index -> a representative N-element

    def apply(self, p):
        """Image of a holomorph element; raises if p does not respect cosets."""
        n = len(self.coset_of)
        q = [None] * len(self.reps)
        for x in range(n):
            c = self.coset_of[x]
            img = self.coset_of[p[x]]
            if q[c] is None:
                q[c] = img
            elif q[c] != img:
                raise PreconditionError("element does not normalize the coset partition")
        return make_perm(q)

    def project_group(self, G: PermGroup) -> PermGroup:
        return PermGroup(len(self.reps), [self.apply(g) for g in G.generators])


def holomorph_projection(N: AbstractGroup, M_char: PermGroup) -> HolomorphProjection:
    """Projection induced by a characteristic subgroup M of the regular copy
    of N; M_char is given as a permutation group of left translations."""
    n = N.order
    if M_char.degree != n:
        raise PreconditionError("subgroup degree does not match N")
    members = sorted(p[0] for p in M_char.elements())
    member_set = set(members)
    for a in members:
        if make_perm(N.table[a]) not in M_char:
            raise PreconditionError("M is not a subgroup of the regular copy of N")
        for b in members:
            if N.mul(a, b) not in member_set:
                raise PreconditionError("M is not closed under multiplication")
    aut = automorphism_group(N)
    for m in aut.group.generators:
        if {m[a] for a in members} != member_set:
            raise PreconditionError("M is not characteristic in N")
    # enumerate cosets xM in BFS order from the identity coset
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for b in members:
            coset_of[N.mul(x, b)] = c
    size = len(reps)
    table = tuple(
        tuple(coset_of[N.mul(reps[a], reps[b])] for b in range(size)) for a in range(size)
    )
    quotient = AbstractGroup(size, table, f"{N.label}/M", f"{N.tag}/M", None)
    return HolomorphProjection(N, quotient, tuple(coset_of), tuple(reps))
