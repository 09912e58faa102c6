"""Abstract isomorphism and designated-subgroup ("pair") isomorphism tests.

A pair (G, G') is isomorphic to (M, M') when some abstract isomorphism
G -> M carries G' onto M'.  The search adapts the generating sequence to
the designated subgroup, so the constraint prunes instead of multiplying
work; every returned witness is re-verified by replay.

When both pairs are (transitive group, stabilizer of point 0) on one
degree, every pair isomorphism is conjugation by a bijection of the points
(the two actions are equivalent to the actions on the cosets of the
stabilizers), so it preserves cycle types: each generator's candidate
images share its cycle type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import view_of
from .errors import PreconditionError, ResourceLimitError
from .homsearch import isomorphisms
from .permgroup import PermGroup, coset_action

DEFAULT_ISO_BOUND = 10_000


@dataclass(frozen=True)
class PairWitness:
    """Generator-image list defining an isomorphism, with subgroup data.

    ``mapping`` pairs source generators with their images (permutations of
    the respective groups' points).  ``verified`` records that the witness
    was replayed: the map extends to a bijective homomorphism carrying the
    designated subgroup onto its target.
    """

    mapping: tuple
    verified: bool

    def to_json(self) -> dict:
        return {
            "mapping": [[list(a), list(b)] for a, b in self.mapping],
            "verified": self.verified,
        }


def _bounded_views(G, M, max_order):
    if G.order() > max_order or M.order() > max_order:
        raise ResourceLimitError(
            f"isomorphism search bound exceeded: orders {G.order()}, {M.order()} > {max_order}"
        )
    return view_of(G), view_of(M)


def _subgroup_indices(view, H: PermGroup) -> frozenset:
    try:
        return frozenset(view._index[h] for h in H.elements())
    except KeyError:
        raise PreconditionError("designated subgroup is not contained in its parent") from None


def is_point_stabilizer_pair(G: PermGroup, G_sub: PermGroup) -> bool:
    """Whether G is transitive and G_sub is its stabilizer of point 0."""
    return (
        all(g[0] == 0 for g in G_sub.generators)
        and G_sub.order() * G.degree == G.order()
        and G.is_transitive()
        and G_sub.is_subgroup_of(G)
    )


def _witness_from(va, vb, gens, images) -> PairWitness:
    mapping = tuple(
        (va.elements[g], vb.elements[h]) for g, h in zip(gens, images)
    )
    return PairWitness(mapping, True)


def _replay_verifies(va, vb, full_map, sub_a=None, sub_b=None) -> bool:
    """Re-check a found map: bijective, multiplicative, subgroup onto subgroup."""
    if len(full_map) != va.size or len(set(full_map.values())) != vb.size:
        return False
    for a in range(va.size):
        fa = full_map[a]
        for g in va.generators():
            if full_map[va.mul(g, a)] != vb.mul(full_map[g], fa):
                return False
    if sub_a is not None:
        if {full_map[x] for x in sub_a} != set(sub_b):
            return False
    return True


def find_isomorphism(
    G: PermGroup, M: PermGroup, *, max_order: int = DEFAULT_ISO_BOUND
) -> PairWitness | None:
    """A verified isomorphism G -> M, or None when none exists."""
    if G.order() != M.order():
        return None
    va, vb = _bounded_views(G, M, max_order)
    if va.invariant_vector() != vb.invariant_vector():
        return None
    for gens, images, full in isomorphisms(va, vb, first_only=True):
        if not _replay_verifies(va, vb, full):
            raise PreconditionError("isomorphism replay failed")
        return _witness_from(va, vb, gens, images)
    return None


def pair_isomorphic(
    G: PermGroup,
    G_sub: PermGroup,
    M: PermGroup,
    M_sub: PermGroup,
    *,
    max_order: int = DEFAULT_ISO_BOUND,
) -> PairWitness | None:
    """A verified isomorphism G -> M with image of G_sub equal to M_sub."""
    if G.order() != M.order() or G_sub.order() != M_sub.order():
        return None
    va, vb = _bounded_views(G, M, max_order)
    sub_a = _subgroup_indices(va, G_sub)
    sub_b = _subgroup_indices(vb, M_sub)
    by_cycle_type = (
        G.degree == M.degree
        and is_point_stabilizer_pair(G, G_sub)
        and is_point_stabilizer_pair(M, M_sub)
    )
    if va.invariant_vector() != vb.invariant_vector():
        return None
    if va.subgroup_order_histogram(sub_a) != vb.subgroup_order_histogram(sub_b):
        return None
    for gens, images, full in isomorphisms(
        va, vb, sub_a=sub_a, sub_b=sub_b, first_only=True, by_cycle_type=by_cycle_type
    ):
        if not _replay_verifies(va, vb, full, sub_a, sub_b):
            raise PreconditionError("pair isomorphism replay failed")
        return _witness_from(va, vb, gens, images)
    return None


def permutation_pair_of_quotient(G: PermGroup, H: PermGroup):
    """The transitive pair (J, J') of the action of G on the cosets of H:
    J = G/Core_G(H) acting faithfully on [G:H] points, J' = Stab_J(0)."""
    action = coset_action(G, H)
    J = action.image
    j_sub = PermGroup(J.degree, [action.image_of_element(h) for h in H.generators])
    return J, j_sub
