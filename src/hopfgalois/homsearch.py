"""Generator-image backtracking for isomorphisms between finite groups.

The search picks a short generating sequence of the source, optionally
adapted to a designated subgroup (its generators come first and their
images are restricted to the designated target subgroup), and extends
candidate image tuples via a precomputed word schedule: every element of
the partial subgroup is written once as ``gen * earlier_element`` and all
remaining Cayley edges become consistency checks, interleaved in discovery
order so a bad candidate dies on its first inconsistent edge.

A generator's candidate images are the target elements with its
fingerprint, (order, conjugacy class size), in index order.  When every
isomorphism sought is conjugation by a bijection of the points, the
element's cycle type joins the fingerprint; this drops only images no such
map can use, so the search meets its solutions in the same order.  Such
searches are run only once ``isomorphism.point_map`` has found that a map
exists, to produce the witness: negative tests between two point-stabilizer
pairs never reach this module.
"""

from __future__ import annotations

from .engine import GroupView


class _Schedule:
    """Word schedule for one prefix ⟨g_1..g_t⟩ of the generating sequence.

    ``ops`` lists (is_check, target, gen_slot, source): with is_check False
    the element at position ``target`` equals gens[slot] * element[source]
    and is being defined; with is_check True it was defined earlier and the
    equality is a consistency requirement.
    """

    __slots__ = ("order", "elements", "ops")

    def __init__(self, view: GroupView, gens: list[int], identity: int):
        pos = {identity: 0}
        elements = [identity]
        ops = []
        qi = 0
        while qi < len(elements):
            x = elements[qi]
            qi += 1
            for slot, g in enumerate(gens):
                y = view.mul(g, x)
                known = pos.get(y)
                if known is None:
                    pos[y] = len(elements)
                    ops.append((False, len(elements), slot, qi - 1))
                    elements.append(y)
                else:
                    ops.append((True, known, slot, qi - 1))
        self.order = len(elements)
        self.elements = elements
        self.ops = ops


def _adapted_generators(view: GroupView, sub: frozenset | None):
    """Generating sequence of the whole view; if ``sub`` is given its
    generators form a prefix.  Returns (gens, cut) with cut = prefix length."""
    if sub is None:
        return list(view.generators()), 0
    sub_gens = view.greedy_generators(sub)
    return list(view.greedy_generators(range(view.size), sub_gens)), len(sub_gens)


def _candidate_pools(A: GroupView, B: GroupView, gens, cut, sub_b, by_cycle_type):
    fps_a = A.fingerprints()
    fps_b = B.fingerprints()
    if by_cycle_type:
        fps_a = list(zip(fps_a, A.cycle_types()))
        fps_b = list(zip(fps_b, B.cycle_types()))
    buckets = {}
    for j in range(B.size):
        buckets.setdefault(fps_b[j], []).append(j)
    pools = []
    for t, g in enumerate(gens):
        pool = buckets.get(fps_a[g], [])
        if t < cut:
            pool = [j for j in pool if j in sub_b]
        pools.append(pool)
    return pools


def isomorphisms(
    A: GroupView,
    B: GroupView,
    *,
    sub_a: frozenset | None = None,
    sub_b: frozenset | None = None,
    first_only: bool = True,
    by_cycle_type: bool = False,
):
    """Yield isomorphisms A -> B as ``(gens, gen_images, full_map)``.

    ``full_map`` maps every A-index to its B-index.  With ``sub_a``/
    ``sub_b`` given, only isomorphisms carrying sub_a onto sub_b are
    produced (sub_a must be a subgroup of A, sub_b of B).
    ``by_cycle_type`` (permutation-backed views of one degree) asserts that
    every isomorphism sought preserves cycle types, and narrows the
    candidate images accordingly.
    """
    if A.size != B.size:
        return
    if (sub_a is None) != (sub_b is None):
        raise ValueError("sub_a and sub_b must be given together")
    if sub_a is not None and len(sub_a) != len(sub_b):
        return
    if A.size == 1:
        yield [], [], {A.identity: B.identity}
        return
    gens, cut = _adapted_generators(A, sub_a)
    schedules = [_Schedule(A, gens[: t + 1], A.identity) for t in range(len(gens))]
    pools = _candidate_pools(A, B, gens, cut, sub_b, by_cycle_type)
    if any(not p for p in pools):
        return
    depth = len(gens)
    bmul = B.mul

    # images of each schedule's elements, stacked per depth
    img_stack: list[list[int]] = []
    gen_imgs: list[int] = []

    def extend(t):
        sched = schedules[t]
        prev_imgs = img_stack[t - 1] if t else [B.identity]
        prev_elements = schedules[t - 1].elements if t else [A.identity]
        carry = {x: prev_imgs[i] for i, x in enumerate(prev_elements)}
        base = [carry.get(x, -1) for x in sched.elements]
        for cand in pools[t]:
            img = list(base)
            gen_imgs.append(cand)
            ok = True
            for is_check, target, slot, source in sched.ops:
                value = bmul(gen_imgs[slot], img[source])
                if is_check:
                    if img[target] != value:
                        ok = False
                        break
                elif img[target] < 0:
                    img[target] = value
                elif img[target] != value:
                    ok = False
                    break
            if ok and len(set(img)) == sched.order:
                img_stack.append(img)
                if t + 1 == depth:
                    yield list(gens), list(gen_imgs), {
                        x: img[i] for i, x in enumerate(sched.elements)
                    }
                else:
                    yield from extend(t + 1)
                img_stack.pop()
            gen_imgs.pop()

    for result in extend(0):
        yield result
        if first_only:
            return


def automorphisms(view: GroupView, *, sub: frozenset | None = None):
    """All automorphisms (optionally stabilizing ``sub`` setwise) as full maps."""
    return [
        full
        for _, _, full in isomorphisms(
            view, view, sub_a=sub, sub_b=sub, first_only=False
        )
    ]
