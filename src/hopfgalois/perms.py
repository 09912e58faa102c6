"""Permutation arithmetic on the points 0..degree-1.

A permutation is stored as its image sequence: entry ``i`` is the image of
point ``i``.  Degrees up to 256 use ``bytes``, which is compact, hashable,
orders lexicographically like a tuple, and lets composition ride on
``bytes.translate``.  Larger degrees (direct products with a big cyclic
factor) fall back to tuples of ints.

Serialization: image arrays like ``[1,0,3,2]``; cycle notation such as
``(0 1)(2 3)`` or ``(0,1)(2,3)`` is accepted on input.
"""

from __future__ import annotations

import json
import math
import re

_BYTES_MAX = 256
_ID256 = bytes(range(_BYTES_MAX))


def make_perm(images) -> bytes | tuple:
    """Build the canonical representation, validating bijectivity."""
    images = list(images)
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
    return bytes(images) if n <= _BYTES_MAX else tuple(images)


def identity(degree: int) -> bytes | tuple:
    if degree <= _BYTES_MAX:
        return _ID256[:degree]
    return tuple(range(degree))


def is_identity(p) -> bool:
    return all(i == x for i, x in enumerate(p))


def compose(p, q):
    """Apply ``q`` first, then ``p``: ``compose(p, q)[i] == p[q[i]]``."""
    if isinstance(p, bytes):
        table = p if len(p) == _BYTES_MAX else p + _ID256[len(p):]
        return q.translate(table)
    return tuple(p[i] for i in q)


def pad256(p: bytes) -> bytes:
    """Translation table for use as a left factor: compose = q.translate(pad)."""
    return p if len(p) == _BYTES_MAX else p + _ID256[len(p):]


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return bytes(inv) if isinstance(p, bytes) else tuple(inv)


def power(p, k: int):
    if k < 0:
        return power(inverse(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(base, result)
        k >>= 1
        if k:
            base = compose(base, base)
    return result


def perm_order(p) -> int:
    order = 1
    for cycle in cycle_decomposition(p):
        order = math.lcm(order, len(cycle))
    return order


def cycle_type(p) -> tuple[int, ...]:
    """Lengths of the nontrivial cycles, ascending."""
    return tuple(sorted(len(c) for c in cycle_decomposition(p)))


def cycle_length_at(p, x: int) -> int:
    """Length of the cycle of ``p`` through point ``x`` (1 if x is fixed)."""
    k, y = 1, p[x]
    while y != x:
        y = p[y]
        k += 1
    return k


def cycle_decomposition(p) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point, sorted."""
    n = len(p)
    seen = bytearray(n)
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            continue
        cycle = [i]
        seen[i] = 1
        j = p[i]
        while j != i:
            seen[j] = 1
            cycle.append(j)
            j = p[j]
        cycles.append(tuple(cycle))
    return cycles


def format_images(p) -> str:
    return json.dumps(list(p), separators=(",", ""))


def format_cycles(p) -> str:
    cycles = cycle_decomposition(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, degree: int | None = None):
    """Parse an image array or a product of cycles.

    If ``degree`` is given the result is padded with fixed points up to it.
    """
    text = text.strip()
    if text.startswith("["):
        images = json.loads(text)
        if degree is not None:
            if len(images) > degree:
                raise ValueError(f"permutation of length {len(images)} exceeds degree {degree}")
            images = list(images) + list(range(len(images), degree))
        return make_perm(images)
    if text == "()" or text == "":
        return identity(degree or 0)
    if not text.startswith("("):
        raise ValueError(f"cannot parse permutation: {text!r}")
    covered = _CYCLE_RE.sub("", text).strip()
    if covered:
        raise ValueError(f"trailing garbage in cycle notation: {text!r}")
    cycles = []
    maxpt = -1
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        pts = [int(tok) for tok in re.split(r"[,\s]+", body)]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {body!r}")
        cycles.append(pts)
        maxpt = max(maxpt, max(pts))
    n = max(maxpt + 1, degree or 0)
    # Cycles apply left to right, which agrees with the usual reading for
    # disjoint-cycle form.
    result = identity(n)
    for pts in cycles:
        images = list(range(n))
        for a, b in zip(pts, pts[1:]):
            images[a] = b
        images[pts[-1]] = pts[0]
        result = compose(make_perm(images), result)
    return result
