"""Catalogue of abstract groups of supported orders.

An :class:`AbstractGroup` is a multiplication table with the identity at
index 0.  Squarefree orders are enumerated from the metacyclic presentation
``<s, t | s^e = t^d = 1, t s t^-1 = s^k>`` with k of order d mod e; the
remaining supported orders are generated from abelian invariants, cyclic
extensions of smaller catalogue members and dicyclic tables, then
deduplicated up to isomorphism.  Catalogue order is deterministic: abelian
members first, then by construction parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._numtheory import divisors, factorize, is_squarefree, multiplicative_order
from .engine import GroupView
from .errors import PreconditionError, UnsupportedOrderError
from .homsearch import automorphisms, isomorphisms
from .permgroup import PermGroup
from .perms import make_perm

SUPPORTED_SPECIAL = frozenset(range(1, 17)) | {18, 20, 21, 24, 27}
SUPPORTED_DESCRIPTION = "1..16, 18, 20, 21, 24, 27, and all squarefree n <= 255"
SQUAREFREE_MAX = 255

# Classification counts for the hardwired (non-squarefree) orders; used as a
# completeness assertion on the generated catalogues.
KNOWN_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 18: 5, 20: 5, 21: 2, 24: 15, 27: 5,
}


def is_supported_order(n: int) -> bool:
    return n in SUPPORTED_SPECIAL or (is_squarefree(n) and 1 <= n <= SQUAREFREE_MAX)


@dataclass(frozen=True)
class AbstractGroup:
    """A finite group given by its multiplication table; identity is 0."""

    order: int
    table: tuple
    label: str = ""
    tag: str = ""
    params: tuple | None = None  # construction parameters, e.g. ("metacyclic", e, d, k)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(0)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[a][x]
            k += 1
        return k

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a))

    def view(self) -> GroupView:
        return _table_view(self.table)

    def relabel(self, label: str) -> "AbstractGroup":
        return AbstractGroup(self.order, self.table, label, self.tag, self.params)

    def __repr__(self):
        return f"AbstractGroup(order={self.order}, label={self.label!r}, tag={self.tag!r})"


@lru_cache(maxsize=512)
def _table_view(table) -> GroupView:
    return GroupView.from_table(table)


def _check_table(table):
    n = len(table)
    for a in range(n):
        if sorted(table[a]) != list(range(n)):
            raise PreconditionError("multiplication table rows must be permutations")
        if table[a][0] != a or table[0][a] != a:
            raise PreconditionError("element 0 must be the identity")
    limit = 64
    import itertools

    triples = (
        itertools.product(range(n), repeat=3)
        if n <= limit
        else itertools.islice(
            ((a % n, (a * 7 + 3) % n, (a * 13 + 5) % n) for a in range(4096)), 4096
        )
    )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise PreconditionError("multiplication table is not associative")


# -- constructors --------------------------------------------------------


def _build(table, tag, params=None, check=True) -> AbstractGroup:
    table = tuple(tuple(row) for row in table)
    if check:
        _check_table(table)
    return AbstractGroup(len(table), table, "", tag, params)


def trivial_group() -> AbstractGroup:
    return _build([[0]], "1", ("cyclic", 1))


def cyclic(n: int) -> AbstractGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _build(table, f"C{n}", ("cyclic", n), check=False)


def direct_product(A: AbstractGroup, B: AbstractGroup) -> AbstractGroup:
    """Componentwise product; element (a, b) has index a*|B| + b."""
    nb = B.order
    ta, tb = A.table, B.table
    size = A.order * nb
    table = [
        [ta[x // nb][y // nb] * nb + tb[x % nb][y % nb] for y in range(size)]
        for x in range(size)
    ]
    tag = f"{A.tag}x{B.tag}" if A.tag and B.tag else ""
    return _build(table, tag, ("product", A.params, B.params), check=False)


def metacyclic(e: int, d: int, k: int) -> AbstractGroup:
    """<s, t | s^e = t^d = 1, t s t^-1 = s^k> with k^d = 1 mod e.

    Element s^i t^j has index i*d + j.
    """
    if pow(k, d, e) != 1 % e:
        raise PreconditionError(f"k={k} does not satisfy k^{d} = 1 mod {e}")
    kp = [pow(k, j, e) for j in range(d)]
    table = []
    for i in range(e):
        for j in range(d):
            row = []
            for a in range(e):
                for b in range(d):
                    row.append(((i + a * kp[j]) % e) * d + (j + b) % d)
            table.append(row)
    tag = f"C{e}" if d == 1 else f"C{e}:C{d}(k={k})"
    return _build(table, tag, ("metacyclic", e, d, k), check=False)


def dicyclic(m: int) -> AbstractGroup:
    """Dicyclic group of order 4m: <a, b | a^(2m) = 1, b^2 = a^m, bab^-1 = a^-1>.

    Element a^i b^j (j in {0,1}) has index i*2 + j.
    """
    n2 = 2 * m
    table = []
    for i in range(n2):
        for j in range(2):
            row = []
            for a in range(n2):
                for b in range(2):
                    # (a^i b^j)(a^a b^b): move b^j past a^a
                    ai = (i + (a if j == 0 else -a)) % n2
                    if j + b == 2:
                        ai = (ai + m) % n2
                    row.append(ai * 2 + (j + b) % 2)
            table.append(row)
    return _build(table, f"Dic{m}", ("dicyclic", m))


def semidirect_with_cyclic(A: AbstractGroup, d: int, phi) -> AbstractGroup:
    """A x| C_d where the C_d generator acts by the automorphism ``phi``
    (an index map on A with phi^d = identity).  Element (a, j) -> a*d + j.
    """
    n = A.order
    powers = [list(range(n))]
    for _ in range(d - 1):
        powers.append([phi[x] for x in powers[-1]])
    if [phi[x] for x in powers[-1]] != list(range(n)):
        raise PreconditionError("phi^d is not the identity")
    ta = A.table
    table = []
    for a in range(n):
        for j in range(d):
            pj = powers[j]
            row = []
            for b in range(n):
                for l in range(d):
                    row.append(ta[a][pj[b]] * d + (j + l) % d)
            table.append(row)
    return _build(table, f"({A.tag}):C{d}", ("semidirect", A.params, d), check=False)


# -- catalogue generation -------------------------------------------------


def _abelian_groups(n: int) -> list[AbstractGroup]:
    """One group per multiset of prime-power cyclic factors."""

    def partitions(a):
        if a == 0:
            yield ()
            return
        for first in range(a, 0, -1):
            for rest in partitions(a - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    factors = factorize(n)
    per_prime = []
    for p, a in factors:
        per_prime.append([(p, part) for part in partitions(a)])
    import itertools

    out = []
    for combo in itertools.product(*per_prime):
        cyc = []
        for p, part in combo:
            cyc.extend(p**e for e in part)
        cyc.sort(reverse=True)
        g = cyclic(cyc[0]) if cyc else trivial_group()
        for m in cyc[1:]:
            g = direct_product(g, cyclic(m))
        tag = "x".join(f"C{m}" for m in cyc) if cyc else "1"
        out.append(AbstractGroup(g.order, g.table, "", tag, ("abelian", tuple(cyc))))
    out.sort(key=lambda g: g.params)
    return out


def squarefree_groups(n: int) -> list[AbstractGroup]:
    """All groups of squarefree order n, via metacyclic presentations."""
    if not is_squarefree(n):
        raise PreconditionError(f"{n} is not squarefree")
    candidates = [metacyclic(n, 1, 1)]
    for d in divisors(n):
        if d == 1:
            continue
        e = n // d
        for k in range(2, e):
            if multiplicative_order(k, e) == d:
                candidates.append(metacyclic(e, d, k))
    groups = _dedup_by_isomorphism(candidates)
    groups.sort(key=lambda g: (0 if g.is_abelian() else 1, g.params))
    return groups


def _invariant_key(g: AbstractGroup) -> tuple:
    v = g.view()
    return v.invariant_vector()


def _dedup_by_isomorphism(candidates: list[AbstractGroup]) -> list[AbstractGroup]:
    buckets: dict[tuple, list[AbstractGroup]] = {}
    kept: list[AbstractGroup] = []
    for g in candidates:
        key = _invariant_key(g)
        bucket = buckets.setdefault(key, [])
        if any(
            next(isomorphisms(g.view(), h.view()), None) is not None for h in bucket
        ):
            continue
        bucket.append(g)
        kept.append(g)
    return kept


def _map_order(phim: tuple) -> int:
    n = len(phim)
    o = 1
    power = list(phim)
    while any(power[x] != x for x in range(n)):
        power = [phim[x] for x in power]
        o += 1
    return o


def _special_candidates(n: int) -> list[AbstractGroup]:
    candidates = list(_abelian_groups(n))
    for d in divisors(n):
        if d == 1 or d == n:
            continue
        m = n // d
        for A in groups_of_order(m).groups:
            for phi in automorphisms(A.view()):
                phim = tuple(phi[x] for x in range(A.order))
                if d % _map_order(phim) != 0:
                    continue
                candidates.append(semidirect_with_cyclic(A, d, phim))
    if n % 4 == 0 and n >= 8:
        candidates.append(dicyclic(n // 4))
    return candidates


@dataclass(frozen=True)
class GroupCatalogue:
    order: int
    groups: tuple

    def by_label(self, label: str) -> AbstractGroup:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(label)

    def to_json(self) -> dict:
        entries = []
        for g in self.groups:
            entry = {"label": g.label, "tag": g.tag}
            if g.order <= 64:
                entry["table"] = [list(row) for row in g.table]
            else:
                # regular-representation generators determine the table:
                # row a of the table is the permutation x -> a*x
                reg = regular_representation(g)
                entry["regular_generators"] = [list(p) for p in reg.generators]
            entries.append(entry)
        return {"version": 1, "order": self.order, "groups": entries}


@lru_cache(maxsize=128)
def groups_of_order(n: int) -> GroupCatalogue:
    """One representative per isomorphism class of groups of order n."""
    if not is_supported_order(n):
        raise UnsupportedOrderError(n, SUPPORTED_DESCRIPTION)
    if n == 1:
        groups = [trivial_group()]
    elif is_squarefree(n):
        groups = squarefree_groups(n)
    else:
        groups = _dedup_by_isomorphism(_special_candidates(n))
        groups.sort(key=lambda g: (0 if g.is_abelian() else 1, str(g.params)))
    expected = KNOWN_GROUP_COUNTS.get(n)
    if expected is not None and len(groups) != expected:
        raise PreconditionError(
            f"catalogue generation for order {n} found {len(groups)} classes, expected {expected}"
        )
    labelled = tuple(g.relabel(f"{n}.{i}") for i, g in enumerate(groups))
    return GroupCatalogue(n, labelled)


# -- regular representation ----------------------------------------------


def _generating_indices(g: AbstractGroup) -> list[int]:
    if g.order == 1:
        return []
    view = g.view()
    return list(view.generators())


def regular_representation(N: AbstractGroup) -> PermGroup:
    """Left translations of N acting on its own elements; point 0 = identity."""
    gens = [make_perm(N.table[a]) for a in _generating_indices(N)]
    return PermGroup(max(N.order, 1), gens)
