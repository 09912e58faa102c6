"""Degree catalogues and parallel-extension analysis.

The pipeline enumerates, per degree n, the transitive subgroups G of every
holomorph Hol(N) with |N| = n up to conjugacy.  For one catalogue entry it
then walks the conjugacy classes of index-n subgroups H <= G, forms the
faithful transitive quotient pair (G/C, H/C) with C the normal core, and
looks it up in the catalogue's ``CatalogueIndex``: among the entries of the
quotient's order, only those with its cycle-type key are tested for pair
isomorphism, since both sides of such a test are transitive groups with
the stabilizer of point 0 (see ``_cycle_key``).  An entry with some H
admitting no match anywhere exhibits the parallel no-HGS property; a
degree is summarized by its total class count and the number of such
entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import cache as cachemod
from ._numtheory import is_prime
from .engine import view_of
from .errors import PreconditionError
from .groups import groups_of_order
from .holomorph import automorphism_group, holomorph
from .isomorphism import (
    PairWitness,
    is_point_stabilizer_pair,
    pair_isomorphic,
    permutation_pair_of_quotient,
)
from .permgroup import PermGroup, normal_core
from .subgroups import (
    DEFAULT_MAX_ORDER,
    SubgroupClass,
    index_n_subgroup_classes,
    transitive_subgroup_classes,
)


def _perms(n: int, lists) -> list:
    return [bytes(p) if n <= 256 else tuple(p) for p in lists]


@dataclass(frozen=True)
class CatalogueEntry:
    """A transitive subgroup of some Hol(N), with its point stabilizer."""

    degree: int
    type_label: str
    group: PermGroup
    stabilizer: PermGroup
    order: int
    entry_id: int
    class_size: int = 0

    def to_json(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "order": self.order,
            "class_size": self.class_size,
            "group": [list(p) for p in self.group.generators],
            "stabilizer": [list(p) for p in self.stabilizer.generators],
        }

    @classmethod
    def from_json(cls, rec: dict, degree: int, type_label: str) -> "CatalogueEntry":
        return cls(
            degree, type_label,
            PermGroup(degree, _perms(degree, rec["group"])),
            PermGroup(degree, _perms(degree, rec["stabilizer"])),
            *(operator.index(rec[k]) for k in ("order", "entry_id", "class_size")),
        )


@dataclass(frozen=True)
class MatchResult:
    entry_id: int
    witness: PairWitness


@dataclass(frozen=True)
class ParallelReport:
    """Result for one conjugacy class of index-n subgroups of an entry."""

    source_entry: int
    h_class: SubgroupClass
    core_order: int
    quotient_degree: int
    match: MatchResult | None
    no_hgs: bool
    scanned: tuple

    def to_json(self) -> dict:
        return {
            "source_entry": self.source_entry,
            "h_order": self.h_class.order,
            "h_class_size": self.h_class.class_size,
            "h_generators": [list(p) for p in self.h_class.representative.generators],
            "core_order": self.core_order,
            "quotient_degree": self.quotient_degree,
            "match_entry": self.match.entry_id if self.match else None,
            "no_hgs": self.no_hgs,
            "scanned": list(self.scanned),
        }

    @classmethod
    def from_json(cls, rec: dict, degree: int) -> "ParallelReport":
        """Rebuild a logged no-HGS report; the log holds no match witness."""
        H = PermGroup(degree, _perms(degree, rec["h_generators"]))
        h_class = SubgroupClass(H, rec["h_class_size"], rec["h_order"], None)
        return cls(rec["source_entry"], h_class, rec["core_order"], rec["quotient_degree"],
                   None, rec["no_hgs"], tuple(rec["scanned"]))


@dataclass(frozen=True)
class DegreeSummary:
    degree: int
    total_transitive_classes: int
    no_hgs_entries: int
    per_type: tuple  # (type_label, classes, no_hgs_classes)
    no_hgs_pairs: int = 0


def build_catalogue(
    n: int,
    *,
    cache_dir=None,
    resume: bool = False,
    max_order: int = DEFAULT_MAX_ORDER,
) -> list[CatalogueEntry]:
    """All transitive subgroup classes across the holomorphs of order n.

    Entries are deterministic: group types in catalogue order, classes by
    (order, canonical key); ids number the concatenation.  With a cache
    directory, per-type files are reused when their version stamps match;
    a file that does not decode, holds no entry list, or holds an entry
    that does not decode is rebuilt.
    ``resume`` only picks the default cache directory when ``cache_dir``
    is not given; it changes nothing else here.
    """
    catalogue = []
    cache_path = cachemod.resolve_cache_dir(cache_dir) if cache_dir or resume else None
    entry_id = 0
    for N in groups_of_order(n).groups:
        cached = cache_path and cachemod.read_catalogue_file(
            cache_path, n, N.label, lambda rec: CatalogueEntry.from_json(rec, n, N.label)
        )
        if cached is not None:
            catalogue.extend(cached)
            entry_id = max([entry_id] + [e.entry_id + 1 for e in cached])
            continue
        hol = holomorph(N)
        classes = transitive_subgroup_classes(hol, max_order=max_order)
        fresh = []
        for cls in classes:
            G = cls.representative
            # Stab(0) has trivial core: a permutation group acts faithfully
            fresh.append(CatalogueEntry(
                n, N.label, G, G.point_stabilizer(0), cls.order, entry_id, cls.class_size
            ))
            entry_id += 1
        if cache_path:
            cachemod.write_catalogue_file(
                cache_path,
                n,
                N.label,
                {
                    "degree": n,
                    "type_label": N.label,
                    "entries": [e.to_json() for e in fresh],
                },
            )
        catalogue.extend(fresh)
    return catalogue


def _cycle_key(G: PermGroup) -> tuple:
    """The multiset of element cycle types of a transitive G.

    Pairs (G, Stab_G(0)) and (M, Stab_M(0)) are isomorphic only through
    conjugation by a bijection of the points, so only when their keys agree.
    """
    return view_of(G).cycle_type_multiset()


class CatalogueIndex:
    """A catalogue's entries by order, and the quotient matches made so far.

    Each order maps to its entries in catalogue order.  ``match`` remembers
    each quotient J by its sorted elements.  That is exact: J' = Stab_J(0)
    is fixed by J's elements, and the match and its witness (the point map,
    which ``point_map`` finds from J's sorted elements and conjugacy
    classes) depend on the element set alone, not on J's generators.
    """

    def __init__(self, catalogue):
        self._by_order: dict[int, list[CatalogueEntry]] = {}
        for entry in catalogue:
            self._by_order.setdefault(entry.order, []).append(entry)
        self._matches: dict = {}

    def same_order(self, order: int) -> list[CatalogueEntry]:
        return self._by_order.get(order, [])

    def candidates(self, G: PermGroup):
        """(position, entry) for each same-order entry with G's cycle-type
        key, in catalogue order; an entry's key is computed when reached."""
        key = _cycle_key(G)
        for i, cand in enumerate(self.same_order(G.order())):
            if _cycle_key(cand.group) == key:
                yield i, cand

    def match(self, J: PermGroup, J_sub: PermGroup) -> tuple:
        """(match, scanned) of the quotient pair (J, J_sub).

        The match is the first same-order entry pair-isomorphic to it, and
        ``scanned`` the same-order entries up to and including it, or all of
        them after a miss.
        """
        found = self._matches.get(J.elements())
        if found is None:
            scanned = tuple(e.entry_id for e in self.same_order(J.order()))
            found = None, scanned
            for i, cand in self.candidates(J):
                witness = pair_isomorphic(J, J_sub, cand.group, cand.stabilizer)
                if witness is not None:
                    found = MatchResult(cand.entry_id, witness), scanned[: i + 1]
                    break
            self._matches[J.elements()] = found
        return found


def analyze_parallel(
    entry: CatalogueEntry,
    catalogue: list[CatalogueEntry],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    index: CatalogueIndex | None = None,
) -> list[ParallelReport]:
    """One report per conjugacy class of index-n subgroups of the entry.

    Each quotient pair is matched through ``index``, the catalogue's
    ``CatalogueIndex``: only same-order entries with the quotient's
    cycle-type key are pair-tested, and a quotient group the index has
    matched before is not matched again.  Without an index the call builds
    one, so repeats within the entry are matched once.
    """
    if index is None:
        index = CatalogueIndex(catalogue)
    n = entry.degree
    G = entry.group
    classes = index_n_subgroup_classes(G, n, max_order=max_order)
    reports = []
    for cls in classes:
        H = cls.representative
        if H.fixes_a_point() is not None:
            # an index-n subgroup fixing a point is a point stabilizer, a
            # conjugate of Stab(0), and reproduces the entry itself
            witness = PairWitness(tuple((g, g) for g in G.generators))
            reports.append(
                ParallelReport(
                    entry.entry_id, cls, 1, n, MatchResult(entry.entry_id, witness), False, (entry.entry_id,)
                )
            )
            continue
        # J acts transitively on the cosets of H, and J_sub fixes H's coset 0
        J, J_sub = permutation_pair_of_quotient(G, H)
        match, scanned = index.match(J, J_sub)
        reports.append(
            ParallelReport(
                entry.entry_id,
                cls,
                G.order() // J.order(),
                n,
                match,
                match is None,
                scanned,
            )
        )
    return reports


def analyze_degree(
    n: int,
    *,
    cache_dir=None,
    resume: bool = False,
    max_order: int = DEFAULT_MAX_ORDER,
    progress=None,
):
    """The catalogue and, per entry id, that entry's no-HGS reports.

    With a cache directory each analysed entry gets one line in the report
    log; ``resume`` reads back the entries a valid log holds and analyses
    the rest.  ``progress(entry, reports)`` sees every report of each entry
    analysed in this call.  The entries share one ``CatalogueIndex``, so a
    quotient group met again at this degree is not matched again; the index
    lives for this call only.
    """
    catalogue = build_catalogue(n, cache_dir=cache_dir, resume=resume, max_order=max_order)
    cache_path = cachemod.resolve_cache_dir(cache_dir) if cache_dir or resume else None
    witnesses: dict[int, list[ParallelReport]] = {}
    if cache_path:
        witnesses.update(cachemod.open_report_log(cache_path, n, resume, lambda rec: (
            operator.index(rec["entry_id"]),
            [ParallelReport.from_json(r, n) for r in rec["witnesses"]],
        )))
    index = CatalogueIndex(catalogue)
    for entry in catalogue:
        if entry.entry_id in witnesses:
            continue
        reports = analyze_parallel(entry, catalogue, max_order=max_order, index=index)
        witnesses[entry.entry_id] = [r for r in reports if r.no_hgs]
        if cache_path:
            cachemod.append_report_line(cache_path, n, {
                "entry_id": entry.entry_id,
                "classes": len(reports),
                "witnesses": [r.to_json() for r in witnesses[entry.entry_id]],
            })
        if progress:
            progress(entry, reports)
    return catalogue, witnesses


def degree_summary(n: int, catalogue, witnesses) -> DegreeSummary:
    """Count the catalogue entries that have a no-HGS report."""
    per_type: dict[str, list[int]] = {}
    for entry in catalogue:
        counts = per_type.setdefault(entry.type_label, [0, 0])
        counts[0] += 1
        counts[1] += bool(witnesses[entry.entry_id])
    summary = DegreeSummary(
        n,
        len(catalogue),
        sum(1 for e in catalogue if witnesses[e.entry_id]),
        tuple((label, c[0], c[1]) for label, c in sorted(per_type.items())),
        sum(len(witnesses[e.entry_id]) for e in catalogue),
    )
    assert summary.total_transitive_classes == sum(c for _, c, _ in summary.per_type)
    assert summary.no_hgs_entries == sum(c for _, _, c in summary.per_type)
    return summary


def detect_no_hgs(
    n: int,
    *,
    cache_dir=None,
    resume: bool = False,
    max_order: int = DEFAULT_MAX_ORDER,
    progress=None,
) -> DegreeSummary:
    """Count catalogue entries with at least one unmatched parallel pair."""
    catalogue, witnesses = analyze_degree(
        n, cache_dir=cache_dir, resume=resume, max_order=max_order, progress=progress
    )
    return degree_summary(n, catalogue, witnesses)


def hgs_types_admitted(
    G: PermGroup, G_sub: PermGroup, catalogue: list[CatalogueEntry] | CatalogueIndex
) -> set:
    """Labels of the types N whose catalogue holds a pair-isomorphic entry.

    The catalogue may be given as its ``CatalogueIndex``.  Unless the pair
    already is a transitive group with the stabilizer of point 0, it is
    first replaced by its faithful transitive quotient, which is one and is
    pair-isomorphic to it when the designated subgroup has trivial core.
    """
    if not is_point_stabilizer_pair(G, G_sub):
        G, G_sub = permutation_pair_of_quotient(G, G_sub)
    index = catalogue if isinstance(catalogue, CatalogueIndex) else CatalogueIndex(catalogue)
    out = set()
    for _, cand in index.candidates(G):
        if cand.type_label in out:
            continue
        if pair_isomorphic(G, G_sub, cand.group, cand.stabilizer) is not None:
            out.add(cand.type_label)
    return out


# -- infinite families -----------------------------------------------------


def find_extension_prime(n: int) -> int:
    """Least prime q > n with gcd(q-1, n) = 1, by trial search.

    One exists for odd n: by Dirichlet's theorem some prime q > n has
    q = 2 (mod n), and then q - 1 = 1 (mod n)."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("extension primes are defined for odd n >= 3")
    q = n + 1
    while not (is_prime(q) and math.gcd(q - 1, n) == 1):
        q += 1
    return q


@dataclass(frozen=True)
class ExtensionCertificate:
    """Transcript of one application of the product construction."""

    base_degree: int
    base_entry: int
    prime: int
    product_degree: int
    product_order: int
    checks: tuple  # (name, statement, ok)
    verified: bool
    aut_orders: tuple  # |Aut(Y)| for Y of the base degree, after extension scaling

    def to_json(self) -> dict:
        return {
            "base_degree": self.base_degree,
            "base_entry": self.base_entry,
            "prime": self.prime,
            "product_degree": self.product_degree,
            "product_order": self.product_order,
            "checks": [list(c) for c in self.checks],
            "verified": self.verified,
            "aut_orders": list(self.aut_orders),
        }


def _product_with_cyclic(entry: CatalogueEntry, report: ParallelReport, q: int):
    """G x C_q acting on n*q points, with stabilizer G' x 1 and H x 1."""
    from .perms import make_perm

    n = entry.degree
    deg = n * q

    def lift(p):
        return make_perm([(p[x % n] + n * (x // n)) for x in range(deg)])

    shift = make_perm([(x + n) % deg for x in range(deg)])
    G2 = PermGroup(deg, [lift(g) for g in entry.group.generators] + [shift])
    stab2 = PermGroup(deg, [lift(g) for g in entry.stabilizer.generators])
    H2 = PermGroup(deg, [lift(g) for g in report.h_class.representative.generators])
    return G2, stab2, H2


def _check_prime(checks: list, q: int, var: str, m: int, aut_orders) -> None:
    """Append the checks on the prime q that every extension step makes.

    ``var`` names the degree m in the statements, and ``aut_orders`` pairs
    each automorphism order q must not divide with the phrase naming it.
    Raises PreconditionError listing every failed check in ``checks``.
    """
    checks.append(("prime", f"q = {q} is prime", is_prime(q)))
    checks.append(("gcd", f"gcd(q-1, {var}) = gcd({q - 1}, {m}) = 1", math.gcd(q - 1, m) == 1))
    checks.append((f"q_exceeds_{var}", f"q = {q} > {var} = {m}", q > m))
    for phrase, a in aut_orders:
        checks.append(("aut_coprime", f"q = {q} does not divide {phrase}", a % q != 0))
    failed = [statement for _, statement, ok in checks if not ok]
    if failed:
        raise PreconditionError("extension hypotheses failed: " + "; ".join(failed))


def extend_family(
    entry: CatalogueEntry,
    report: ParallelReport,
    q: int,
    catalogue: list[CatalogueEntry],
) -> ExtensionCertificate:
    """Extend a no-HGS witness of odd degree n to one of degree n*q.

    The hypotheses are checked computationally; the conclusion then rests
    on the structure of groups of order n*q: any candidate type splits as
    C_q x Y with |Y| = n, the C_q factor projects trivially into Hol(Y)
    because q divides neither n nor |Aut(Y)|, and a match would embed the
    original quotient pair into some Hol(Y), which the exhaustive base
    scan already excluded.
    """
    n = entry.degree
    if not report.no_hgs or report.source_entry != entry.entry_id:
        raise PreconditionError("extend_family needs a no-HGS witness report for the entry")
    checks = [("odd_degree", f"n = {n} is odd", n % 2 == 1 and n >= 3)]
    base_types = groups_of_order(n).groups
    base_aut_orders = tuple(automorphism_group(Y).order() for Y in base_types)
    _check_prime(checks, q, "n", n, [
        (f"|Aut({Y.label})| = {a}", a) for Y, a in zip(base_types, base_aut_orders)
    ])
    G2, stab2, H2 = _product_with_cyclic(entry, report, q)
    deg = n * q
    core2 = normal_core(G2, H2)
    # the base witness scan must cover every same-order entry of the base degree
    J, J_sub = permutation_pair_of_quotient(entry.group, report.h_class.representative)
    index = CatalogueIndex(catalogue)
    base_candidates = {e.entry_id for e in index.same_order(J.order())}
    checks += [
        ("product_order", f"|G x C_q| = {entry.order * q}", G2.order() == entry.order * q),
        ("product_transitive", "G x C_q is transitive on n*q points", G2.is_transitive()),
        ("product_stabilizer", "Stab(0) = G' x 1", G2.point_stabilizer(0) == stab2),
        ("product_core", f"|Core(H x 1)| = {report.core_order} (the base core, unchanged)",
         core2.order() == report.core_order),
        ("base_scan_exhaustive", f"base scan covered all {len(base_candidates)} candidate entries",
         set(report.scanned) >= base_candidates),
        ("base_no_match_recheck", "quotient pair matches no base entry",
         not hgs_types_admitted(J, J_sub, index)),
    ]
    return ExtensionCertificate(
        base_degree=n,
        base_entry=entry.entry_id,
        prime=q,
        product_degree=deg,
        product_order=entry.order * q,
        checks=tuple(checks),
        verified=all(ok for _, _, ok in checks),
        aut_orders=tuple(a * (q - 1) for a in base_aut_orders),
    )


def _extend_arithmetic(prev: ExtensionCertificate, q: int) -> ExtensionCertificate:
    """One further extension, verified through the accumulated transcript.

    Beyond the first step the product group is not materialized (the degree
    grows past any sensible permutation domain); its order, degree,
    stabilizer and core data follow from the direct-product structure that
    the first certificate verified concretely.  Every group of the
    accumulated order m splits as a product of the previous cyclic factor
    with a group of smaller order, so |Aut| values scale by (prime - 1).
    """
    m = prev.product_degree
    checks = []
    _check_prime(checks, q, "m", m, [
        (f"the order-{m} automorphism order {a}", a) for a in prev.aut_orders
    ])
    checks.append((
        "product_structure",
        "order, degree, stabilizer and core scale by the direct product "
        "(verified concretely at the first extension)",
        True,
    ))
    return ExtensionCertificate(
        base_degree=m,
        base_entry=prev.base_entry,
        prime=q,
        product_degree=m * q,
        product_order=prev.product_order * q,
        checks=tuple(checks),
        verified=True,
        aut_orders=tuple(a * (q - 1) for a in prev.aut_orders),
    )


def iterate_family(
    entry: CatalogueEntry,
    report: ParallelReport,
    primes: list[int],
    catalogue: list[CatalogueEntry],
) -> list[ExtensionCertificate]:
    """Chain the product construction over a list of primes.

    The first prime is verified on the materialized product; each later
    prime is checked against the accumulated degree and automorphism
    orders, which scale by (q - 1) at every step.
    """
    out = []
    for q in primes:
        if not out:
            cert = extend_family(entry, report, q, catalogue)
        else:
            cert = _extend_arithmetic(out[-1], q)
        if not cert.verified:
            raise PreconditionError(f"extension by {q} failed verification")
        out.append(cert)
    return out
