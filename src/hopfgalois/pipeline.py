"""Degree catalogues and parallel-extension analysis.

The pipeline enumerates, per degree n, the transitive subgroups G of every
holomorph Hol(N) with |N| = n up to conjugacy.  For one catalogue entry it
then walks the conjugacy classes of index-n subgroups H <= G, forms the
faithful transitive quotient pair (G/C, H/C) with C the normal core, and
scans the catalogue for a pair-isomorphic entry.  Both sides of such a
test are transitive groups with the stabilizer of point 0, so only entries
with the quotient's cycle-type key are tested (see ``_cycle_key``).  An
entry with some H admitting no match anywhere exhibits the parallel no-HGS
property; a degree is summarized by its total class count and the number
of such entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cache as cachemod
from ._numtheory import is_prime
from .engine import view_of
from .errors import PreconditionError, ResourceLimitError
from .groups import groups_of_order
from .holomorph import holomorph
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
    class_key_of,
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

    def rows(self):
        return [(self.degree, self.total_transitive_classes, self.no_hgs_entries)]


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
    directory, per-type files are reused when their version stamps match.
    """
    catalogue = []
    cache_path = cachemod.resolve_cache_dir(cache_dir) if cache_dir or resume else None
    entry_id = 0
    for N in groups_of_order(n).groups:
        cached = (
            cachemod.read_catalogue_file(cache_path, n, N.label) if cache_path else None
        )
        if cached is not None:
            for rec in cached["entries"]:
                group = PermGroup(n, _perms(n, rec["group"]))
                stab = PermGroup(n, _perms(n, rec["stabilizer"]))
                catalogue.append(
                    CatalogueEntry(
                        n, N.label, group, stab, rec["order"], rec["entry_id"], rec["class_size"]
                    )
                )
                entry_id = max(entry_id, rec["entry_id"] + 1)
            continue
        hol = holomorph(N)
        classes = transitive_subgroup_classes(hol, max_order=max_order)
        fresh = []
        for cls in classes:
            G = cls.representative
            stab = G.point_stabilizer(0)
            core = normal_core(G, stab)
            if core.order() != 1:
                raise PreconditionError("transitive point stabilizer must have trivial core")
            fresh.append(
                CatalogueEntry(n, N.label, G, stab, cls.order, entry_id, cls.class_size)
            )
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


def _match_candidates(catalogue, order):
    return [e for e in catalogue if e.order == order]


def _cycle_key(G: PermGroup) -> tuple:
    """The multiset of element cycle types of a transitive G.

    Pairs (G, Stab_G(0)) and (M, Stab_M(0)) are isomorphic only through
    conjugation by a bijection of the points, so only when their keys agree.
    """
    return view_of(G).cycle_type_multiset()


def analyze_parallel(
    entry: CatalogueEntry,
    catalogue: list[CatalogueEntry],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> list[ParallelReport]:
    """One report per conjugacy class of index-n subgroups of the entry."""
    n = entry.degree
    G = entry.group
    classes = index_n_subgroup_classes(G, n, max_order=max_order)
    stab_key = class_key_of(G, entry.stabilizer)
    reports = []
    for cls in classes:
        H = cls.representative
        if cls.key == stab_key:
            # conjugates of the stabilizer reproduce the entry itself
            witness = PairWitness(
                tuple((g, g) for g in G.generators), True
            )
            reports.append(
                ParallelReport(
                    entry.entry_id, cls, 1, n, MatchResult(entry.entry_id, witness), False, (entry.entry_id,)
                )
            )
            continue
        # J acts transitively on the cosets of H, and J_sub fixes H's coset 0
        J, J_sub = permutation_pair_of_quotient(G, H)
        key = _cycle_key(J)
        match = None
        scanned = []
        for cand in _match_candidates(catalogue, J.order()):
            # an entry with another key is scanned and ruled out untested;
            # after a miss every same-order entry has been scanned
            scanned.append(cand.entry_id)
            if _cycle_key(cand.group) != key:
                continue
            witness = pair_isomorphic(J, J_sub, cand.group, cand.stabilizer)
            if witness is not None:
                match = MatchResult(cand.entry_id, witness)
                break
        reports.append(
            ParallelReport(
                entry.entry_id,
                cls,
                G.order() // J.order(),
                n,
                match,
                match is None,
                tuple(scanned),
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
    analysed in this call.
    """
    catalogue = build_catalogue(n, cache_dir=cache_dir, resume=resume, max_order=max_order)
    cache_path = cachemod.resolve_cache_dir(cache_dir) if cache_dir or resume else None
    witnesses: dict[int, list[ParallelReport]] = {}
    if cache_path:
        for rec in cachemod.open_report_log(cache_path, n, resume):
            witnesses[rec["entry_id"]] = [ParallelReport.from_json(r, n) for r in rec["witnesses"]]
    for entry in catalogue:
        if entry.entry_id in witnesses:
            continue
        reports = analyze_parallel(entry, catalogue, max_order=max_order)
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
    G: PermGroup,
    G_sub: PermGroup,
    n: int,
    catalogue: list[CatalogueEntry] | None = None,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> set:
    """Labels of the types N whose catalogue holds a pair-isomorphic entry.

    Unless it already is a transitive group with the stabilizer of point 0,
    the pair is first replaced by its faithful transitive quotient, which is
    one and is pair-isomorphic to it when the designated subgroup has
    trivial core.
    """
    if not is_point_stabilizer_pair(G, G_sub):
        G, G_sub = permutation_pair_of_quotient(G, G_sub)
    if catalogue is None:
        catalogue = build_catalogue(n, max_order=max_order)
    key = _cycle_key(G)
    out = set()
    for cand in catalogue:
        if cand.order != G.order():
            continue
        if cand.type_label in out:
            continue
        if _cycle_key(cand.group) != key:
            continue
        if pair_isomorphic(G, G_sub, cand.group, cand.stabilizer) is not None:
            out.add(cand.type_label)
    return out


# -- infinite families -----------------------------------------------------


def find_extension_prime(n: int, lower: int, *, cap: int = 1_000_000) -> int:
    """Least prime q > max(lower, n) with gcd(q-1, n) = 1, by trial search."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("extension primes are defined for odd n >= 3")
    q = max(lower, n) + 1
    while q <= cap:
        if is_prime(q) and math.gcd(q - 1, n) == 1:
            return q
        q += 1
    raise ResourceLimitError(f"no extension prime below {cap} for n = {n}")


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


def extend_family(
    entry: CatalogueEntry,
    report: ParallelReport,
    q: int,
    catalogue: list[CatalogueEntry],
    *,
    base_aut_orders: tuple | None = None,
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
    checks = []

    def check(name, statement, ok):
        checks.append((name, statement, bool(ok)))
        return ok

    if not report.no_hgs or report.source_entry != entry.entry_id:
        raise PreconditionError("extend_family needs a no-HGS witness report for the entry")
    ok = True
    ok &= check("odd_degree", f"n = {n} is odd", n % 2 == 1 and n >= 3)
    ok &= check("prime", f"q = {q} is prime", is_prime(q))
    ok &= check("gcd", f"gcd(q-1, n) = gcd({q - 1}, {n}) = 1", math.gcd(q - 1, n) == 1)
    ok &= check("q_exceeds_n", f"q = {q} > n = {n}", q > n)
    if base_aut_orders is None:
        from .holomorph import automorphism_group

        base_aut_orders = tuple(
            automorphism_group(Y).order() for Y in groups_of_order(n).groups
        )
    for Y_label, a in zip([Y.label for Y in groups_of_order(n).groups], base_aut_orders):
        ok &= check(
            "aut_coprime",
            f"q = {q} does not divide |Aut({Y_label})| = {a}",
            a % q != 0,
        )
    if not ok:
        raise PreconditionError(
            "extension hypotheses failed: " + "; ".join(s for _, s, o in checks if not o)
        )
    G2, stab2, H2 = _product_with_cyclic(entry, report, q)
    deg = n * q
    ok &= check("product_order", f"|G x C_q| = {entry.order * q}", G2.order() == entry.order * q)
    ok &= check("product_transitive", "G x C_q is transitive on n*q points", G2.is_transitive())
    ok &= check(
        "product_stabilizer",
        "Stab(0) = G' x 1",
        G2.point_stabilizer(0) == stab2,
    )
    core2 = normal_core(G2, PermGroup(deg, list(H2.generators)))
    ok &= check(
        "product_core",
        f"|Core(H x 1)| = {report.core_order} (the base core, unchanged)",
        core2.order() == report.core_order,
    )
    # the base witness scan must cover every same-order entry of the base degree
    J, J_sub = permutation_pair_of_quotient(entry.group, report.h_class.representative)
    base_candidates = [e.entry_id for e in catalogue if e.order == J.order()]
    ok &= check(
        "base_scan_exhaustive",
        f"base scan covered all {len(base_candidates)} candidate entries",
        set(report.scanned) >= set(base_candidates),
    )
    rescan = all(
        pair_isomorphic(J, J_sub, e.group, e.stabilizer) is None
        for e in catalogue
        if e.order == J.order()
    )
    ok &= check("base_no_match_recheck", "quotient pair matches no base entry", rescan)
    return ExtensionCertificate(
        base_degree=n,
        base_entry=entry.entry_id,
        prime=q,
        product_degree=deg,
        product_order=entry.order * q,
        checks=tuple(checks),
        verified=bool(ok),
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

    def check(name, statement, ok):
        checks.append((name, statement, bool(ok)))
        return ok

    ok = True
    ok &= check("prime", f"q = {q} is prime", is_prime(q))
    ok &= check("gcd", f"gcd(q-1, m) = gcd({q - 1}, {m}) = 1", math.gcd(q - 1, m) == 1)
    ok &= check("q_exceeds_m", f"q = {q} > m = {m}", q > m)
    for i, a in enumerate(prev.aut_orders):
        ok &= check(
            "aut_coprime",
            f"q = {q} does not divide the order-{m} automorphism order {a}",
            a % q != 0,
        )
    check(
        "product_structure",
        "order, degree, stabilizer and core scale by the direct product "
        "(verified concretely at the first extension)",
        True,
    )
    if not ok:
        raise PreconditionError(
            "extension hypotheses failed: " + "; ".join(s for _, s, o in checks if not o)
        )
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
