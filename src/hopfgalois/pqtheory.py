"""Explicit transitive-subgroup families at degree pq and their predicted
index-pq subgroup counts.

For p > q odd primes with p = 1 mod q, the transitive subgroups of the two
holomorphs at degree pq come in closed families: over the cyclic group,
N x| X for X <= Aut(N) together with twisted products J_{t,c} x| Y; over
the nonabelian group, P x| <T, A^(q^(e0-c)), B^(s/d)> and
P x| <T A^(u q^(e0-c)), B^(s/d)> with P the Sylow p-subgroup of the
holomorph (rank two), T the translation by the order-q generator, and A, B
scalar automorphisms of orders q^e0 and s.  The families are built here as
explicit permutation groups, deduplicated up to holomorph conjugacy, and
cross-checked against the generic enumeration.  The predicted
conjugacy/orbit/isomorphism counts of their index-pq subgroups come from
closed forms derived in ``predicted_counts`` and are checked against
``classify_index_n`` entry by entry in ``verify_pq``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numtheory import crt, divisors, factorize, is_prime, multiplicative_order, primitive_root
from .errors import PreconditionError, VerificationError
from .groups import groups_of_order
from .holomorph import Holomorph, _s_power, automorphism_from_images, holomorph
from .isomorphism import pair_isomorphic
from .permgroup import PermGroup
from .perms import compose, make_perm, power
from .subgroups import all_subgroup_classes, class_key_of, classify_index_n


def _least_of_order(order: int, p: int) -> int:
    for a in range(2, p):
        if multiplicative_order(a, p) == order:
            return a
    raise PreconditionError(f"no element of order {order} mod {p}")


@dataclass(frozen=True)
class PqParameters:
    """Degree parameters: p > q odd primes; e0 = v_q(p-1); s = (p-1)/q^e0;
    k the least residue of multiplicative order q mod p (when q | p-1)."""

    p: int
    q: int
    e0: int
    s: int
    k: int

    @property
    def n(self) -> int:
        return self.p * self.q

    @property
    def burnside(self) -> bool:
        return self.e0 == 0


def pq_parameters(p: int, q: int) -> PqParameters:
    if p <= q or q < 3 or not is_prime(p) or not is_prime(q) or p % 2 == 0 or q % 2 == 0:
        raise PreconditionError("need odd primes p > q")
    e0 = dict(factorize(p - 1)).get(q, 0)
    s = (p - 1) // q**e0
    k = _least_of_order(q, p) if e0 > 0 else 1
    return PqParameters(p, q, e0, s, k)


# -- cyclic side ------------------------------------------------------------


def _cyclic_setup(params: PqParameters):
    """The cyclic group of order pq with its sigma/tau/alpha data.

    sigma = the order-p part of a generator, tau = the order-q part; an
    automorphism x -> m*x is the point map i -> m*i.
    """
    n = params.n
    N = groups_of_order(n).groups[0]
    assert N.is_abelian()
    hol = holomorph(N)

    def aut_map(m):
        return make_perm([(m * i) % n for i in range(n)])

    def lam(a):
        return make_perm(N.table[a])

    sigma = params.q % n  # generator^q has order p
    tau = params.p % n
    return N, hol, lam, aut_map, sigma, tau


def cyclic_type_transitive_subgroups(params: PqParameters):
    """(group, tag, info) triples for the cyclic-type families, deduplicated
    up to conjugacy in Hol(C_pq); collisions between parameter choices are
    returned in the collision log."""
    p, q, e0 = params.p, params.q, params.e0
    n = params.n
    N, hol, lam, aut_map, sigma, tau = _cyclic_setup(params)
    built = []
    # family 1: N x| X over all subgroups X of Aut(N)
    aut_group = PermGroup(n, list(hol.aut.group.generators))
    for X in all_subgroup_classes(aut_group):
        gens = [lam(sigma), lam(tau)] + list(X.representative.generators)
        G = PermGroup(n, gens)
        built.append((G, "NxX", {"X_order": X.order}))
    # family 2: J_{t,c} x| Y with alpha the Sylow-q generator of Aut(<sigma>)
    if e0 > 0:
        a_alpha = _least_of_order(q**e0, p)
        alpha_m = crt(a_alpha, p, 1, q)
        sigma_aut_gen = crt(primitive_root(p), p, 1, q)
        for c in range(1, e0 + 1):
            for t in range(1, q**c):
                if t % q == 0:
                    continue
                twist = aut_map(pow(alpha_m, t * q ** (e0 - c), n))
                j_gens = [lam(sigma), compose(lam(tau), twist)]
                for m_div in divisors(p - 1):
                    # Y = the order-m_div subgroup of Aut(<sigma>); alpha not in Y
                    if m_div % q**e0 == 0:
                        continue
                    y_gen = aut_map(pow(sigma_aut_gen, (p - 1) // m_div, n))
                    G = PermGroup(n, j_gens + [y_gen])
                    built.append(
                        (G, "JtcY", {"t": t, "c": c, "Y_order": m_div})
                    )
    return _dedup_in_holomorph(hol, built)


def _dedup_in_holomorph(hol: Holomorph, built):
    """Deduplicate (group, tag, info) triples up to conjugacy in the holomorph."""
    kept = []
    seen = {}
    collisions = []
    for G, tag, info in built:
        if not G.is_subgroup_of(hol.group):
            raise VerificationError(f"constructed family member leaves the holomorph: {tag} {info}")
        key = class_key_of(hol.group, G)
        if key in seen:
            collisions.append((tag, info, seen[key]))
            continue
        seen[key] = (tag, info)
        kept.append((G, tag, info, key))
    return kept, collisions


# -- metacyclic side ---------------------------------------------------------


def metacyclic_type_transitive_subgroups(params: PqParameters):
    """(group, tag, info) triples for the families of order divisible by p^2
    inside Hol(C_p x| C_q), deduplicated up to conjugacy."""
    p, q, e0, s = params.p, params.q, params.e0, params.s
    if e0 == 0:
        return [], []
    n = params.n
    N = groups_of_order(n).groups[1]
    assert not N.is_abelian()
    hol = holomorph(N)
    # element s^i t^j has index i*q + j
    sigma = 1 * q
    tau = 1

    def lam(a):
        return make_perm(N.table[a])

    theta = automorphism_from_images(N, {sigma: sigma, tau: N.mul(sigma, tau)})
    a_alpha = _least_of_order(q**e0, p)
    a_beta = _least_of_order(s, p) if s > 1 else 1

    def phi(m):
        # sigma -> sigma^m, tau -> tau
        return automorphism_from_images(
            N, {sigma: _s_power(N, m, q), tau: tau}
        )

    E1 = lam(sigma)
    E2 = compose(lam(sigma), power(theta, params.k - 1))
    T = lam(tau)
    A = phi(a_alpha)
    B = phi(a_beta) if s > 1 else None
    P = PermGroup(n, [E1, E2])
    if P.order() != p * p:
        raise VerificationError("Sylow p-subgroup construction failed")
    built = []
    for c in range(0, e0 + 1):
        for d in divisors(s):
            gens = [E1, E2, T]
            if c > 0:
                gens.append(power(A, q ** (e0 - c)))
            if d > 1:
                gens.append(power(B, s // d))
            G = PermGroup(n, gens)
            expected = p * p * q ** (1 + c) * d
            if G.order() != expected:
                raise VerificationError(
                    f"family-1 order mismatch at c={c}, d={d}: {G.order()} != {expected}"
                )
            built.append((G, "P:TAB", {"c": c, "d": d}))
    for c in range(1, e0 + 1):
        for d in divisors(s):
            for u in range(1, q**c):
                if u % q == 0:
                    continue
                gens = [E1, E2, compose(T, power(A, u * q ** (e0 - c)))]
                if d > 1:
                    gens.append(power(B, s // d))
                G = PermGroup(n, gens)
                expected = p * p * q**c * d
                if G.order() != expected:
                    raise VerificationError(
                        f"family-2 order mismatch at c={c}, d={d}, u={u}: {G.order()} != {expected}"
                    )
                built.append((G, "P:TA_B", {"c": c, "d": d, "u": u}))
    return _dedup_in_holomorph(hol, built)


# -- predicted counts ---------------------------------------------------------


@dataclass(frozen=True)
class PredictedCounts:
    conjugacy_classes: int
    aut_orbits: int
    iso_classes: int

    def triple(self):
        return (self.conjugacy_classes, self.aut_orbits, self.iso_classes)


def predicted_counts(tag: str, params: PqParameters, info: dict) -> PredictedCounts:
    """Closed-form (conjugacy, orbit, isomorphism) counts of the index-pq
    subgroups of one family member G.

    ``info`` carries the member's parameters plus, for the N x| X family,
    the flags computed on G: q2_divides (q^2 | |G|), c = v_q(|X|) and
    tau_central (whether the order-q translation tau is central).

    N x| X (N = C_p x C_q, X <= Aut(N) = C_(p-1) x C_(q-1)).  An index-pq
    subgroup H has order |X| and meets N in 1 or <tau> (p does not divide
    |X|).  If q does not divide |X| every H is a complement to N, and these
    are conjugate: (1, 1, 1).  Otherwise there are two orbits: the
    complements (q classes, H^1(X, C_q) = Hom(X, C_q), when tau is central;
    one class otherwise) and one class through tau.  The complements are
    isomorphic to X = C_(q^c) x X', the subgroups through tau to
    (C_q x| X') x C_(q^(c-1)), where X' acts on C_q through its image in
    C_(q-1).  The two are isomorphic exactly when tau is central (X' acts
    trivially) and c = 1.  So: (q + 1, 2, 1 if c = 1 else 2) when tau is
    central, and (2, 2, 2) when it is not.

    P x| <T, A^(q^(e0-c)), B^(s/d)>.  Write P = F_p^2 with T = diag(k, 1)
    and the scalar part M of order q^c d, so G = P x| D with
    D = <T> x M acting diagonally by the characters chi1 (on the first
    axis) and chi2 (on the second).  H meets P in a line L, and HP/P is an
    index-q subgroup K of D; for each K-invariant line there is one class
    of H up to P-conjugacy (coprime action), and D moves the lines only
    through T.  The automorphisms of G act as the monomial matrices
    normalizing D: every diagonal matrix (fixing both axes, transitive on
    the p - 1 other lines) and the axis swap, which exists exactly when
    k lies in M, i.e. when c >= 1.  With base = (p - 1)/q = q^(e0-1) s:

    * c = 0: K = M is scalar, every line is invariant; the classes are the
      two axes plus base orbits of T on the other lines.  Without the swap
      the axes are distinguished (ker chi2 = <T>, ker chi1 = 1), so the
      orbits are: first axis, second axis, the other lines -> 3.  Every H
      is C_p x| C_d with C_d acting by scalars: (base + 2, 3, 1).
    * c >= 1: K = M again gives base + 2 classes and, with the swap,
      2 orbits (both axes, the other lines).  The other q choices of K
      are not scalar, so only the two axes are invariant: 2q classes,
      paired off by the swap into q orbits.  H is either C_p x| C_(q^c d)
      with faithful action or (C_p x| C_(q^(c-1) d)) x C_q:
      (base + 2q + 2, q + 2, 2).

    P x| <T A^(u q^(e0-c)), B^(s/d)>: at c = 1, K is scalar, so every
    line is invariant: base + 2 classes, one isomorphism type.  The axis
    swap normalizes D for exactly one u mod q, which is (q - 1)/2 when
    A^(q^(e0-1)) acts by k (always so when e0 = 1): 2 orbits for that u,
    3 for the others.

    These forms agree with classify_index_n on every catalogue entry at
    (7,3) and (13,3) (verify_pq, run by the test suite) and on every
    family member at (11,5).  c >= 2 needs e0 >= 2, first at
    (p, q) = (19, 3); there the cyclic-side members and all 14 members on
    the metacyclic side agree as well, among them P x| <T, A, B> at c = 2
    (orders 9747 and 19494) and the four P x| <T A^(u q^(e0-c)), B^(s/d)>
    members at c = 2, each (8, 3, 1).  No test reaches c >= 2, and the
    P x| <T A^(u q^(e0-c)), B^(s/d)> rule there is not derived.
    """
    p, q, e0, s = params.p, params.q, params.e0, params.s
    base = q ** (e0 - 1) * s
    if tag == "NxX":
        if not info["q2_divides"]:
            return PredictedCounts(1, 1, 1)
        if info["tau_central"]:
            return PredictedCounts(q + 1, 2, 2 if info["c"] > 1 else 1)
        return PredictedCounts(2, 2, 2)
    if tag == "JtcY":
        return PredictedCounts(1, 1, 1)
    if tag == "P:TAB":
        if info["c"] == 0:
            return PredictedCounts(base + 2, 3, 1)
        return PredictedCounts(base + 2 * q + 2, q + 2, 2)
    if tag == "P:TA_B":
        c, u = info["c"], info["u"]
        orbits = 2 if (c, u % q**c) == (1, (q - 1) // 2) else 3
        return PredictedCounts(base + 2, orbits, 1)
    raise PreconditionError(f"unknown family tag {tag!r}")


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class PqVerification:
    params: PqParameters
    ok: bool
    checks: tuple  # (name, ok, detail)
    entries: tuple  # per-entry dicts with predicted and computed triples
    collisions: tuple

    def failures(self):
        return [c for c in self.checks if not c[1]]

    def to_json(self) -> dict:
        return {
            "p": self.params.p,
            "q": self.params.q,
            "ok": self.ok,
            "checks": [[name, ok, detail] for name, ok, detail in self.checks],
            "entries": [
                {
                    **row,
                    "predicted": list(row["predicted"]),
                    "computed": list(row["computed"]),
                    "pass": row["predicted"] == row["computed"],
                }
                for row in self.entries
            ],
            "collisions": [repr(c) for c in self.collisions],
        }


def _nx_info(params: PqParameters, G: PermGroup, lam_tau) -> dict:
    """q^2 | |G| and centrality of the order-q translation, computed
    directly on the constructed group."""
    vq = dict(factorize(G.order())).get(params.q, 0)
    tau_central = all(
        compose(g, lam_tau) == compose(lam_tau, g) for g in G.generators
    )
    return {"q2_divides": vq >= 2, "c": vq - 1, "tau_central": tau_central}


def verify_pq(p: int, q: int) -> PqVerification:
    """Cross-check the closed pq theory against the generic machinery.

    (a) the constructed families biject with the generic transitive
    enumeration (metacyclic entries of order not divisible by p^2 are
    instead matched, as pairs, to cyclic-type entries); (b) every entry's
    classify_index_n triple equals its predicted triple; (c) no entry
    admits the parallel no-HGS property; (d) entries admitting both types
    propagate both types to all their parallel pairs.
    """
    from .pipeline import CatalogueIndex, analyze_parallel, build_catalogue, hgs_types_admitted

    params = pq_parameters(p, q)
    n = params.n
    checks = []
    entry_rows = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    catalogue = build_catalogue(n)
    index = CatalogueIndex(catalogue)
    cyclic_built, cyc_coll = cyclic_type_transitive_subgroups(params)
    meta_built, meta_coll = (
        metacyclic_type_transitive_subgroups(params) if not params.burnside else ([], [])
    )
    labels = sorted({e.type_label for e in catalogue})
    cyclic_label = labels[0]
    N_cyc = groups_of_order(n).groups[0]
    hol_groups = {N.label: holomorph(N).group for N in groups_of_order(n).groups}
    lam_tau = make_perm(N_cyc.table[params.p % n])

    # (a) family lists match the generic enumeration
    by_key = {}
    for G, tag, info, key in cyclic_built:
        by_key[(cyclic_label, key)] = (G, tag, info)
    if not params.burnside:
        meta_label = labels[1]
        for G, tag, info, key in meta_built:
            by_key[(meta_label, key)] = (G, tag, info)
    matched = {}
    unmatched_meta = []
    for e in catalogue:
        key = (e.type_label, class_key_of(hol_groups[e.type_label], e.group))
        hit = by_key.pop(key, None)
        if hit is not None:
            matched[e.entry_id] = hit
        else:
            unmatched_meta.append(e)
    del hol_groups  # free the holomorphs' views before the analyses below
    check(
        "families_cover_enumeration",
        not by_key,
        f"{len(by_key)} constructed members missing from the catalogue",
    )
    p2 = params.p**2
    bad_unmatched = [e for e in unmatched_meta if e.type_label == cyclic_label or e.order % p2 == 0]
    check(
        "unmatched_entries_are_small_metacyclic",
        not bad_unmatched,
        f"{len(bad_unmatched)} entries outside the constructed families",
    )
    # match each leftover metacyclic entry to a cyclic-type entry as a pair
    for e in unmatched_meta:
        partner = next((
            cand for _, cand in index.candidates(e.group)
            if cand.type_label == cyclic_label
            and pair_isomorphic(e.group, e.stabilizer, cand.group, cand.stabilizer) is not None
        ), None)
        check(
            "small_metacyclic_pairs_with_cyclic",
            partner is not None,
            f"entry {e.entry_id} (order {e.order}) has no cyclic-type pair partner",
        )
        if partner is not None:
            matched[e.entry_id] = matched[partner.entry_id]

    # (b) predicted counts; (c) no parallel no-HGS at degree pq; (d) the
    # source types propagate to every parallel pair, and same-closure
    # (trivial core) pairs admit exactly the source's types.  A parallel
    # pair admits the types of the entry it matched, pair isomorphism being
    # an equivalence.  Each entry's index-n lattice is run once, for (b) and
    # (c) together: analyze_parallel gives one report per class, in the
    # lattice's order.  The checks of (c) and (d) follow all of (b).
    by_id = {e.entry_id: e for e in catalogue}
    entry_types = {}
    later_checks = []

    def check_later(name, ok, detail):
        later_checks.append((name, bool(ok), detail))

    def types_of(entry_id):
        if entry_id not in entry_types:
            M = by_id[entry_id]
            entry_types[entry_id] = hgs_types_admitted(M.group, M.stabilizer, index)
        return entry_types[entry_id]

    for e in catalogue:
        reports = analyze_parallel(e, catalogue, index=index)
        got = matched.get(e.entry_id)
        if got is not None:
            G_fam, tag, info = got
            if tag == "NxX":
                info = dict(info)
                info.update(_nx_info(params, e.group, lam_tau) if e.type_label == cyclic_label else _nx_info(params, G_fam, lam_tau))
            predicted = predicted_counts(tag, params, info)
            classes = [r.h_class for r in reports]
            computed = classify_index_n(e.group, n, classes=classes).triple()
            entry_rows.append(
                {
                    "entry_id": e.entry_id,
                    "type_label": e.type_label,
                    "order": e.order,
                    "family": tag,
                    "info": {k: v for k, v in info.items()},
                    "predicted": predicted.triple(),
                    "computed": computed,
                }
            )
            check(
                "counts_match",
                predicted.triple() == computed,
                f"entry {e.entry_id} ({tag}, order {e.order}): predicted {predicted.triple()}, computed {computed}",
            )
        source_types = types_of(e.entry_id)
        for rep in reports:
            check_later(
                "parallel_pair_matches",
                not rep.no_hgs,
                f"entry {e.entry_id}, subgroup class of order {rep.h_class.order}",
            )
            types = types_of(rep.match.entry_id) if rep.match else set()
            check_later(
                "source_types_propagate",
                source_types <= types,
                f"entry {e.entry_id}: {sorted(types)} does not contain {sorted(source_types)}",
            )
            if rep.core_order == 1:
                check_later(
                    "same_closure_types_equal",
                    types == source_types,
                    f"entry {e.entry_id}: {sorted(types)} vs {sorted(source_types)}",
                )
    checks.extend(later_checks)
    ok = all(c[1] for c in checks)
    return PqVerification(
        params, ok, tuple(checks), tuple(entry_rows), tuple(cyc_coll + meta_coll)
    )

