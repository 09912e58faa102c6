"""Output checks made apart from the program.

Group elements are enumerated here by plain closure over the generators
(breadth-first, composing permutations given as image sequences), not by
the package's stabilizer chains or Cayley rows.  Each check returns a list
of problems; an empty list means it passed.  ``self_test`` feeds each check
a wrong input and confirms that it is rejected.
"""

from __future__ import annotations

import dataclasses


def _compose(p, q):
    """Apply q first, then p."""
    if isinstance(p, bytes):
        return q.translate(p + bytes(range(len(p), 256)))
    return tuple(p[i] for i in q)


def _identity(degree):
    return bytes(range(degree)) if degree <= 256 else tuple(range(degree))


def _inverse(p):
    inv = sorted(range(len(p)), key=p.__getitem__)
    return bytes(inv) if isinstance(p, bytes) else tuple(inv)


def closure(degree, gens) -> set:
    """Every element of the group generated by ``gens``."""
    ident = _identity(degree)
    gens = [g for g in gens if g != ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


class Elements:
    """Element sets of the catalogue's groups and stabilizers, enumerated once."""

    def __init__(self):
        self._sets = {}

    def of(self, group) -> set:
        key = (group.degree, group.generators)
        s = self._sets.get(key)
        if s is None:
            s = self._sets[key] = closure(group.degree, group.generators)
        return s


# -- rows -------------------------------------------------------------------


def check_row(summary, expected) -> list[str]:
    """(transitive classes, no-HGS entries) of a degree summary."""
    got = (summary.total_transitive_classes, summary.no_hgs_entries)
    if got != tuple(expected):
        return [f"degree {summary.degree}: row {got}, expected {tuple(expected)}"]
    return []


def check_summary_against_reports(summary, catalogue, reports) -> list[str]:
    """The summary recounted from the per-entry reports the run produced."""
    if {e.entry_id for e in catalogue} != set(reports):
        return [f"degree {summary.degree}: reports for {len(reports)} of {len(catalogue)} entries"]
    failing = {eid: sum(r.no_hgs for r in reps) for eid, reps in reports.items()}
    got = (len(catalogue), sum(1 for k in failing.values() if k), sum(failing.values()))
    want = (summary.total_transitive_classes, summary.no_hgs_entries, summary.no_hgs_pairs)
    if got != want:
        return [f"degree {summary.degree}: reports give {got}, summary says {want}"]
    return []


def check_same_summary(name, summary, cold) -> list[str]:
    """A rerun or resumed summary equals the cold one, no_hgs_pairs included."""
    if summary != cold:
        return [
            f"{name}: (classes, no-HGS, pairs) = "
            f"({summary.total_transitive_classes}, {summary.no_hgs_entries}, {summary.no_hgs_pairs}), "
            f"cold run gave ({cold.total_transitive_classes}, {cold.no_hgs_entries}, {cold.no_hgs_pairs})"
        ]
    return []


def check_same_catalogue(name, catalogue, cold) -> list[str]:
    if [e.to_json() for e in catalogue] != [e.to_json() for e in cold]:
        return [f"{name}: catalogue read back differs from the one built"]
    return []


# -- catalogue entries ------------------------------------------------------


def check_entry(entry, elements: Elements) -> list[str]:
    """Transitive, of the recorded order, with a core-free point stabilizer."""
    n = entry.degree
    where = f"degree {n} entry {entry.entry_id}"
    G = elements.of(entry.group)
    S = elements.of(entry.stabilizer)
    if len(G) != entry.order:
        return [f"{where}: {len(G)} elements, recorded order {entry.order}"]
    # orbit of 0, with a transversal t_x mapping 0 to x
    transversal = {0: _identity(n)}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in entry.group.generators:
                y = g[x]
                if y not in transversal:
                    transversal[y] = _compose(g, transversal[x])
                    new.append(y)
        frontier = new
    if len(transversal) != n:
        return [f"{where}: orbit of 0 has {len(transversal)} of {n} points"]
    if not S <= G or any(s[0] != 0 for s in S) or len(S) * n != len(G):
        return [f"{where}: stabilizer is not the point stabilizer of 0"]
    core = set(S)
    for t in transversal.values():
        t_inv = _inverse(t)
        core &= {_compose(t, _compose(s, t_inv)) for s in S}
    if len(core) != 1:
        return [f"{where}: stabilizer core has order {len(core)}"]
    return []


# -- witnesses --------------------------------------------------------------


def replay(mapping, source, source_sub, target, target_sub) -> str | None:
    """Extend generator images to a map and check it is an isomorphism of
    pairs: well defined, multiplicative, bijective onto ``target`` and
    carrying ``source_sub`` onto ``target_sub`` (all four are element
    sets).  Returns None when it is, else the reason it is not."""
    if not mapping:
        return None if len(source) == len(target) == 1 else "empty witness"
    degree, image_degree = len(mapping[0][0]), len(mapping[0][1])
    pairs = [(a, b) for a, b in mapping]
    if any(a not in source for a, _ in pairs) or any(b not in target for _, b in pairs):
        return "a generator or its image lies outside its group"
    phi = {_identity(degree): _identity(image_degree)}
    frontier = list(phi)
    while frontier:
        new = []
        for x in frontier:
            fx = phi[x]
            for a, b in pairs:
                y = _compose(a, x)
                fy = _compose(b, fx)
                known = phi.get(y)
                if known is None:
                    phi[y] = fy
                    new.append(y)
                elif known != fy:
                    return "generator images do not extend to a homomorphism"
        frontier = new
    # every edge of the Cayley graph on the sources is consistent, so phi is
    # a homomorphism on the subgroup they generate
    if len(phi) != len(source):
        return f"sources generate {len(phi)} of {len(source)} elements"
    if set(phi.values()) != target:
        return "map is not onto the target group"
    if {phi[x] for x in source_sub} != target_sub:
        return "designated subgroup is not carried onto the stabilizer"
    return None


def is_stabilizer_class_witness(report) -> bool:
    """Whether the witness is the identity on a generating set of the
    entry's own group, which is how analyze_parallel answers the
    stabilizer's own class without forming the quotient."""
    m = report.match
    return (
        m is not None
        and m.entry_id == report.source_entry
        and all(a == b for a, b in m.witness.mapping)
    )


def conjugate_to(group_gens, h_set, target_set) -> bool:
    """Whether some element of the group maps the subgroup h_set onto target_set."""
    seen = {frozenset(h_set)}
    frontier = list(seen)
    target = frozenset(target_set)
    inv = {g: _inverse(g) for g in group_gens}
    while frontier:
        new = []
        for S in frontier:
            if S == target:
                return True
            for g in group_gens:
                T = frozenset(_compose(g, _compose(x, inv[g])) for x in S)
                if T not in seen:
                    seen.add(T)
                    new.append(T)
        frontier = new
    return False


def check_witnesses(catalogue, reports, quotient, elements: Elements) -> list[str]:
    """Replay every match witness of every report.

    ``quotient(G, H)`` gives the pair (J, J') the witness starts from; its
    order and point stabilizer are checked here too.
    """
    by_id = {e.entry_id: e for e in catalogue}
    problems = []
    for eid, reps in sorted(reports.items()):
        entry = by_id[eid]
        for k, rep in enumerate(reps):
            where = f"degree {entry.degree} entry {eid} class {k}"
            if rep.match is None:
                continue
            cand = by_id[rep.match.entry_id]
            H = rep.h_class.representative
            # the identity on G is also what a quotient witness looks like
            # when J comes out equal to G, so that case is replayed below
            if is_stabilizer_class_witness(rep) and conjugate_to(
                entry.group.generators, elements.of(H), elements.of(entry.stabilizer)
            ):
                continue
            J, J_sub = quotient(entry.group, H)
            j_set = closure(J.degree, J.generators)
            j_sub = closure(J.degree, J_sub.generators)
            if len(j_set) * rep.core_order != entry.order or J.degree != entry.degree:
                problems.append(f"{where}: quotient of order {len(j_set)} on {J.degree} points")
                continue
            if j_sub != {x for x in j_set if x[0] == 0}:
                problems.append(f"{where}: quotient subgroup is not the stabilizer of 0")
                continue
            why = replay(
                rep.match.witness.mapping, j_set, j_sub,
                elements.of(cand.group), elements.of(cand.stabilizer),
            )
            if why is not None:
                problems.append(f"{where}: witness to entry {cand.entry_id}: {why}")
    return problems


# -- pq theory --------------------------------------------------------------


def check_verify_pq(report) -> list[str]:
    counts = [(ok, detail) for name, ok, detail in report.checks if name == "counts_match"]
    problems = [f"counts_match failed: {detail}" for ok, detail in counts if not ok]
    if not counts:
        problems.append("verify_pq made no counts_match check")
    if not report.ok:
        problems.append(f"verify_pq not ok: {len(report.failures())} failed checks")
    return problems


def check_cyclic_family(catalogue, cyclic_label, family_size) -> list[str]:
    got = sum(1 for e in catalogue if e.type_label == cyclic_label)
    if got != family_size:
        return [f"{got} entries of type {cyclic_label}, closed cyclic family has {family_size}"]
    return []


# -- self-test --------------------------------------------------------------


def self_test(outputs) -> list[str]:
    """Give each check a wrong input; every one must be rejected.

    ``outputs`` is the dict the workload filled: ``summaries`` (degree ->
    (summary, expected row)), ``catalogues`` and ``reports`` (degree ->),
    ``quotient``, and optionally ``verify`` and ``family``.  Returns the
    checks that accepted a wrong input.
    """
    missed = []
    elements = Elements()
    for degree, (summary, expected) in outputs.get("summaries", {}).items():
        wrong = (expected[0], expected[1] + 1)
        if not check_row(summary, wrong):
            missed.append(f"row check accepted {wrong} at degree {degree}")
        doubled = dataclasses.replace(summary, no_hgs_pairs=2 * summary.no_hgs_pairs + 1)
        if not check_same_summary("self-test", doubled, summary):
            missed.append(f"summary comparison accepted a doubled pair count at degree {degree}")
        reports = outputs["reports"].get(degree)
        if reports is not None and not check_summary_against_reports(
            doubled, outputs["catalogues"][degree], reports
        ):
            missed.append(f"report recount accepted a doubled pair count at degree {degree}")
    for degree, reports in outputs.get("reports", {}).items():
        catalogue = outputs["catalogues"][degree]
        tampered = _tamper_witness(reports)
        if tampered is not None and not check_witnesses(
            catalogue, tampered, outputs["quotient"], elements
        ):
            missed.append(f"witness replay accepted a tampered witness at degree {degree}")
        entry = max(catalogue, key=lambda e: e.order)
        if entry.order > entry.degree:
            smaller = dataclasses.replace(
                entry, stabilizer=type(entry.stabilizer)(entry.degree, [])
            )
            if not check_entry(smaller, elements):
                missed.append(f"entry check accepted a trivial stabilizer at degree {degree}")
        break  # one degree is enough to show the checks can fail
    verify = outputs.get("verify")
    if verify is not None:
        broken = dataclasses.replace(
            verify,
            ok=False,
            checks=verify.checks + (("counts_match", False, "self-test"),),
        )
        if not check_verify_pq(broken):
            missed.append("verify_pq check accepted a failed counts_match")
    family = outputs.get("family")
    if family is not None:
        catalogue, label, size = family
        if not check_cyclic_family(catalogue, label, size + 1):
            missed.append("cyclic family check accepted a wrong family size")
    return missed


def _tamper_witness(reports):
    """The reports with one quotient witness's first image replaced by the
    identity, which no isomorphism of a nontrivial group allows."""
    for eid, reps in sorted(reports.items()):
        for k, rep in enumerate(reps):
            if rep.match is None or is_stabilizer_class_witness(rep):
                continue
            mapping = rep.match.witness.mapping
            a, b = mapping[0]
            if b == _identity(len(b)):
                continue
            bad = ((a, _identity(len(b))),) + tuple(mapping[1:])
            witness = dataclasses.replace(rep.match.witness, mapping=bad)
            match = dataclasses.replace(rep.match, witness=witness)
            bad_rep = dataclasses.replace(rep, match=match)
            return {eid: reps[:k] + [bad_rep] + reps[k + 1:]}
    return None
