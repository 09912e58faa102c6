"""Command-line front end.

Subcommands: ``catalog`` (build and cache a degree catalogue), ``no-hgs``
(degree summary: classes and no-HGS count per degree), ``verify-pq`` (closed
pq-theory cross-check), ``analyze`` (one transitive pair from a JSON file),
``extend`` (infinite-family construction from a no-HGS witness).

Exit codes: 0 success, 1 verification mismatch, 2 usage or precondition
error, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cache as cachemod
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .permgroup import PermGroup
from .perms import make_perm, parse_perm
from .subgroups import DEFAULT_MAX_ORDER

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(prog="hopfgalois", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    cache_dir = dict(type=Path, default=cachemod.default_cache_dir(),
                     help="cache directory (default: env or ~/.cache/hopfgalois)")
    max_order = dict(type=_positive_int, default=DEFAULT_MAX_ORDER,
                     help="largest group order the enumerations may touch")
    resume = dict(action="store_true",
                  help="read back the report log of an earlier run and analyse only the entries "
                       "it lacks (cached catalogues are reused with or without it)")
    seed_fixtures = dict(action="store_true",
                         help="record derived values in the fixture store and compare on later runs")

    p = sub.add_parser("catalog", help="build the transitive-subgroup catalogue for a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cache-dir", **cache_dir)
    p.add_argument("--max-order", **max_order)
    p.add_argument("--seed-fixtures", **seed_fixtures)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    p = sub.add_parser("no-hgs", help="per-degree (classes, no-HGS) summary")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--emit-witnesses", action="store_true")
    p.add_argument("--cache-dir", **cache_dir)
    p.add_argument("--max-order", **max_order)
    p.add_argument("--resume", **resume)
    p.add_argument("--seed-fixtures", **seed_fixtures)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    p = sub.add_parser("verify-pq", help="verify the closed pq-degree theory")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("analyze", help="analyze one (degree, G, H) pair file")
    p.add_argument("pair_file")
    p.add_argument("--cache-dir", **cache_dir)
    p.add_argument("--max-order", **max_order)
    p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("extend", help="extend a no-HGS witness by one or more primes")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--entry", type=int, required=True)
    p.add_argument("--auto-prime", action="store_true")
    p.add_argument("--primes", default=None, help="comma-separated primes")
    p.add_argument("--cache-dir", **cache_dir)
    p.add_argument("--max-order", **max_order)
    p.add_argument("--resume", **resume)
    p.add_argument("--format", choices=["json", "text"], default="text")
    return ap


def _fixture_drifted(cache_dir, key: str, value, label: str) -> bool:
    """Record ``value`` under ``key`` in the fixture store on first sight,
    else compare; True, after a message naming ``label``, on a mismatch."""
    same, prev = cachemod.record_fixture(cache_dir, key, value)
    if not same:
        print(f"fixture mismatch: {label} now {value}, recorded {prev['value']}", file=sys.stderr)
    return not same


def cmd_catalog(args) -> int:
    from .pipeline import build_catalogue

    catalogue = build_catalogue(args.degree, cache_dir=args.cache_dir, max_order=args.max_order)
    count = len(catalogue)
    key = f"catalog/degree{args.degree}"
    if args.seed_fixtures and _fixture_drifted(args.cache_dir, key, count, f"degree {args.degree}"):
        return EXIT_VERIFICATION
    if args.format == "json":
        print(json.dumps({"degree": args.degree, "classes": count}))
    elif args.format == "csv":
        print(f"{args.degree},{count}")
    else:
        print(f"degree {args.degree}: {count} transitive subgroup classes")
    return EXIT_OK


def cmd_no_hgs(args) -> int:
    from .pipeline import analyze_degree, degree_summary

    catalogue, witnesses = analyze_degree(
        args.degree, cache_dir=args.cache_dir, resume=args.resume, max_order=args.max_order
    )
    summary = degree_summary(args.degree, catalogue, witnesses)
    key = f"no-hgs/degree{args.degree}"
    value = [summary.total_transitive_classes, summary.no_hgs_entries]
    if args.seed_fixtures and _fixture_drifted(args.cache_dir, key, value, key):
        return EXIT_VERIFICATION
    row = (summary.degree, summary.total_transitive_classes, summary.no_hgs_entries)
    if args.format == "json":
        obj = {
            "degree": row[0],
            "transitive_classes": row[1],
            "no_hgs": row[2],
            "per_type": [list(t) for t in summary.per_type],
            "no_hgs_pairs": summary.no_hgs_pairs,
        }
        print(json.dumps(obj))
    elif args.format == "csv":
        print(cachemod.summary_csv([row]), end="")
    else:
        print(f"{row[0]},{row[1]},{row[2]}")
    if args.emit_witnesses:
        for entry in catalogue:
            for rep in witnesses[entry.entry_id]:
                print(json.dumps(rep.to_json()))
    return EXIT_OK


def cmd_verify_pq(args) -> int:
    from .pqtheory import verify_pq

    report = verify_pq(args.p, args.q)
    failures = report.failures()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "p": args.p,
                    "q": args.q,
                    "ok": report.ok,
                    "failures": [list(c) for c in failures],
                    "entries": list(report.entries),
                    "collisions": len(report.collisions),
                },
                default=str,
            )
        )
    else:
        for name, ok, detail in report.checks:
            if not ok:
                print(f"FAIL {name}: {detail}")
        print(f"verify-pq p={args.p} q={args.q}: {'pass' if report.ok else 'fail'} "
              f"({len(report.checks)} checks, {len(failures)} failures)")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _load_pair_file(path):
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot parse pair file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise PreconditionError(f"pair file {path} holds no JSON object")
    for key in ("degree", "G", "H"):
        if key not in obj:
            raise PreconditionError(f"pair file {path} is missing key {key!r}")
    degree = obj["degree"]
    if type(degree) is not int or degree < 1:
        raise PreconditionError(f"pair file {path}: degree must be a positive integer, not {degree!r}")

    def build(perms):
        gens = []
        for p in perms:
            if isinstance(p, str):
                gens.append(parse_perm(p, degree))
            else:
                gens.append(make_perm(list(p) + list(range(len(p), degree))))
        return PermGroup(degree, gens)

    try:
        return degree, build(obj["G"]), build(obj["H"])
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"bad permutation in pair file {path}: {exc}") from None


def cmd_analyze(args) -> int:
    from .isomorphism import permutation_pair_of_quotient
    from .pipeline import build_catalogue, hgs_types_admitted

    degree, G, H = _load_pair_file(args.pair_file)
    if not H.is_subgroup_of(G):
        raise PreconditionError("H is not a subgroup of G")
    if G.order() % degree != 0 or G.order() // H.order() != degree:
        raise PreconditionError(f"H must have index {degree} in G")
    J, J_sub = permutation_pair_of_quotient(G, H)
    catalogue = build_catalogue(degree, cache_dir=args.cache_dir, max_order=args.max_order)
    types = hgs_types_admitted(J, J_sub, catalogue)
    result = {
        "degree": degree,
        "core_order": G.order() // J.order(),
        "quotient_order": J.order(),
        "quotient_degree": J.degree,
        "quotient_regular": J.order() == J.degree,
        "admitted_types": sorted(types),
        "no_hgs": not types,
    }
    if args.format == "json":
        print(json.dumps(result))
    else:
        print(f"core order: {result['core_order']}")
        print(f"quotient pair: order {result['quotient_order']} on {result['quotient_degree']} points"
              + (" (regular)" if result["quotient_regular"] else ""))
        if types:
            print("admitted types: " + ", ".join(result["admitted_types"]))
        else:
            print("no HGS of any type")
    return EXIT_OK


def cmd_extend(args) -> int:
    from .pipeline import analyze_degree, find_extension_prime, iterate_family

    if args.degree % 2 == 0:
        raise PreconditionError("n odd required for family extension")
    if args.primes:
        try:
            primes = [int(x) for x in args.primes.split(",")]
        except ValueError:
            raise PreconditionError(
                f"--primes must be comma-separated integers: {args.primes!r}"
            ) from None
    elif args.auto_prime:
        primes = [find_extension_prime(args.degree)]
    else:
        raise PreconditionError("need --auto-prime or --primes")
    catalogue, witnesses = analyze_degree(
        args.degree, cache_dir=args.cache_dir, resume=args.resume, max_order=args.max_order
    )
    entry = next((e for e in catalogue if e.entry_id == args.entry), None)
    if entry is None:
        raise PreconditionError(f"no entry {args.entry} at degree {args.degree}")
    if not witnesses[entry.entry_id]:
        raise PreconditionError(f"entry {args.entry} has no parallel no-HGS witness")
    witness = witnesses[entry.entry_id][0]
    certs = iterate_family(entry, witness, primes, catalogue)
    for cert in certs:
        if args.format == "json":
            print(json.dumps(cert.to_json()))
        else:
            print(f"extension by q={cert.prime}: degree {cert.product_degree}, "
                  f"order {cert.product_order}, verified={cert.verified}")
            for name, statement, ok in cert.checks:
                print(f"  [{'ok' if ok else 'FAIL'}] {name}: {statement}")
    return EXIT_OK


_COMMANDS = {
    "catalog": cmd_catalog,
    "no-hgs": cmd_no_hgs,
    "verify-pq": cmd_verify_pq,
    "analyze": cmd_analyze,
    "extend": cmd_extend,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
