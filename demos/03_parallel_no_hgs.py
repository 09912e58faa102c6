#!/usr/bin/env python3
"""Detect extensions whose parallel subextensions admit no Hopf-Galois
structure at all.

For a catalogue pair (G, G') every index-n subgroup H corresponds to a
parallel subextension of the Galois closure; its structure types are read
off the faithful transitive quotient pair (G/C, H/C) with C the normal
core.  If that pair matches no catalogue entry of any type, the original
extension has a parallel extension with no Hopf-Galois structure.

Runs the full degree-8 analysis (about half a minute) and prints the
degree summary row plus one explicit witness.
"""

from hopfgalois.pipeline import analyze_degree

catalogue, witnesses = analyze_degree(8)
no_hgs = [e for e in catalogue if witnesses[e.entry_id]]
print(f"degree 8: {len(catalogue)} transitive classes, {len(no_hgs)} with the parallel no-HGS property")

entry = no_hgs[0]
witness = witnesses[entry.entry_id][0]
print()
print(f"example witness: entry {entry.entry_id} (type {entry.type_label}, order {entry.order})")
print(f"  index-8 subgroup class of order {witness.h_class.order}, core order {witness.core_order}")
print(f"  scanned {len(witness.scanned)} same-order catalogue entries, no pair match")
print(f"  generators of the failing subgroup:")
for g in witness.h_class.representative.generators:
    from hopfgalois.perms import format_cycles

    print(f"    {format_cycles(g)}")
