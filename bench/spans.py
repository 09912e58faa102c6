"""Spans around calls into the package's modules, recorded from outside.

The tracer replaces functions of ``hopfgalois`` with timing wrappers for
the length of one traced run and puts the originals back afterwards; the
package's source is not touched.  ``from .x import f`` binds a separate
name in the importing module, so every module attribute that *is* the
original function is replaced, not only the defining one.

Each call becomes one span (name, parent, start, end).  A generator
function (``homsearch.isomorphisms``) gets one span per resumption, since
its work happens while the consumer iterates.  Spans are kept in flat
arrays and written out when the run ends; the per-layer metrics are
derived from them by :func:`layer_metrics`.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method on the class.
SPANS = (
    ("pipeline", "build_catalogue", "pipeline.build_catalogue"),
    ("pipeline", "detect_no_hgs", "pipeline.detect_no_hgs"),
    ("pipeline", "analyze_parallel", "pipeline.analyze_parallel"),
    ("pipeline", "hgs_types_admitted", "pipeline.hgs_types_admitted"),
    ("subgroups", "transitive_subgroup_classes", "subgroups.transitive_subgroup_classes"),
    ("subgroups", "index_n_subgroup_classes", "subgroups.index_n_subgroup_classes"),
    ("subgroups", "classify_index_n", "subgroups.classify_index_n"),
    ("subgroups", "class_key_of", "subgroups.class_key_of"),
    ("isomorphism", "pair_isomorphic", "isomorphism.pair_isomorphic"),
    ("isomorphism", "find_isomorphism", "isomorphism.find_isomorphism"),
    ("isomorphism", "permutation_pair_of_quotient", "isomorphism.permutation_pair_of_quotient"),
    ("homsearch", "isomorphisms", "homsearch.isomorphisms"),
    ("engine", "view_of", "engine.view_of"),
    ("engine", "GroupView._build_row", "engine.build_row"),
    ("engine", "GroupView.invariant_vector", "engine.invariant_vector"),
    ("permgroup", "coset_action", "permgroup.coset_action"),
    ("permgroup", "_build_chain", "permgroup.build_chain"),
    ("permgroup", "_build_chain_prefixed", "permgroup.build_chain"),
    ("holomorph", "holomorph", "holomorph.holomorph"),
    ("groups", "groups_of_order", "groups.groups_of_order"),
    ("cache", "write_catalogue_file", "cache.write"),
    ("cache", "append_report_line", "cache.write"),
    ("cache", "read_catalogue_file", "cache.read"),
    ("cache", "read_report_lines", "cache.read"),
    ("pqtheory", "cyclic_type_transitive_subgroups", "pqtheory.families"),
    ("pqtheory", "metacyclic_type_transitive_subgroups", "pqtheory.families"),
)

GENERATORS = {"homsearch.isomorphisms"}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Open a span by hand (the benchmark's own steps); returns its id."""
        i = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, hook):
        nid = self._nid(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        before, after = hook if hook is not None else (None, None)

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args, pre)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        nid = self._nid(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        counters = self.counters

        def resumed(inner):
            yielded = False
            try:
                while True:
                    i = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    starts.append(clock())
                    ends.append(0.0)
                    stack.append(i)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    if not yielded:
                        yielded = True
                        counters[name + ".found"] += 1
                    yield item
            finally:
                inner.close()

        def traced(*args, **kwargs):
            counters[name + ".calls"] += 1
            return resumed(fn(*args, **kwargs))

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "hopfgalois") -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod_name, attr, span_name in SPANS:
            owner = sys.modules[f"{package}.{mod_name}"]
            hook = self._hook(owner, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(getattr(cls, meth), span_name, hook))
                continue
            original = getattr(owner, attr)
            if span_name in GENERATORS:
                wrapper = self._wrap_generator(original, span_name)
            else:
                wrapper = self._wrap(original, span_name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        # views are counted, not spanned: construction is a few assignments
        view_cls = sys.modules[f"{package}.engine"].GroupView
        init = view_cls.__init__
        counters = self.counters

        def counted_init(view):
            counters["engine.views_built"] += 1
            init(view)

        self._set(view_cls, "__init__", counted_init)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hook(self, module, attr):
        """(before, after) callbacks that take counts where the work is
        visible; ``before`` runs ahead of the span, ``after`` once it closed."""
        counters = self.counters
        if attr == "analyze_parallel":
            def after(reports, args, pre):
                counters["pipeline.candidates_scanned"] += sum(len(r.scanned) for r in reports)
            return None, after
        if attr == "pair_isomorphic":
            def after(witness, args, pre):
                counters["isomorphism.pair_hits"] += witness is not None
            return None, after
        if attr == "read_report_lines":
            def after(lines, args, pre):
                counters["cache.report_lines_read"] += len(lines)
            return None, after
        if attr == "write_catalogue_file":
            # the file is written afresh and renamed into place
            def after(result, args, pre):
                path = module.catalogue_path(args[0], args[1], args[2])
                counters["cache.bytes_written"] += os.path.getsize(path)
            return None, after
        if attr == "append_report_line":
            def size(args):
                path = module.reports_path(args[0], args[1])
                return os.path.getsize(path) if os.path.exists(path) else 0

            def after(result, args, pre):
                counters["cache.bytes_written"] += size(args) - pre
            return size, after
        return None

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, name, parent id, start, end (s)."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    def totals(self):
        """Per span name: (calls, total s of outermost spans, self s).

        Spans are numbered in start order and, in one thread, two spans of
        one name are either nested or disjoint, so a span is outermost
        exactly when it starts after the last outermost one of its name ended.
        """
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        outer_end = [float("-inf")] * k
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if start[i] >= outer_end[nid]:
                total[nid] += dur
                outer_end[nid] = end[i]
        return {
            self.names[nid]: (calls[nid], total[nid], self_s[nid])
            for nid in range(k) if calls[nid]
        }


# (metric, unit, how it is derived): "total"/"self"/"calls" of a span name,
# or "counter" of a counter name.
LAYER_METRICS = (
    ("pipeline.analyze_s", "s", "total", "pipeline.analyze_parallel"),
    ("pipeline.candidates_scanned", "count", "counter", "pipeline.candidates_scanned"),
    ("pipeline.types_s", "s", "total", "pipeline.hgs_types_admitted"),
    ("subgroups.catalogue_lattice_s", "s", "self", "subgroups.transitive_subgroup_classes"),
    ("subgroups.index_n_lattice_s", "s", "self", "subgroups.index_n_subgroup_classes"),
    ("subgroups.classify_s", "s", "self", "subgroups.classify_index_n"),
    ("subgroups.class_key_s", "s", "total", "subgroups.class_key_of"),
    ("isomorphism.pair_tests", "count", "calls", "isomorphism.pair_isomorphic"),
    ("isomorphism.pair_hits", "count", "counter", "isomorphism.pair_hits"),
    ("isomorphism.pair_hit_ratio", "ratio", "ratio", ("isomorphism.pair_hits", "isomorphism.pair_tests")),
    ("isomorphism.pair_s", "s", "total", "isomorphism.pair_isomorphic"),
    ("isomorphism.iso_tests", "count", "calls", "isomorphism.find_isomorphism"),
    ("isomorphism.iso_s", "s", "total", "isomorphism.find_isomorphism"),
    ("isomorphism.quotient_s", "s", "total", "isomorphism.permutation_pair_of_quotient"),
    ("homsearch.searches", "count", "counter", "homsearch.isomorphisms.calls"),
    ("homsearch.found", "count", "counter", "homsearch.isomorphisms.found"),
    ("homsearch.found_ratio", "ratio", "ratio", ("homsearch.found", "homsearch.searches")),
    ("homsearch.search_s", "s", "self", "homsearch.isomorphisms"),
    ("engine.views_built", "count", "counter", "engine.views_built"),
    ("engine.view_of_calls", "count", "calls", "engine.view_of"),
    ("engine.view_of_s", "s", "self", "engine.view_of"),
    ("engine.cayley_rows", "count", "calls", "engine.build_row"),
    ("engine.cayley_row_s", "s", "self", "engine.build_row"),
    ("engine.invariant_s", "s", "total", "engine.invariant_vector"),
    ("permgroup.coset_actions", "count", "calls", "permgroup.coset_action"),
    ("permgroup.coset_action_s", "s", "self", "permgroup.coset_action"),
    ("permgroup.chain_s", "s", "self", "permgroup.build_chain"),
    ("holomorph.build_s", "s", "total", "holomorph.holomorph"),
    ("groups.build_s", "s", "total", "groups.groups_of_order"),
    ("cache.write_s", "s", "total", "cache.write"),
    ("cache.read_s", "s", "total", "cache.read"),
    ("cache.bytes_written", "bytes", "counter", "cache.bytes_written"),
    ("cache.report_lines_read", "count", "counter", "cache.report_lines_read"),
    ("pqtheory.families_s", "s", "total", "pqtheory.families"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of LAYER_METRICS; 0 where the layer was not called."""
    spans = tracer.totals()
    out: dict[str, float] = {}
    for metric, _unit, how, source in LAYER_METRICS:
        if how == "counter":
            out[metric] = tracer.counters[source]
        elif how == "ratio":
            hits, tries = out[source[0]], out[source[1]]
            out[metric] = hits / tries if tries else 0.0
        else:
            calls, total, self_s = spans.get(source, (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "total": total, "self": self_s}[how]
    return out


UNITS = {metric: unit for metric, unit, _how, _source in LAYER_METRICS}
