"""One round of one workload, in a fresh interpreter with a fresh cache.

Started by run.py; prints one JSON line with the round's figures.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import hopfgalois
from hopfgalois import pipeline, pqtheory
from hopfgalois.isomorphism import permutation_pair_of_quotient

import checks
import speed
from spans import UNITS, Tracer, layer_metrics

# The paper's rows: degree -> (transitive classes, entries with a parallel
# no-HGS pair).  The zeros at 21 and 55 are the degree-pq theorem.
ROWS = {8: (148, 8), 12: (134, 23), 21: (36, 0), 55: (54, 0)}

# Degree 55, entry 51 (type 55.1, order 1210) is left out of row-55-part:
# its two negative pair tests alone take about 150 s.
SKIPPED_55 = (51, "55.1", 1210)

# The machine's speed is sampled three times at each end of the round,
# right before every operation and, in untraced rounds, every
# SAMPLE_EVERY_S during the operations, from a timer signal.  In traced
# rounds a timer sample would be charged to whatever span it interrupts.
SAMPLE_EVERY_S = 0.5

# An operation is scaled by the speed samples taken within this many
# seconds of it, so that a short one still gets several.
SAMPLE_WINDOW_S = 2.0

# Operations of a tenth of a second vary by a third from run to run on a
# shared machine, more than any speed sample can correct.  So each resumed
# query is asked this many times in a row and timed by the median.
RESUME_REPEATS = 9


class Round:
    """Times the workload's operations and defers their checks."""

    def __init__(self, cache_dir, tracer=None):
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.ops = []  # (start, end, measured seconds, bucket, group)
        self.speed = []  # (start, seconds) of each speed sample
        self._sampling_s = 0.0  # time spent in timer-driven samples
        self.attempted = 0
        self.failed = []
        self.problems = []
        self._checks = []
        self.outputs = {"summaries": {}, "catalogues": {}, "reports": {},
                        "quotient": permutation_pair_of_quotient}

    def sample_speed(self, count=1):
        for _ in range(count):
            self.speed.append((time.perf_counter(), speed.sample()))

    def start_timer(self):
        busy = []

        def on_alarm(signum, frame):
            if busy:  # a stalled sample outlived the interval
                return
            busy.append(True)
            t0 = time.perf_counter()
            self.speed.append((t0, speed.sample()))
            self._sampling_s += time.perf_counter() - t0
            busy.clear()

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def op(self, name, bucket, fn, group=None):
        """Run one public call; an exception counts the operation as failed.

        The round's wall time is the sum of these calls, which run back to
        back apart from the speed samples between them.  Calls given the
        same ``group`` repeat one step; the step's bucket gets their median.
        """
        self.sample_speed()
        self.attempted += 1
        span = self.tracer.open("step." + name) if self.tracer else None
        sampling_before = self._sampling_s
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            result = None
            self.failed.append(name)
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.close(span)
        self.ops.append((t0, t1, t1 - t0 - (self._sampling_s - sampling_before), bucket, group))
        return result

    def repeat(self, name, bucket, fn, times):
        """The same read-only call ``times`` times; returns every result."""
        return [self.op(f"{name}#{i}", bucket, fn, group=name) for i in range(times)]

    def measured_wall_s(self):
        return sum(op[2] for op in self.ops)

    def scaled_times(self):
        """wall_s and the phase buckets in reference seconds.

        Each operation is scaled by the speed samples taken within
        SAMPLE_WINDOW_S of it, so a change of speed within the round is
        charged to the operations it overlapped.
        """
        out = {"wall_s": 0.0, "catalogue_s": 0.0, "parallel_s": 0.0, "resume_s": 0.0}
        groups = {}
        for t0, t1, seconds, bucket, group in self.ops:
            near = [s for t, s in self.speed if t0 - SAMPLE_WINDOW_S <= t <= t1 + SAMPLE_WINDOW_S]
            scaled = seconds * speed.scale(near)
            out["wall_s"] += scaled
            if group is not None:
                groups.setdefault((bucket, group), []).append(scaled)
            elif bucket is not None:
                out[bucket] += scaled
        for (bucket, _), times in groups.items():
            if bucket is not None:
                out[bucket] += statistics.median(times)
        return out

    def check(self, fn, *args):
        """A correctness check, run after the timed window."""
        self._checks.append((None, fn, args))

    def outcome(self, op_name, fn, *args):
        """A check whose failure marks operation ``op_name`` as failed."""
        self._checks.append((op_name, fn, args))

    def run_checks(self):
        for op_name, fn, args in self._checks:
            if op_name in self.failed:
                continue
            problems = fn(*args)
            if not problems:
                continue
            if op_name is None:
                self.problems.extend(problems)
            else:
                self.failed.append(op_name)
                print(f"operation {op_name} failed: {'; '.join(problems)}", file=sys.stderr)


def keep_reports(into):
    def progress(entry, reports):
        into[entry.entry_id] = reports
    return progress


def degree_row(r: Round, n, *, rerun: bool, builds: int = 1):
    """catalog, no-hgs [, no-hgs again], then no-hgs --resume, asked
    RESUME_REPEATS times, through one cache directory.

    With ``builds`` > 1 the catalog and no-hgs steps are made that many
    times, each in a fresh cache directory, and timed by the median; the
    resumed queries read the first one.
    """
    elements = checks.Elements()
    dirs = [os.path.join(r.cache_dir, f"{n}-{k}") for k in range(builds)]
    built = []
    for d in dirs:
        catalogue = r.op(f"catalog-{n}", "catalogue_s",
                         lambda: pipeline.build_catalogue(n, cache_dir=d), group=f"catalog-{n}")
        reports = {}
        cold = r.op(
            f"no-hgs-{n}", "parallel_s",
            lambda: pipeline.detect_no_hgs(n, cache_dir=d, progress=keep_reports(reports)),
            group=f"no-hgs-{n}",
        )
        built.append((catalogue, cold, reports))
        if catalogue is not None:
            r.check(lambda c=catalogue: [] if len(c) == ROWS[n][0] else
                    [f"degree {n}: catalogue has {len(c)} entries"])
            r.check(lambda c=catalogue: [p for e in c for p in checks.check_entry(e, elements)])
        if cold is not None:
            r.check(checks.check_row, cold, ROWS[n])
            if catalogue is not None:
                r.check(checks.check_summary_against_reports, cold, catalogue, reports)
                r.check(checks.check_witnesses, catalogue, reports, permutation_pair_of_quotient, elements)
    catalogue, cold, reports = built[0]
    d = dirs[0]
    again = r.op(f"rerun-{n}", None, lambda: pipeline.detect_no_hgs(n, cache_dir=d)) if rerun else None
    resumed = r.repeat(f"resume-{n}", "resume_s",
                       lambda: pipeline.detect_no_hgs(n, cache_dir=d, resume=True), RESUME_REPEATS)
    if cold is None:
        return
    r.outputs["summaries"][n] = (cold, ROWS[n])
    if catalogue is not None:
        r.outputs["catalogues"][n] = catalogue
        r.outputs["reports"][n] = reports
    if again is not None:
        r.check(checks.check_same_summary, f"rerun at degree {n}", again, cold)
    for i, summary in enumerate(resumed):
        r.outcome(f"resume-{n}#{i}", checks.check_same_summary, f"resume at degree {n}", summary, cold)


def rows_8_12(r: Round):
    degree_row(r, 8, rerun=True)
    degree_row(r, 12, rerun=True)


def row_55_part(r: Round):
    n = 55
    d = r.cache_dir
    elements = checks.Elements()
    catalogue = r.op("catalog-55", "catalogue_s", lambda: pipeline.build_catalogue(n, cache_dir=d))
    if catalogue is None:
        return
    reports = {}
    skip_id = SKIPPED_55[0]
    for entry in catalogue:
        if entry.entry_id == skip_id:
            continue
        reps = r.op(f"analyze-55-{entry.entry_id}", "parallel_s",
                    lambda: pipeline.analyze_parallel(entry, catalogue))
        if reps is not None:
            reports[entry.entry_id] = reps
    resumed = r.repeat("resume-55", "resume_s",
                       lambda: pipeline.build_catalogue(n, cache_dir=d, resume=True), RESUME_REPEATS)
    skipped = [(e.entry_id, e.type_label, e.order) for e in catalogue if e.entry_id == skip_id]

    def partial_row():
        problems = []
        if skipped != [SKIPPED_55]:
            problems.append(f"entry left out is {skipped}, expected {SKIPPED_55}")
        if len(catalogue) != ROWS[n][0]:
            problems.append(f"degree 55: catalogue has {len(catalogue)} entries")
        bad = sorted(eid for eid, reps in reports.items() if any(x.no_hgs for x in reps))
        if bad:
            problems.append(f"degree 55: entries {bad} have a parallel no-HGS pair")
        return problems

    params = pqtheory.pq_parameters(11, 5)
    r.check(partial_row)
    r.check(lambda: [p for e in catalogue for p in checks.check_entry(e, elements)])
    r.check(checks.check_witnesses, catalogue, reports, permutation_pair_of_quotient, elements)

    def cyclic_family():
        size = len(pqtheory.cyclic_type_transitive_subgroups(params)[0])
        label = f"{n}.0"
        r.outputs["family"] = (catalogue, label, size)
        return checks.check_cyclic_family(catalogue, label, size)

    r.check(cyclic_family)
    r.outputs["catalogues"][n] = catalogue
    r.outputs["reports"][n] = reports
    for i, back in enumerate(resumed):
        r.outcome(f"resume-55#{i}", checks.check_same_catalogue, "catalogue read-back at degree 55",
                  back, catalogue)


def verify_pq_7_3(r: Round):
    report = r.op("verify-pq-7-3", None, lambda: pqtheory.verify_pq(7, 3))
    degree_row(r, 21, rerun=False, builds=3)
    if report is not None:
        r.outputs["verify"] = report
        r.check(checks.check_verify_pq, report)


WORKLOADS = {
    "rows-8-12": rows_8_12,
    "row-55-part": row_55_part,
    "verify-pq-7-3": verify_pq_7_3,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--spans", default=None, help="trace this round and write its spans here")
    args = ap.parse_args()

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    r = Round(args.cache_dir, tracer)
    r.sample_speed(3)
    if tracer is None:
        r.start_timer()
    WORKLOADS[args.workload](r)
    r.stop_timer()
    r.sample_speed(3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    t_checks = time.perf_counter()
    r.run_checks()
    missed = checks.self_test(r.outputs)
    r.problems.extend(f"self-test: {m}" for m in missed)

    checks_s = time.perf_counter() - t_checks
    factor = speed.scale([s for _, s in r.speed])
    if tracer is not None:
        metrics = {
            name: value * factor if UNITS[name] == "s" else value
            for name, value in layer_metrics(tracer).items()
        }
        tracer.write(args.spans)
    else:
        metrics = dict(r.scaled_times(), peak_rss_mb=peak_rss_mb)
    for p in r.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "package": hopfgalois.__file__,
        "attempted": r.attempted,
        "failed": len(r.failed),
        "correct": not r.problems,
        "measured_wall_s": r.measured_wall_s(),
        "speed_samples": len(r.speed),
        "scale": factor,
        "checks_s": checks_s,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
