"""Job process of the benchmark: runs one workload's job list in rounds,
one job after another, and prints one JSON line with the timings, the peak
resident memory, the check results and, when traced, the per-layer metrics.

Started by run.py with PYTHONHASHSEED=0, single-threaded BLAS and
PYTHONPATH=src; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _median_time(part):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        part()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Reference:
    """The machine's slowness now, read from two fixed parts: an integer
    loop, which the processor's own speed sets, and random lookups in a
    100,000-entry table of about 8 MB, which the shared caches' contention
    sets as well.  The program's code feels both; on rm-reject the loop
    alone made up for only part of a slow phase.  Neither part
    allocates an object the garbage collector tracks, and the table is
    built once before the first job, so nothing the program does changes
    the work a reading does."""

    LOOP_S, PROBE_S = 0.002, 0.003  # the parts' times on an idle core of the machine in README.md

    def __init__(self):
        rnd = random.Random(0)
        self.table = {k: k for k in range(0, 100_000 * 37, 37)}
        self.probes = [37 * rnd.randrange(100_000) for _ in range(15_000)]

    def _loop(self):
        s = 0
        for i in range(20_000):
            s = (s * 31 + i) % 1_000_003

    def _probe(self):
        s, table = 0, self.table
        for k in self.probes:
            s += table[k]

    def read(self):
        """1 at the nominal speed, 1.3 when the machine is 30 % slower: the
        mean of the two parts' times over their nominal times, each the
        median of three runs."""
        return (_median_time(self._loop) / self.LOOP_S
                + _median_time(self._probe) / self.PROBE_S) / 2


class StepClock:
    """Times the steps of one job.  Each step's wall time is also scaled
    to the reference speed: the step is cut into intervals by readings of
    the reference, one before it, one after it and, when `ticks`, one every
    TICK_S seconds within it (from a SIGALRM handler, so between two Python
    bytecodes); an interval's time is divided by the mean of the readings
    at its two ends.  The readings' own time is in no interval.  So the
    shared machine's changing speed cancels out of the scaled time, also
    within a step of several seconds."""

    TICK_S = 0.25

    def __init__(self, reference, ticks):
        self.wall = self.scaled = 0.0
        self.reference = reference
        self.ticks = ticks
        self.ref = reference.read()
        self.begun = 0.0  # start of the open interval
        self.live = False  # whether a tick may close the open interval

    def _close(self):
        """Ends the open interval with a reading and opens the next."""
        dt = time.perf_counter() - self.begun
        ref = self.reference.read()
        self.wall += dt
        self.scaled += dt / ((self.ref + ref) / 2)
        self.ref = ref
        self.begun = time.perf_counter()

    def _tick(self, signum, frame):
        if self.live:  # never inside another _close
            self.live = False
            self._close()
            self.live = True

    def __call__(self, fn, *args):
        self.begun = time.perf_counter()
        if self.ticks:
            self.live = True
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            return fn(*args)
        finally:
            self.live = False
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._close()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import plectic

    if Path(plectic.__file__).resolve().parent != ROOT / "src" / "plectic":
        sys.exit(f"plectic imported from {plectic.__file__}, not from this checkout")
    import plectic.cli  # noqa: F401  (loads every module before wrapping)
    from workloads import WORKLOADS, read_reports

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(plectic)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    wl = WORKLOADS[args.workload]
    work = Path(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    index = list(WORKLOADS).index(args.workload)
    rng = random.Random(args.seed * 16 + index)
    with span("bench.generate"):
        jobs = wl.generate(rng, work)

    reference = Reference()
    rounds = []  # per round: list of (job index, scaled s, wall s, result or None)
    marks = []  # per round: (first span, last span) when traced
    failures = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        r = len(rounds)
        record = []
        first = len(tracer.spans) if tracer else 0
        with span("bench.round"):
            for k, job in enumerate(jobs):
                gc.collect()
                clock = StepClock(reference, ticks=not tracer)  # no readings inside traced spans
                with span("bench.job"):
                    try:
                        result = wl.run(job, str(work / "out" / f"r{r}-j{k}"), clock)
                    except Exception:  # a failed operation is counted, not fatal
                        result = None
                        failures.append(traceback.format_exc())
                record.append((k, clock.scaled, clock.wall, result))
        if tracer:
            marks.append((first, len(tracer.spans)))
        rounds.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, after all timing
    problems = []
    checked = []
    for r, record in enumerate(rounds):
        for k, _, _, result in record:
            if result is None:
                continue
            result = read_reports(result)
            for p in wl.check(jobs[k], result):
                problems.append(f"round {r} job {k}: {p}")
            checked.append((k, result))
    # the checks must be able to fail: one deliberately wrong output each
    if checked:
        k, result = checked[0]
        if not wl.check(jobs[k], wl.corrupt(result)):
            sys.exit("self-test: the check accepted a deliberately wrong output")

    done = [rec for record in rounds for rec in record if rec[3] is not None]

    def batch(col):
        """The job list's time: each job's median over the rounds, summed."""
        per_job = [[rec[col] for rec in done if rec[0] == k] for k in range(len(jobs))]
        return sum(statistics.median(ts) for ts in per_job if ts)

    def p50(col):
        return statistics.median(rec[col] for rec in done) if done else float("nan")

    out = {
        "attempted": sum(len(record) for record in rounds),
        "failed": len(failures),
        "correct": not problems,
        "problems": problems[:20],
        "failures": [f.splitlines()[-1] for f in failures[:5]],
        "round_s": [sum(rec[1] for rec in record if rec[3] is not None) for record in rounds],
        "round_wall_s": [sum(rec[2] for rec in record if rec[3] is not None) for record in rounds],
        "jobs_per_round": len(jobs),
        "batch_s": batch(1),
        "job_p50_s": p50(1),
        "batch_wall_s": batch(2),
        "job_p50_wall_s": p50(2),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        from spans import median_metrics, round_metrics

        out["per_layer"] = median_metrics([round_metrics(tracer, a, b) for a, b in marks])
        tracer.write_jsonl(work.parent / f"trace-{args.workload}.jsonl")
    for f in failures[:3]:
        sys.stderr.write(f)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
