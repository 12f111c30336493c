"""Metric definitions, percentiles and the result line of one run."""
from __future__ import annotations

import bisect
import contextlib
import json
import math
import re
import signal
import statistics
import time

from inputs import MODULES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie above it.
BEYOND = 10

# name -> (unit, better).  Every workload reports every one of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "verdicts_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
}

# Layers whose self time is reported: the package modules, the benchmark's
# own code around the calls, and (cli_reports) child processes outside the
# package: interpreter start, shutdown and the CLI shim.
SELF_LAYERS = MODULES + ("bench", "process")

# name -> (unit, better) of the per-layer metrics other than self times.
_FIXED_LAYER = {
    "corpus.enumerate.self_s": ("s", "lower"),
    "corpus.enumerate.leaves": ("count", "lower"),
    "corpus.enumerate.classes": ("count", "higher"),
    "corpus.enumerate.useful_ratio": ("ratio", "higher"),
    "core.canonical.s": ("s", "lower"),
    "core.canonical.calls": ("count", "lower"),
    "core.validate.s": ("s", "lower"),
    "core.validate.calls": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "ideals.enumerate.s": ("s", "lower"),
    "ideals.enumerate.calls": ("count", "lower"),
    "ideals.enumerate.hit_ratio": ("ratio", "higher"),
    "ideals.enumerate.family_size": ("count", "lower"),
    "classify.prime_family.s": ("s", "lower"),
    "classify.radicals.s": ("s", "lower"),
    "classify.comparizer_radical.s": ("s", "lower"),
    "localize.comparability.s": ("s", "lower"),
    "localize.comparability.calls": ("count", "lower"),
    "localize.comparability.distinct": ("count", "lower"),
    "segments.prime_segments.s": ("s", "lower"),
    "segments.classify_segment.s": ("s", "lower"),
    "verify.holds": ("count", "higher"),
    "verify.vacuous": ("count", "lower"),
    "verify.discrepancy": ("count", "lower"),
    "verify.vacuous_cap": ("count", "lower"),
    "cli.usage_exit_mismatch": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.children_share": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def per_layer(check_ids) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric, for the given check ids."""
    out = dict(_FIXED_LAYER)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    for cid in check_ids:
        out[f"verify.check.{cid}.s"] = ("s", "lower")
    return out


def check_name(name: str) -> str:
    if not NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


class TooFewSamples(ValueError):
    pass


def percentile(samples, p: float) -> float:
    """The p-th percentile (linear interpolation between closest ranks),
    refused unless at least BEYOND samples lie strictly above it."""
    data = sorted(samples)
    if not data:
        raise TooFewSamples(f"p{p:g} of no samples")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    beyond = sum(1 for x in data if x > value)
    if beyond < BEYOND:
        raise TooFewSamples(f"p{p:g} of {len(data)} samples has {beyond} above it, "
                            f"need {BEYOND}")
    return value


def min_samples(p: float) -> int:
    """Fewest samples for which `percentile(.., p)` can be reported."""
    n = BEYOND
    while n - 1 - math.floor((n - 1) * p / 100.0) < BEYOND:
        n += 1
    return n


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    """The JSON object a run prints last: every metric in `units`, in order."""
    missing = [k for k in units if k not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {check_name(k): {"value": values[k], "unit": units[k]} for k in units}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


_REF_ROWS = tuple(tuple((i * j + i + j) % 24 for j in range(24)) for i in range(24))


def _search_tables(n: int) -> int:
    """Count the tables on n elements that survive a backtracking search
    over the cells which checks, at each cell, the associativity triples
    whose first product is that cell (the package's enumerator does the
    same before its full check)."""
    t = [[-1] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def consistent(i, j):
        v = t[i][j]
        for c in range(n):
            q = t[j][c]
            if q != -1 and -1 != t[v][c] != t[i][q] != -1:
                return False
        for a in range(n):
            p = t[a][i]
            if p != -1 and -1 != t[p][j] != t[a][v] != -1:
                return False
        return True

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        total = 0
        for v in range(n):
            t[i][j] = v
            if consistent(i, j):
                total += fill(k + 1)
        t[i][j] = -1
        return total

    return fill(0)


def reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the package's own: a
    backtracking search over table cells, tuple and set churn, bitmasks
    built from table rows, dictionary updates."""
    acc = _search_tables(3)
    seen = set()
    for i in range(2000):
        t = (i & 255, i >> 3)
        if t not in seen:
            seen.add(t)
    acc += len(seen)
    for a in range(24):
        row = _REF_ROWS[a]
        m = 0
        for b in range(24):
            m |= 1 << row[b]
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
    d: dict[int, int] = {}
    for i in range(3000):
        k = i & 255
        d[k] = d.get(k, 0) + i * 3
    return acc + len(d)


class Speed:
    """The machine's speed during a run, from a fixed reference task timed
    while the benchmark works.

    On a shared host the same work can take 1.6 times as long from one
    10-second window to the next, and CPU time moves with wall time.  So
    each timed piece of work is scaled to a machine on which the reference
    takes `nominal_s`, by the reference times measured inside it or, for
    short work, by the three before and the three after it:
    reported = measured * nominal_s / median(those reference times).

    With `every_s` set, `running()` samples the reference from a SIGALRM
    handler every every_s seconds, inside long calls too; `spent` adds up
    the time the samples took, which `mark`/`piece` take out of the work.
    """

    def __init__(self, reference=reference_work, nominal_s: float = 0.004,
                 every_s: float | None = 0.05, clock=time.perf_counter):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.clock = clock
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self.on_sample = None  # called as on_sample(start, end) after each sample

    def sample(self, *_signal) -> None:
        """Time the reference once."""
        a = self.clock()
        self.reference()
        b = self.clock()
        self.times.append(b)
        self.durations.append(b - a)
        self.spent += b - a
        if self.on_sample is not None:
            self.on_sample(a, b)

    @contextlib.contextmanager
    def running(self):
        """Sample every every_s seconds while the block runs."""
        if self.every_s is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float]:
        return self.clock(), self.spent

    def piece(self, m0, m1) -> tuple[float, float, float]:
        """(start, end, measured seconds less sampling) between two marks."""
        return m0[0], m1[0], (m1[0] - m0[0]) - (m1[1] - m0[1])

    def scale_for(self, start: float, end: float) -> float:
        """Factor that turns the measured time of work done between start and
        end into a reported one."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        near = self.durations[i:j] if j - i >= 3 else self.durations[max(0, i - 3):j + 3]
        return self.nominal_s / statistics.median(near)

    def scale(self) -> float:
        """The factor for the whole run."""
        return self.nominal_s / statistics.median(self.durations)

    def scaled(self, work) -> float:
        """Reported seconds of (start, end, measured seconds) pieces of work."""
        return sum(dur * self.scale_for(a, b) for a, b, dur in work)
