"""The benchmark's workloads.  Each is a closed loop with one caller in one
process; `run_pass` runs the workload's whole input set once, times it, and
then checks every result against the goldens.

pool6           the order-6 enumerator run until it has emitted
                ENUM_CLASSES classes, then run_suite on each of the 1101
                order-6 classes, relabeled by the seed.
large_families  every check on relabeled ef(30), min_chain(40), chain_x(30),
                delta(10) and min_chain(10).
cli_reports     the sgideals CLI, one subprocess at a time, on the corpus and
                on generated Cayley files.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import inputs
import metrics

# The full order-6 search takes about 70-80 s on a 2-core Xeon, longer than a
# run may last; its first 1000 classes come within about 9 s (11,165
# labelled leaves), the last of the 1101 after about 68 s.
ENUM_ORDER = 6
ENUM_CLASSES = 1000

# Enough operations for the 90th percentile to have ten samples above it.
MIN_SAMPLES = metrics.min_samples(90)


class Recorder:
    """What the timed passes of one run delivered.

    Work is recorded as (start, end, measured seconds) triples; `speed`
    samples the machine's speed between operations, outside them.
    """

    def __init__(self, speed: metrics.Speed):
        self.speed = speed
        self.latency: list[tuple] = []  # one per operation
        self.verdict_work: list[tuple] = []  # the work that delivered verdicts
        self.enum_work: list[tuple] = []  # pool6's enumeration phases
        self.verdicts = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.tally = {"holds": 0, "vacuous": 0, "discrepancy": 0, "vacuous_cap": 0}
        self.classes = 0

    def op(self, m0, m1, work: list) -> None:
        """One operation timed between two `speed.mark()`s, part of the pass
        `work`."""
        piece = self.speed.piece(m0, m1)
        self.latency.append(piece)
        self.verdict_work.append(piece)
        work.append(piece)

    def check(self, ok: bool, what: str) -> None:
        """One operation attempted; `what` names it when its result is wrong."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def count_verdict(self, status: str, note) -> None:
        self.verdicts += 1
        self.tally[status] += 1
        if status == "vacuous" and note == "cap":
            self.tally["vacuous_cap"] += 1

    @property
    def failed(self) -> int:
        return len(self.failures)


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class _Enough(Exception):
    """Raised by the enumeration sink to end the search."""


class Workload:
    name = ""

    def __init__(self, sg, goldens: dict, root: str):
        self.sg = sg
        self.goldens = goldens
        self.root = root
        self.check_ids = goldens["check_ids"]
        self.roots: list[int] = []  # root spans of the traced passes
        self.counts: dict[str, int] = {}  # work counters from child processes

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def timed(self, rec: Recorder, tracer) -> tuple[list, object]:
        """Run the input set once; returns (work, results to check), where
        work lists the pass's timed pieces as (start, end, seconds)."""
        raise NotImplementedError

    def check_pass(self, rec: Recorder, results) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder, tracer=None) -> list:
        with span(tracer, f"bench.{self.name}") as root:
            work, results = self.timed(rec, tracer)
        if tracer is not None:
            self.roots.append(root)
        self.check_pass(rec, results)
        return work

    def finish(self, rec: Recorder) -> None:
        """Checks made once per run, after the passes."""

    def speed(self) -> metrics.Speed:
        """The speed reference of this workload: pure-Python work in process,
        sampled on a timer."""
        return metrics.Speed()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pool6(Workload):
    name = "pool6"

    def setup(self, seed: int) -> None:
        core = self.sg.core
        rng = random.Random(seed)
        golden = self.goldens["pool6"]["statuses"]
        self.inputs = [(inputs.relabel(core.decode_canonical(bytes.fromhex(f)), rng), f)
                       for f in sorted(golden)]
        rng.shuffle(self.inputs)

    def timed(self, rec: Recorder, tracer):
        got = []

        def sink(s):
            got.append(s)
            if len(got) >= ENUM_CLASSES:
                raise _Enough

        Semigroup = self.sg.core.Semigroup
        run_suite = self.sg.verify.run_suite
        mark = rec.speed.mark
        suites = []
        m0 = mark()
        with span(tracer, "bench.pool6.enumerate"):
            try:
                self.sg.corpus.enumerate_monoids_with_zero(ENUM_ORDER, sink=sink)
            except _Enough:
                pass
        enum = rec.speed.piece(m0, mark())
        rec.enum_work.append(enum)
        work = [enum]
        with span(tracer, "bench.pool6.sweep"):
            for s, form in self.inputs:
                m0 = mark()
                suites.append((form, run_suite(Semigroup(s.rows, s.one, s.zero))))
                rec.op(m0, mark(), work)
        rec.classes += len(got)
        return work, (got, suites)

    def check_pass(self, rec: Recorder, results) -> None:
        got, suites = results
        golden = self.goldens["pool6"]["statuses"]
        forms = {s.canonical_form().hex() for s in got}
        rec.check(len(got) == ENUM_CLASSES and len(forms) == len(got)
                  and all(f in golden for f in forms),
                  f"enumeration: {len(got)} tables, {len(forms)} distinct, "
                  f"{len(forms - set(golden))} unknown")
        for form, suite in suites:
            letters = ""
            for _cid, v in suite:
                rec.count_verdict(v.status, v.note)
                letters += inputs.STATUS_LETTER[v.status]
            want = golden[form]
            rec.check(letters == want and "d" not in letters,
                      f"pool6 {form}: statuses {letters} != {want}")

    def finish(self, rec: Recorder) -> None:
        g = self.goldens["pool6"]
        forms = [s.canonical_form() for s, _form in self.inputs]
        digest = inputs.forms_digest(forms)
        rec.check(len(set(forms)) == g["classes"] and digest == g["digest"],
                  f"pool6 inputs: {len(set(forms))} classes, digest {digest}")


class LargeFamilies(Workload):
    name = "large_families"

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.inputs = [(name, inputs.relabel(getattr(self.sg.corpus, builder)(arg), rng))
                       for name, builder, arg in inputs.FAMILIES]

    def timed(self, rec: Recorder, tracer):
        Semigroup = self.sg.core.Semigroup
        run_check = self.sg.verify.run_check
        mark = rec.speed.mark
        out = []
        work = []
        for name, s in self.inputs:
            m0 = mark()
            fresh = Semigroup(s.rows, s.one, s.zero)
            work.append(rec.speed.piece(m0, mark()))
            verdicts = []
            for cid in self.check_ids:
                m0 = mark()
                verdicts.append(run_check(fresh, cid))
                rec.op(m0, mark(), work)
            out.append((name, verdicts))
        return work, out

    def check_pass(self, rec: Recorder, results) -> None:
        for name, verdicts in results:
            want = self.goldens["families"][name]["statuses"]
            for cid, v, letter in zip(self.check_ids, verdicts, want):
                rec.count_verdict(v.status, v.note)
                got = inputs.STATUS_LETTER[v.status]
                rec.check(got == letter != "d", f"{name} {cid}: {v.status}, want {letter}")


class CliReports(Workload):
    name = "cli_reports"

    def __init__(self, sg, goldens: dict, root: str):
        super().__init__(sg, goldens, root)
        self.work = os.path.join(inputs.HERE, ".work")
        self.child_spans = os.path.join(self.work, "child-spans.json")
        self.env = inputs.cli_env(sg.src)

    def setup(self, seed: int) -> None:
        core = self.sg.core
        rng = random.Random(seed)
        os.makedirs(self.work, exist_ok=True)
        gold = self.goldens["cli"]
        calls = [(("analyze", name, "--json", "--verdicts"), self._analyze_corpus(name))
                 for name in sorted(gold["corpus"])]
        for name, builder, arg in inputs.CLI_FILES:
            rows, one, zero = inputs.family_table(self.sg, builder, arg)
            path = os.path.join(self.work, f"{name}.cay")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(core.format_cayley(inputs.relabel(core.Semigroup(rows, one, zero), rng)))
            calls.append((("analyze", path, "--json"), self._analyze_file(name)))
            calls.append((("validate", path), self._validate(len(rows))))
        # the null monoid is analysed twice per pass: with the 16 invocations
        # below, the 90th percentile then falls inside its group
        calls.append(calls[-2])
        calls += [
            (("verify", "--enumerate", "5", "--json"), self._verify5),
            (("corpus", "list"), self._corpus_list),
            (("checks",), self._checks),
            (("corpus", "dump", "ef4"), self._dump("ef4")),
            (("corpus", "dump", "min_chain4"), self._dump("min_chain4")),
        ]
        self.calls = calls

    def speed(self) -> metrics.Speed:
        """CLI latency follows the time to start a bare interpreter far more
        closely than in-process work: that start, timed after each
        invocation."""
        return metrics.Speed(lambda: interpreter_start(self.sg, self.root),
                             nominal_s=START_NOMINAL_S, every_s=None)

    def command(self, argv, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, os.path.join(inputs.HERE, "cli_shim.py"),
                    self.child_spans, *argv]
        return [sys.executable, "-m", "sgideals.cli", *argv]

    def timed(self, rec: Recorder, tracer):
        out = []
        work = []
        rec.speed.sample()
        for argv, checker in self.calls:
            cmd = self.command(argv, tracer is not None)
            with span(tracer, "process.cli") as proc_span:
                m0 = rec.speed.mark()
                proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                      cwd=self.root, check=False)
                m1 = rec.speed.mark()
            rec.op(m0, m1, work)
            if tracer is not None:
                self._adopt(tracer, proc_span)
            out.append((argv, checker, proc))
            rec.speed.sample()
        return work, out

    def _adopt(self, tracer, parent: int) -> None:
        with open(self.child_spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(self.child_spans)
        tracer.adopt(doc["names"], doc["spans"], parent)
        for k, v in doc["counters"].items():
            self.counts[k] = self.counts.get(k, 0) + v

    def check_pass(self, rec: Recorder, results) -> None:
        for argv, checker, proc in results:
            try:
                ok = proc.returncode == 0 and checker(rec, proc.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                proc.stderr += f"\nunreadable output: {exc!r}"
            rec.check(ok, f"sgideals {' '.join(argv)}: exit {proc.returncode} "
                          f"{proc.stderr.strip()[-200:]}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- output checks: each returns True when stdout matches the goldens ----

    def _count(self, rec: Recorder, rows) -> str:
        for r in rows:
            rec.count_verdict(r["status"], r.get("note"))
        return inputs.status_letters(rows)

    def _analyze_corpus(self, name):
        want = self.goldens["cli"]["corpus"][name]

        def check(rec, out):
            rep = json.loads(out)
            got = self._count(rec, rep["verdicts"])
            return rep["schema"] == 1 and rep["hash"] == want["hash"] and got == want["statuses"]
        return check

    def _analyze_file(self, name):
        want = self.goldens["cli"]["files"][name]

        def check(rec, out):
            rep = json.loads(out)
            return (rep["schema"] == 1 and rep["hash"] == want["hash"]
                    and rep["order"] == want["order"])
        return check

    def _validate(self, order: int):
        return lambda rec, out: out.startswith(f"valid: order {order},")

    def _verify5(self, rec, out) -> bool:
        want = self.goldens["cli"]["verify5"]
        reports = inputs.json_documents(out)
        for r in reports:
            self._count(rec, r["results"])
        rec.classes += len(reports)
        return (len(reports) == want["reports"]
                and all(r["schema"] == 1 for r in reports)
                and inputs.enumerate_report_digest(reports) == want["digest"])

    def _corpus_list(self, rec, out) -> bool:
        return len(out.splitlines()) == self.goldens["cli"]["corpus_list"]["lines"]

    def _checks(self, rec, out) -> bool:
        return out.split() == self.check_ids

    def _dump(self, name: str):
        want = self.sg.corpus.corpus_entry(name).semigroup

        def check(rec, out):
            return self.sg.core.parse_cayley(out) == want
        return check


IMPORT_PROBE = ("import sys, time\n"
                "a = time.perf_counter()\n"
                "import sgideals.cli\n"
                "print(time.perf_counter() - a)")

# Reported time of `python3 -c pass`, the speed reference of work done in
# child processes.
START_NOMINAL_S = 0.04


def interpreter_start(sg, root: str) -> float:
    """Seconds to start and stop a bare interpreter."""
    a = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=inputs.cli_env(sg.src), cwd=root,
                   check=True)
    return time.perf_counter() - a


def import_seconds(sg, root: str) -> float:
    """Time to import the package and its CLI in a fresh interpreter, scaled
    by the median of three bare interpreter starts taken just before."""
    start = statistics.median(interpreter_start(sg, root) for _ in range(3))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=inputs.cli_env(sg.src), cwd=root, check=True)
    return float(proc.stdout) * START_NOMINAL_S / start


def usage_exit_mismatch(sg, root: str) -> int:
    """How many documented usage errors do not exit with code 2."""
    bad = 0
    for argv in inputs.USAGE_PROBES:
        proc = subprocess.run([sys.executable, "-m", "sgideals.cli", *argv], capture_output=True,
                              env=inputs.cli_env(sg.src), cwd=root, check=False)
        bad += proc.returncode != 2
    return bad


WORKLOADS = {w.name: w for w in (Pool6, LargeFamilies, CliReports)}
