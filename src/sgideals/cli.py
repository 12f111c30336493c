"""Command line front end.

Subcommands: validate, analyze, verify, enumerate, corpus (list | dump).
Exit codes: 0 success (holds or vacuous throughout), 1 at least one
discrepancy, 2 input, usage or output error.  JSON output is the source of
truth; the text renderings are projections of the same dictionaries.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    CayleyFormatError,
    Semigroup,
    SemigroupError,
    format_cayley,
    parse_cayley,
)
# enumerate_ideals stays bound: perfbench's tracer test wraps cli's binding
from .ideals import DEFAULT_CAP, CapExceeded, IdealKind, enumerate_ideals  # noqa: F401

# Every other module is imported by the commands that call it, so a command
# compiles and loads only what it runs.

SCHEMA_VERSION = 1

# The names `corpus.corpus()` registers, so that a target is told from a path
# without loading the corpus; a test pins this tuple to the registry.
CORPUS_NAMES = ("min2", "chain_x4", "ef4", "min_chain3", "min_chain4", "delta3")


class SystemExit2(Exception):
    """Input errors mapped to exit code 2."""


def _read_text(path: str) -> str:
    """The file's text, less a leading byte-order mark; an unreadable or
    undecodable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")


def _load_target(target: str):
    """Corpus names resolve before paths; returns (name, Semigroup, entry|None)."""
    if target in CORPUS_NAMES:
        from .corpus import corpus

        entry = corpus()[target]
        return target, entry.semigroup, entry
    text = _read_text(target)
    try:
        return target, parse_cayley(text), None
    except SemigroupError as exc:
        raise SystemExit2(f"invalid table in {target}: {exc}")


def _hash(s: Semigroup) -> str:
    import hashlib

    return hashlib.sha256(s.canonical_form()).hexdigest()[:16]


def cmd_validate(args) -> int:
    try:
        s = parse_cayley(_read_text(args.path))
    except CayleyFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SemigroupError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"valid: order {s.n}, one {s.one}, zero {s.zero}")
    return 0


def analysis_report(name: str, s: Semigroup, entry, cap: int) -> dict:
    from .classify import PrimenessKind, prime_family, radicals
    from .localize import is_right_p_comparable
    from .segments import classify_segment, prime_segments

    rad = radicals(s, cap)
    comp = [
        is_right_p_comparable(s, p).to_dict()
        for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap)
    ]
    segs = []
    for seg in prime_segments(s, cap):
        cls = classify_segment(s, seg, cap).to_dict()
        row = seg.to_dict()
        row["class"] = cls["label"]
        row["branches"] = cls["branches"]
        row["overlap"] = cls["overlap"]
        row["witnesses"] = cls["witnesses"]
        segs.append(row)
    report = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "order": s.n,
        "one": s.one,
        "zero": s.zero,
        "hash": _hash(s),
        "radicals": rad.to_dict(),
        "comparability": comp,
        "segments": segs,
        "notes": list(entry.notes) if entry else [],
    }
    if entry:
        report["element_names"] = list(entry.element_names)
    return report


def _render_set(indices, names):
    if names:
        return "{" + ", ".join(names[i] for i in indices) + "}"
    return "{" + ", ".join(str(i) for i in indices) + "}"


def _print_analysis(report: dict) -> None:
    names = report.get("element_names")
    print(f"{report['name']}: order {report['order']}, "
          f"one {report['one']}, zero {report['zero']}, hash {report['hash']}")
    print("radicals:")
    for key, val in report["radicals"].items():
        if key == "flags":
            continue
        print(f"  {key:28s} {_render_set(val, names)}")
    print("comparability:")
    for row in report["comparability"]:
        conds = " ".join(f"{k}={'y' if v else 'n'}" for k, v in row["conditions"].items())
        print(f"  P={_render_set(row['p'], names)} holds={row['holds']} "
              f"weak={row['weak_holds']} {conds}")
    print("segments:")
    for row in report["segments"]:
        lo = "empty" if row["bottom"] else _render_set(row["lower"], names)
        print(f"  {lo} < {_render_set(row['upper'], names)}  class={row['class']}"
              + ("  (overlapping branches)" if row["overlap"] else ""))
    for note in report["notes"]:
        print(f"note: {note}")


def cmd_analyze(args) -> int:
    name, s, entry = _load_target(args.target)
    try:
        report = analysis_report(name, s, entry, args.cap)
        if args.verdicts:
            report["verdicts"] = verdict_report(name, s, args.cap, None)["results"]
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    worst = [r for r in report.get("verdicts", ()) if r["status"] == "discrepancy"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_analysis(report)
        if args.verdicts:
            print(f"verdicts: {len(report['verdicts'])} checks, "
                  f"{len(worst)} discrepancies")
    return 1 if worst else 0


def verdict_report(name: str, s: Semigroup, cap: int, only: str | None) -> dict:
    from .verify import CHECKS, normalize_id, run_check, run_suite

    if only is not None:
        # run first: an unknown id raises UnknownCheck before the lookup
        verdict = run_check(s, only, cap)
        results = [(CHECKS[normalize_id(only)].id, verdict)]
    else:
        results = run_suite(s, cap)
    return {
        "schema": SCHEMA_VERSION,
        "semigroup": name,
        "hash": _hash(s),
        "results": [
            {"id": cid, **v.to_dict()} for cid, v in results
        ],
    }


def _print_verdicts(report: dict) -> None:
    print(f"{report['semigroup']} (hash {report['hash']})")
    for row in report["results"]:
        line = f"  {row['id']:12s} {row['status']}"
        if row["status"] == "vacuous":
            failed = [n for n, ok in row["hypothesis_trace"] if not ok]
            line += f"  (fails: {', '.join(failed)})"
        if row["status"] == "discrepancy":
            line += f"  witness={row['witness']}"
        if row["status"] == "holds" and row.get("note"):
            line += f"  note: {row['note']}"
        print(line)


def cmd_verify(args) -> int:
    from .verify import UnknownCheck

    if args.enumerate is not None:
        from .corpus import all_monoids_with_zero

        pool = all_monoids_with_zero(args.enumerate)
        targets = [(f"order{s.n}#{i}", s, None) for i, s in enumerate(pool)]
        print(f"enumerated {len(pool)} monoids with zero of order {args.enumerate}")
    else:
        targets = [_load_target(args.target)]
    worst = 0
    for name, s, _entry in targets:
        try:
            report = verdict_report(name, s, args.cap, args.check)
        except UnknownCheck as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_verdicts(report)
        if any(r["status"] == "discrepancy" for r in report["results"]):
            worst = 1
    return worst


def cmd_enumerate(args) -> int:
    from .corpus import enumerate_monoids_with_zero

    try:
        out = open(args.ndjson, "w", encoding="utf-8") if args.ndjson else None
    except OSError as exc:
        print(f"error: cannot write {args.ndjson}: {exc}", file=sys.stderr)
        return 2

    def sink(s: Semigroup):
        if out is not None:
            out.write(json.dumps({
                "n": s.n,
                "one": s.one,
                "zero": s.zero,
                "table": [list(r) for r in s.rows],
                "canonical": s.canonical_form().hex(),
            }) + "\n")

    try:
        count = enumerate_monoids_with_zero(args.order, sink=sink)
    finally:
        if out is not None:
            out.close()
    print(count)
    return 0


def cmd_corpus(args) -> int:
    from .corpus import corpus, corpus_entry

    if args.action == "list":
        for name, entry in corpus().items():
            print(f"{name:12s} order {entry.semigroup.n:2d}  "
                  f"elements: {', '.join(entry.element_names)}")
        return 0
    try:
        entry = corpus_entry(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    header = f"{entry.name}: " + ", ".join(
        f"{i}={w}" for i, w in enumerate(entry.element_names)
    )
    sys.stdout.write(format_cayley(entry.semigroup, header=header))
    return 0


def cmd_checks(args) -> int:
    from .verify import registered_ids

    print("\n".join(registered_ids()))
    return 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _order(text: str) -> int:
    """argparse type: an order the enumerator accepts."""
    from .corpus import MAX_ENUM_ORDER

    n = _int(text)
    if not 2 <= n <= MAX_ENUM_ORDER:
        raise argparse.ArgumentTypeError(
            f"order must be between 2 and {MAX_ENUM_ORDER}, got {n}")
    return n


def _cap(text: str) -> int:
    """argparse type: a positive ideal enumeration cap."""
    cap = _int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"cap must be positive, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgideals",
        description="ideal structure and property checks for finite monoids with zero",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a Cayley table file")
    v.add_argument("path")
    v.set_defaults(fn=cmd_validate)

    a = sub.add_parser("analyze", help="radicals, comparability and segments")
    a.add_argument("target", help="corpus name or Cayley table path")
    a.add_argument("--json", action="store_true")
    a.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    a.add_argument("--verdicts", action="store_true",
                   help="embed the full check-suite results in the report")
    a.set_defaults(fn=cmd_analyze)

    w = sub.add_parser("verify", help="run the registered property checks")
    what = w.add_mutually_exclusive_group(required=True)
    what.add_argument("target", nargs="?", help="corpus name or Cayley table path")
    what.add_argument("--enumerate", type=_order, metavar="N",
                      help="run the suite over every monoid with zero of order N")
    w.add_argument("--check", help="run a single check id, e.g. Thm4.8")
    w.add_argument("--json", action="store_true")
    w.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    w.set_defaults(fn=cmd_verify)

    e = sub.add_parser("enumerate", help="count monoids with zero of one order")
    e.add_argument("order", type=_order)
    e.add_argument("--ndjson", help="stream each semigroup as one JSON line")
    e.set_defaults(fn=cmd_enumerate)

    c = sub.add_parser("corpus", help="list or dump built-in examples")
    actions = c.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="name, order and elements of every entry")
    actions.add_parser("dump", help="one entry in Cayley text format").add_argument("name")
    c.set_defaults(fn=cmd_corpus)

    lc = sub.add_parser("checks", help="list registered check ids")
    lc.set_defaults(fn=cmd_checks)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args) or 0
        sys.stdout.flush()
        return code
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write to stdout or to the --ndjson file failed
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself: send what it holds nowhere, or the exit flush raises
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
