"""Inputs of the benchmark workloads and the goldens they are checked against.

Every generated input is a seeded random relabeling of a fixed table that
keeps the identity at index 1 and the zero at index 0, so verdict statuses
and canonical hashes must not depend on the seed.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "data", "goldens.json")

# (name, builder name in sgideals.corpus, argument), with the timings of one
# run_suite call on a 2-core Xeon: 3.4, 10.8, 4.2, 1.3 and 1.2 s.
FAMILIES = (
    ("ef30", "build_ef", 30),
    ("min_chain40", "build_min_chain", 40),
    ("chain_x30", "build_chain_x", 30),
    ("delta10", "build_delta", 10),
    ("min_chain10", "build_min_chain", 10),
)

# Cayley files analysed by cli_reports: relabeled ef(12), and the null
# monoid of order 10, whose 8! symmetric labelings make canonical_form slow.
CLI_FILES = (("ef12", "build_ef", 12), ("null10", None, 10))

# The CLI docstring promises exit 2 for every usage error.
USAGE_PROBES = (
    ("enumerate", "7"),
    ("verify", "--enumerate", "1"),
    ("analyze", "ef4", "--cap", "0"),
)

MODULES = ("core", "corpus", "ideals", "classify", "localize", "segments", "verify", "cli")

STATUS_LETTER = {"holds": "h", "vacuous": "v", "discrepancy": "d"}


def import_sgideals(root: str) -> types.SimpleNamespace:
    """Import the package from root/src, never from an installed copy.

    Exits with an error when the checkout holds no source tree.
    """
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "sgideals", "__init__.py")):
        raise SystemExit(f"error: no sgideals package under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("sgideals")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: sgideals was imported from {pkg.__file__}, not {src}")
    mods = {m: importlib.import_module("sgideals." + m) for m in MODULES}
    return types.SimpleNamespace(pkg=pkg, src=src, **mods)


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def null_monoid(n: int) -> list[list[int]]:
    """Table of the monoid with zero in which every non-identity product is 0."""
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = i
        table[i][1] = i
    return table


def family_table(sg, builder: str | None, arg: int):
    """(rows, one, zero) of a named family member, unrelabeled."""
    if builder is None:
        return null_monoid(arg), 1, 0
    s = getattr(sg.corpus, builder)(arg)
    return [list(r) for r in s.rows], s.one, s.zero


def relabel_perm(rng: random.Random, n: int, one: int, zero: int) -> list[int]:
    """A random bijection of range(n) fixing the identity and the zero."""
    rest = [i for i in range(n) if i not in (one, zero)]
    images = rest[:]
    rng.shuffle(images)
    perm = list(range(n))
    for src, dst in zip(rest, images):
        perm[src] = dst
    return perm


def relabel(s, rng: random.Random):
    """A relabeled copy of the Semigroup s (validated by its constructor)."""
    return s.relabel(relabel_perm(rng, s.n, s.one, s.zero))


def statuses(results) -> str:
    """One letter per verdict, in suite order: h(olds), v(acuous), d(iscrepancy)."""
    return "".join(STATUS_LETTER[v.status] for _cid, v in results)


def status_letters(rows) -> str:
    """The same letters from the verdict dictionaries of a CLI JSON report."""
    return "".join(STATUS_LETTER[r["status"]] for r in rows)


def forms_digest(forms) -> str:
    """sha256 over the sorted canonical forms, as hex."""
    h = hashlib.sha256()
    for f in sorted(forms):
        h.update(f)
    return h.hexdigest()


def cli_env(src: str) -> dict:
    """Environment for CLI subprocesses: the checkout's source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def json_documents(text: str) -> list:
    """Every JSON document in a stream of concatenated documents, skipping
    any plain text line that precedes one."""
    dec = json.JSONDecoder()
    out, i = [], 0
    while True:
        j = text.find("{", i)
        if j < 0:
            return out
        doc, i = dec.raw_decode(text, j)
        out.append(doc)


def enumerate_report_digest(reports) -> str:
    """Order-free digest of `verify --enumerate N --json` reports."""
    rows = sorted(f"{r['hash']}:{status_letters(r['results'])}" for r in reports)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
