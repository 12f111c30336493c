"""Regenerate perfbench/data/goldens.json from the checkout's own code.

    python3 perfbench/make_goldens.py

Run from the root of a checkout.  It enumerates every monoid with zero of
order 6 once (about 80 s on a 2-core Xeon) and runs the full check suite on
each class, on the large families and on the corpus; the CLI goldens come
from real CLI invocations.  Only rerun it when verdicts are meant to change.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import inputs


def _cli(sg, *args) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "sgideals.cli", *args],
        capture_output=True, text=True, env=inputs.cli_env(sg.src), check=False,
    )
    return proc.returncode, proc.stdout


def _pool(sg, order: int) -> dict:
    leaves = 0
    real = sg.corpus.Semigroup

    def counting(*args, **kw):
        nonlocal leaves
        leaves += 1
        return real(*args, **kw)

    classes = []
    t0 = time.perf_counter()
    sg.corpus.Semigroup = counting
    try:
        sg.corpus.enumerate_monoids_with_zero(order, sink=classes.append)
    finally:
        sg.corpus.Semigroup = real
    print(f"order {order}: {len(classes)} classes from {leaves} leaves "
          f"in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    forms = {s.canonical_form().hex(): inputs.statuses(sg.verify.run_suite(s)) for s in classes}
    return {
        "classes": len(classes),
        "leaves": leaves,
        "digest": inputs.forms_digest(bytes.fromhex(f) for f in forms),
        "statuses": dict(sorted(forms.items())),
    }


def main() -> int:
    sg = inputs.import_sgideals(os.getcwd())
    out: dict = {"check_ids": sg.verify.registered_ids()}
    out["pool5"] = _pool(sg, 5)
    out["pool5"].pop("statuses")
    out["pool6"] = _pool(sg, 6)

    out["families"] = {}
    for name, builder, arg in inputs.FAMILIES:
        s = getattr(sg.corpus, builder)(arg)
        out["families"][name] = {"n": s.n, "statuses": inputs.statuses(sg.verify.run_suite(s))}

    cli: dict = {"corpus": {}, "files": {}}
    for name in sg.corpus.corpus():
        code, text = _cli(sg, "analyze", name, "--json", "--verdicts")
        rep = json.loads(text)
        cli["corpus"][name] = {
            "exit": code, "hash": rep["hash"], "statuses": inputs.status_letters(rep["verdicts"]),
        }
    work = os.path.join(inputs.HERE, ".work")
    os.makedirs(work, exist_ok=True)
    for name, builder, arg in inputs.CLI_FILES:
        rows, one, zero = inputs.family_table(sg, builder, arg)
        path = os.path.join(work, f"golden-{name}.cay")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sg.core.format_cayley(sg.core.Semigroup(rows, one, zero)))
        code, text = _cli(sg, "analyze", path, "--json")
        cli["files"][name] = {"exit": code, "hash": json.loads(text)["hash"], "order": len(rows)}
        os.remove(path)
    code, text = _cli(sg, "verify", "--enumerate", "5", "--json")
    reports = inputs.json_documents(text)
    cli["verify5"] = {"exit": code, "reports": len(reports),
                      "digest": inputs.enumerate_report_digest(reports)}
    code, text = _cli(sg, "corpus", "list")
    cli["corpus_list"] = {"exit": code, "lines": len(text.splitlines())}
    out["cli"] = cli

    with open(inputs.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {inputs.GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
