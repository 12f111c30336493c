"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SG = inputs.import_sgideals(REPO)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# -- self time -----------------------------------------------------------------


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    tr = spans.Tracer(clock=fake_clock([0, 1, 4, 5, 6, 8, 9, 10]))
    a = tr.begin("a")
    b = tr.begin("b")
    tr.finish(b)
    c = tr.begin("c")
    d = tr.begin("d")
    tr.finish(d)
    tr.finish(c)
    tr.finish(a)
    own = spans.self_times(tr)
    assert list(own) == [10 - 3 - 4, 3, 4 - 2, 2]
    assert sum(own) == 10  # self times partition the root's duration
    assert list(tr.parent) == [spans.ROOT, a, a, c]
    assert list(spans.subtree(tr, c)) == [c, d]


def test_aggregate_sums_self_time_per_name_under_roots():
    # two roots r [0, 10] and r [20, 30], each holding one x span of 2 s;
    # y [12, 13] lies outside both roots and must not count
    tr = spans.Tracer(clock=fake_clock([0, 1, 3, 10, 12, 13, 20, 25, 27, 30]))
    roots = []
    for _ in range(2):
        with tr.span("r") as r:
            with tr.span("x"):
                pass
        roots.append(r)
        if len(roots) == 1:
            with tr.span("y"):
                pass
    agg = spans.aggregate(tr, roots)
    assert agg == {"r": {"calls": 2, "self_s": 16.0}, "x": {"calls": 2, "self_s": 4.0}}


def test_recursive_spans_keep_self_time_additive():
    tr = spans.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 10]))
    with tr.span("f"):
        with tr.span("f"):
            with tr.span("f"):
                pass
            pass
    # outer f [0, 10], middle [1, 4], inner [2, 3]
    agg = spans.aggregate(tr, [0])
    assert agg["f"] == {"calls": 3, "self_s": 10.0}


def test_pauses_move_time_to_the_reference_row():
    # r [0, 10] holds x [2, 8]; a pause [3, 4] while x is open, and one
    # [8.5, 9] recorded as if x were still open (it had just closed)
    tr = spans.Tracer(clock=fake_clock([0, 2, 8, 10]))
    with tr.span("r") as r:
        with tr.span("x") as x:
            pass
    agg = spans.aggregate(tr, [r], [(3.0, 4.0, x), (8.5, 9.0, x)])
    assert agg["x"]["self_s"] == 5.0
    assert agg["r"]["self_s"] == 3.5
    assert agg[spans.PAUSE]["self_s"] == 1.5
    assert sum(row["self_s"] for row in agg.values()) == 10.0


def test_adopted_spans_hang_under_the_parent():
    tr = spans.Tracer(clock=fake_clock([0, 10]))
    with tr.span("process.cli") as p:
        pass
    tr.adopt(["cli.import", "cli.main"], [(0, 1.0, 3.0, -1), (1, 3.0, 9.0, -1), (0, 4.0, 5.0, 1)], p)
    assert list(tr.parent) == [spans.ROOT, p, p, p + 2]
    assert list(spans.self_times(tr)) == [10 - 2 - 6, 2, 6 - 1, 1]


def test_finish_out_of_order_is_refused():
    tr = spans.Tracer(clock=fake_clock(range(10)))
    a = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.finish(a)


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize("p", [50, 90, 99])
def test_percentile_needs_ten_samples_beyond(p):
    n = metrics.min_samples(p)
    data = list(range(n))
    value = metrics.percentile(data, p)
    assert sum(1 for x in data if x > value) >= metrics.BEYOND
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(data[:-1], p)


def test_percentile_counts_ties_as_not_beyond():
    # 95 equal samples and 5 larger ones: the 90th percentile is the tied
    # value and only 5 samples lie above it
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile([1.0] * 95 + [2.0] * 5, 90)
    assert metrics.percentile([1.0] * 80 + [2.0] * 20, 50) == 1.0


def test_min_samples_values():
    assert metrics.min_samples(50) == 20
    assert metrics.min_samples(90) == 92
    assert workloads.MIN_SAMPLES == metrics.min_samples(90)


# -- metric names ---------------------------------------------------------------


def test_metric_names_have_the_allowed_syntax():
    names = list(metrics.END_TO_END) + list(metrics.per_layer(SG.verify.registered_ids()))
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.check_name(name) == name


@pytest.mark.parametrize("bad", ["", "has space", "a/b", "_lead", ".lead", "x" * 65, "é"])
def test_bad_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        metrics.check_name(bad)


def test_result_line_refuses_a_missing_metric():
    with pytest.raises(KeyError):
        metrics.result_line(True, 1, 0, {"a": 1.0}, {"a": "s", "b": "s"})
    line = json.loads(metrics.result_line(True, 3, 0, {"a": 1.5}, {"a": "s"}))
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"a": {"value": 1.5, "unit": "s"}}}


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layer == metrics.per_layer(inputs.load_goldens()["check_ids"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_covers_every_layer_metric():
    import fnmatch

    with open(os.path.join(BENCH, "baseline.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["layer_map"]
    patterns = [p for row in layer_map for p in row["metrics"]]
    for name in metrics.per_layer(inputs.load_goldens()["check_ids"]):
        assert any(fnmatch.fnmatchcase(name, p) for p in patterns), name
    for row in layer_map:
        for metric, workload in row["moves"] + row.get("unmoved", []):
            assert metric in metrics.END_TO_END and workload in workloads.WORKLOADS


# -- wrappers ---------------------------------------------------------------------


def test_install_wraps_the_bindings_other_modules_import():
    original = SG.ideals.enumerate_ideals
    tr = spans.Tracer()
    tr.install(SG, inputs.MODULES)
    try:
        for holder in (SG.ideals, SG.verify, SG.classify, SG.segments, SG.cli, SG.pkg):
            assert holder.enumerate_ideals is not original
        assert SG.core.mask_elems is SG.verify.mask_elems  # bitmask helpers stay bare
        s = SG.corpus.build_min_chain(3)
        SG.verify.run_check(s, "Lem2.1.ii")
    finally:
        tr.uninstall()
    assert SG.verify.enumerate_ideals is original
    names = [tr.names[i] for i in tr.name]
    assert "verify.check.Lem2.1.ii" in names
    assert "ideals.enumerate_ideals" in names
    assert "core.Semigroup" in names


def test_observers_count_memo_hits_and_distinct_pairs():
    obs = layers.Observers()
    tr = spans.Tracer()
    tr.install(SG, inputs.MODULES, obs.callbacks())
    try:
        s = SG.corpus.build_ef(4)
        kind = SG.ideals.IdealKind.RIGHT
        SG.ideals.enumerate_ideals(s, kind, 100)
        SG.ideals.enumerate_ideals(s, kind, 100)
        SG.ideals.enumerate_ideals(s, kind, 1000)
        p = SG.core.mask_of([0, 5, 6, 7, 8])
        SG.localize.is_right_p_comparable(s, p)
        SG.localize.is_right_p_comparable(s, p)
    finally:
        tr.uninstall()
    assert obs.count["ideal_calls"] == 3
    assert obs.count["ideal_hits"] == 1
    assert obs.count["family_count"] == 2
    assert obs.count["comparability_calls"] == 2
    assert obs.count["comparability_distinct"] == 1


def test_traced_large_families_reaches_ideals_under_verify():
    goldens = inputs.load_goldens()
    wl = workloads.LargeFamilies(SG, goldens, REPO)
    wl.setup(1)
    wl.inputs = [x for x in wl.inputs if x[0] in ("delta10", "min_chain10")]
    rec = workloads.Recorder(metrics.Speed())
    tr = spans.Tracer()
    obs = layers.Observers()
    tr.install(SG, inputs.MODULES, obs.callbacks())
    try:
        wl.run_pass(rec, tr)
    finally:
        tr.uninstall()
    assert rec.failed == 0 and rec.attempted == 2 * len(goldens["check_ids"])
    values = layers.layer_metrics(tr, wl.roots, obs.count, wl.check_ids)
    assert values["ideals.enumerate.calls"] > 0
    assert values["verify.check.Lem3.1.s"] > 0
    assert values["core.canonical.calls"] == 0  # this workload bypasses canonical_form
    # every enumerate_ideals span descends from a check span
    names = tr.names
    for i in spans.subtree(tr, wl.roots[0]):
        if names[tr.name[i]] == "ideals.enumerate_ideals":
            p = tr.parent[i]
            while p != spans.ROOT and not names[tr.name[p]].startswith("verify.check."):
                p = tr.parent[p]
            assert p != spans.ROOT
    # the children's self times account for the traced wall time
    total = sum(values[f"{layer}.self_s"] for layer in metrics.SELF_LAYERS)
    root = wl.roots[0]
    assert total == pytest.approx(tr.end[root] - tr.start[root], rel=1e-9)
    assert 0.5 < values["trace.children_share"] <= 1.0


# -- the command ------------------------------------------------------------------


def test_run_without_a_source_tree_fails_without_a_result():
    work = os.path.join(BENCH, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pool6", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no sgideals package" in proc.stderr


def test_relabel_perm_fixes_identity_and_zero():
    import random

    rng = random.Random(7)
    for n in range(2, 9):
        perm = inputs.relabel_perm(rng, n, one=1, zero=0)
        assert perm[0] == 0 and perm[1] == 1
        assert sorted(perm) == list(range(n))
    seen = {tuple(inputs.relabel_perm(random.Random(seed), 6, 1, 0)) for seed in range(20)}
    assert len(seen) > 1
