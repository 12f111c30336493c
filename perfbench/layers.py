"""Per-layer numbers of a traced run: work counters fed by the tracer's
observers, and self times aggregated over the spans under the root spans."""
from __future__ import annotations

import statistics

import metrics
import spans

COUNTERS = ("ideal_calls", "ideal_hits", "family_total", "family_count",
            "comparability_calls", "comparability_distinct")


class Observers:
    """Work counters measured where the work happens.

    A call of enumerate_ideals is a hit when it returns the very object an
    earlier call with the same (semigroup, kind, cap) returned, i.e. a memo
    hit; a miss computed a new family, whose size is recorded.
    is_right_p_comparable calls are counted against the distinct
    (semigroup, P) pairs they were asked about.  Semigroups are held for the
    observers' lifetime, so their ids stay unique.
    """

    def __init__(self):
        self.count = dict.fromkeys(COUNTERS, 0)
        self._families: dict[int, tuple[object, dict]] = {}
        self._pairs: dict[int, tuple[object, set]] = {}

    def enumerate_ideals(self, args, kwargs, out) -> None:
        s, key = args[0], args[1:] + tuple(sorted(kwargs.items()))
        memo = self._families.setdefault(id(s), (s, {}))[1]
        self.count["ideal_calls"] += 1
        if memo.get(key) is out:
            self.count["ideal_hits"] += 1
            return
        memo[key] = out
        self.count["family_total"] += len(out)
        self.count["family_count"] += 1

    def comparability(self, args, kwargs, out) -> None:
        s, p = args[0], args[1] if len(args) > 1 else kwargs["p_mask"]
        seen = self._pairs.setdefault(id(s), (s, set()))[1]
        self.count["comparability_calls"] += 1
        if p not in seen:
            seen.add(p)
            self.count["comparability_distinct"] += 1

    def callbacks(self) -> dict:
        return {
            "ideals.enumerate_ideals": self.enumerate_ideals,
            "localize.is_right_p_comparable": self.comparability,
        }

    def merge(self, counts: dict) -> None:
        """Add the counters another process recorded."""
        for k in COUNTERS:
            self.count[k] += counts.get(k, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: spans.Tracer, roots, counts: dict, check_ids, pauses=()) -> dict:
    """Per-layer values over the spans under `roots` (the timed passes);
    `pauses` as for `spans.aggregate`."""
    agg = spans.aggregate(tracer, roots, pauses)
    root_wall = sum(tracer.end[r] - tracer.start[r] for r in roots)
    children_self = sum(row["self_s"] for name, row in agg.items()
                        if not name.startswith("bench."))

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    out = {
        "core.canonical.s": self_s("core.canonical_form"),
        "core.canonical.calls": calls("core.canonical_form"),
        "core.validate.s": self_s("core.Semigroup"),
        "core.validate.calls": calls("core.Semigroup"),
        "ideals.enumerate.s": self_s("ideals.enumerate_ideals"),
        "ideals.enumerate.calls": calls("ideals.enumerate_ideals"),
        "ideals.enumerate.hit_ratio": _ratio(counts["ideal_hits"], counts["ideal_calls"]),
        "ideals.enumerate.family_size": _ratio(counts["family_total"], counts["family_count"]),
        "classify.prime_family.s": self_s("classify.prime_family"),
        "classify.radicals.s": self_s("classify.radicals"),
        "classify.comparizer_radical.s": self_s("classify.comparizer_radical"),
        "localize.comparability.s": self_s("localize.is_right_p_comparable"),
        "localize.comparability.calls": counts["comparability_calls"],
        "localize.comparability.distinct": counts["comparability_distinct"],
        "segments.prime_segments.s": self_s("segments.prime_segments"),
        "segments.classify_segment.s": self_s("segments.classify_segment"),
        "corpus.enumerate.self_s": self_s("corpus.enumerate_monoids_with_zero"),
        "trace.children_share": _ratio(children_self, root_wall),
        "trace.spans": sum(row["calls"] for name, row in agg.items() if name != spans.PAUSE),
    }
    for cid in check_ids:
        out[f"verify.check.{cid}.s"] = self_s(f"verify.check.{cid}")
    for layer in metrics.SELF_LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in agg.items()
                                     if name.split(".", 1)[0] == layer)
    return out


def children_named(tracer: spans.Tracer, roots, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans whose parent is a `parent_name` span,
    under the given roots."""
    names = tracer.names
    total = 0
    for root in roots:
        for i in spans.subtree(tracer, root):
            p = tracer.parent[i]
            if (p != spans.ROOT and names[tracer.name[i]] == child_name
                    and names[tracer.name[p]] == parent_name):
                total += 1
    return total


def median_span(tracer: spans.Tracer, roots, name: str) -> float:
    """Median duration of the spans called `name` under the roots."""
    durations = [tracer.end[i] - tracer.start[i]
                 for root in roots for i in spans.subtree(tracer, root)
                 if tracer.names[tracer.name[i]] == name]
    return statistics.median(durations) if durations else 0.0
