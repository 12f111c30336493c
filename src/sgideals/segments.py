"""Completely prime spectrum, prime segments, and their classification."""
from __future__ import annotations

from typing import NamedTuple

from .core import Mask, Semigroup, is_subset, mask_contains, mask_elems, memoized
from .classify import (
    PrimenessKind,
    exceptional_primes,
    is_waist,
    prime_family,
)
from .ideals import (
    DEFAULT_CAP,
    IdealKind,
    enumerate_ideals,
    intersect_powers,
)

ARCHIMEDEAN = "archimedean"
SIMPLE = "simple"
EXCEPTIONAL = "exceptional"
NONE = "none"


class PrimeSegment(NamedTuple):
    """A covering pair of the completely prime spectrum.

    lower == 0 with bottom=True marks the segment below a minimal completely
    prime ideal; classification then measures from the zero ideal {0}.
    """

    lower: Mask
    upper: Mask
    bottom: bool = False

    def to_dict(self) -> dict:
        return {
            "lower": mask_elems(self.lower),
            "upper": mask_elems(self.upper),
            "bottom": self.bottom,
        }


class SegmentClass(NamedTuple):
    label: str
    branches: dict
    q: Mask | None
    witnesses: dict
    overlap: bool

    def to_dict(self) -> dict:
        witnesses = {
            k: ({str(kk): vv for kk, vv in v.items()} if isinstance(v, dict) else v)
            for k, v in self.witnesses.items()
        }
        return {
            "label": self.label,
            "branches": dict(self.branches),
            "q": mask_elems(self.q) if self.q is not None else None,
            "witnesses": witnesses,
            "overlap": self.overlap,
        }


def completely_prime_spectrum(s: Semigroup, cap: int = DEFAULT_CAP):
    """All nonempty proper completely prime two-sided ideals."""
    return prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap)


@memoized
def prime_segments(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[PrimeSegment, ...]:
    """Covering pairs of the spectrum poset, plus one bottom segment per minimal
    element, by upper then lower ideal in family order, which spec and below keep."""
    spec = completely_prime_spectrum(s, cap)
    segs = []
    for p1 in spec:
        below = [q for q in spec if q != p1 and is_subset(q, p1)]
        if not below:
            segs.append(PrimeSegment(lower=0, upper=p1, bottom=True))
            continue
        for p2 in below:
            if any(p2 != q and is_subset(p2, q) for q in below):
                continue
            segs.append(PrimeSegment(lower=p2, upper=p1, bottom=False))
    return tuple(segs)


def segment_base(s: Semigroup, seg: PrimeSegment) -> Mask:
    """The ideal the classification measures from: {0} for bottom segments."""
    return s.zero_mask if seg.bottom else seg.lower


def strictly_between(s: Semigroup, lo: Mask, hi: Mask, cap: int = DEFAULT_CAP) -> list[Mask]:
    """The two-sided ideals strictly between lo and hi, in family order."""
    return [
        m
        for m in enumerate_ideals(s, IdealKind.TWO_SIDED, cap)
        if m != lo and m != hi and is_subset(lo, m) and is_subset(m, hi)
    ]


def classify_segment(s: Semigroup, seg: PrimeSegment, cap: int = DEFAULT_CAP) -> SegmentClass:
    """Evaluate the three branch definitions independently.

    archimedean: every a in the gap lies in some two-sided ideal I inside the
    upper ideal whose power intersection is exactly the base.
    simple: no two-sided ideal strictly between base and upper.
    exceptional: some prime, not completely prime, two-sided Q strictly
    between, with no two-sided ideal strictly between Q and upper.

    On degenerate finite inputs the definitions can overlap (a two element
    gap with square zero is both simple and archimedean); the label then
    follows the case order of the classification argument (simple, then
    exceptional, then archimedean) and the overlap is reported.
    """
    base = segment_base(s, seg)
    p1 = seg.upper
    gap = p1 & ~base
    two = enumerate_ideals(s, IdealKind.TWO_SIDED, cap)
    inside = [m for m in two if is_subset(m, p1)]

    witnesses: dict = {}
    arch = True
    arch_picks = {}
    for a in mask_elems(gap):
        found = None
        for m in inside:
            if mask_contains(m, a) and intersect_powers(s, m) == base:
                found = m
                break
        if found is None:
            arch = False
            witnesses["archimedean_fails_at"] = a
            break
        arch_picks[a] = mask_elems(found)
    if arch:
        witnesses["archimedean_ideals"] = arch_picks

    between = strictly_between(s, base, p1, cap)
    simple = not between
    if between:
        # between is in family order, so its first member is the least
        witnesses["intermediate_ideal"] = mask_elems(between[0])

    q_found = None
    candidates = exceptional_primes(s, cap)
    for q in between:
        # the base lies inside q, so the ideals strictly between q and P1
        # are the members of between strictly above q
        if q in candidates and not any(m != q and is_subset(q, m) for m in between):
            q_found = q
            break
    exceptional = q_found is not None

    branches = {ARCHIMEDEAN: arch, SIMPLE: simple, EXCEPTIONAL: exceptional}
    matched = [k for k, v in branches.items() if v]
    if not matched:
        label = NONE
    elif simple:
        label = SIMPLE
    elif exceptional:
        label = EXCEPTIONAL
    else:
        label = ARCHIMEDEAN
    return SegmentClass(
        label=label,
        branches=branches,
        q=q_found,
        witnesses=witnesses,
        overlap=len(matched) > 1,
    )


def pairing_ideal(s: Semigroup, q_mask: Mask, cap: int = DEFAULT_CAP) -> Mask | None:
    """The least two-sided waist strictly containing Q, or None if there is
    none: the waists above Q form a chain, so its least member, their
    intersection, comes first in family order (README, "Right waists form a
    chain").  Under the intended hypotheses (Q an exceptional prime inside a
    comparability ideal) it is idempotent and minimal over Q; the
    verification harness asserts that.
    """
    return next((m for m in enumerate_ideals(s, IdealKind.TWO_SIDED, cap)
                 if m != q_mask and is_subset(q_mask, m) and is_waist(s, m)), None)


def has_non_nilpotent_over(s: Semigroup, d_mask: Mask, q_mask: Mask):
    """Some a in D-Q whose power tail intersection strictly contains Q."""
    for a in mask_elems(d_mask & ~q_mask):
        tail = tail_intersection(s, a)
        if is_subset(q_mask, tail) and tail != q_mask:
            return a
    return None


def is_locally_invariant(s: Semigroup, seg: PrimeSegment) -> bool:
    """P1*a == a*P1 for every a in the gap."""
    p1 = seg.upper
    left, right = s.translates(p1), s.right_muls(p1)
    return all(right[a] == left[a] for a in mask_elems(p1 & ~segment_base(s, seg)))


def tail_intersection(s: Semigroup, t: int) -> Mask:
    """Intersection of the principal right ideals of all powers of t.

    The ideals decrease, t^(k+1)S = t^k(tS) inside t^kS, and s.powers(t)
    holds every power of t, so the last of them gives the intersection.
    """
    return s.right_principals[s.powers(t)[-1]]
