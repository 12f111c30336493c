"""Primeness predicates, waists, comparizer ideals, and the radicals."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Mask, Semigroup, is_subset, mask_contains, mask_elems, memoized
from .ideals import (
    DEFAULT_CAP,
    IdealKind,
    NotAnIdeal,
    NotProper,
    enumerate_ideals,
    exhaustive,
    is_ideal,
    is_nil_set,
    is_nilpotent_ideal,
)


class PrimenessKind(str, Enum):
    PRIME = "prime"
    COMPLETELY_PRIME = "completely-prime"
    SEMIPRIME = "semiprime"
    COMPLETELY_SEMIPRIME = "completely-semiprime"


# -- primeness (internal predicates are total over masks) --------------------


def _prime(s: Semigroup, x: Mask) -> bool:
    if x == 0:
        return False
    rows = s.rows
    outside = [a for a in range(s.n) if not mask_contains(x, a)]
    for a in outside:
        a_s = mask_elems(s.right_principal(a))
        for b in outside:
            if all(mask_contains(x, rows[m][b]) for m in a_s):
                return False
    return True


def _completely_prime(s: Semigroup, x: Mask) -> bool:
    if x == 0:
        return False
    # equivalent: the complement is multiplicatively closed
    comp = mask_elems(s.full & ~x)
    rows = s.rows
    for a in comp:
        row = rows[a]
        for b in comp:
            if mask_contains(x, row[b]):
                return False
    return True


def _semiprime(s: Semigroup, x: Mask) -> bool:
    if x == 0:
        return False
    rows = s.rows
    for a in range(s.n):
        if mask_contains(x, a):
            continue
        if all(mask_contains(x, rows[rows[a][m]][a]) for m in range(s.n)):
            return False
    return True


def _completely_semiprime(s: Semigroup, x: Mask) -> bool:
    if x == 0:
        return False
    rows = s.rows
    for a in range(s.n):
        if not mask_contains(x, a) and mask_contains(x, rows[a][a]):
            return False
    return True


_PRIME_FNS = {
    PrimenessKind.PRIME: _prime,
    PrimenessKind.COMPLETELY_PRIME: _completely_prime,
    PrimenessKind.SEMIPRIME: _semiprime,
    PrimenessKind.COMPLETELY_SEMIPRIME: _completely_semiprime,
}


def is_prime_variant(
    s: Semigroup, x: Mask, kind: PrimenessKind, ideal_kind: IdealKind
) -> bool:
    """Quantified primeness test for a proper ideal of the stated kind.

    The empty set is never prime in any variant: prime-like ideals here are
    nonempty (every nonempty ideal contains 0).
    """
    if not is_ideal(s, x, ideal_kind):
        raise NotAnIdeal(f"not a {ideal_kind.value} ideal")
    if x == s.full:
        raise NotProper("primeness is defined for proper ideals only")
    return _PRIME_FNS[kind](s, x)


@memoized
def prime_family(
    s: Semigroup,
    kind: PrimenessKind,
    ideal_kind: IdealKind,
    cap: int = DEFAULT_CAP,
) -> tuple[Mask, ...]:
    """All nonempty proper ideals of ideal_kind passing the primeness test."""
    fam = exhaustive(enumerate_ideals(s, ideal_kind, cap))
    fn = _PRIME_FNS[kind]
    return tuple(m for m in fam if m and m != s.full and fn(s, m))


# -- waists -------------------------------------------------------------------


def _waist(s: Semigroup, i_mask: Mask) -> bool:
    """Comparable with every right ideal; improper input reports False.

    Comparability with all right ideals reduces to comparability with all
    principal right ideals: a right ideal not below I has an element outside
    I whose principal ideal then must contain I.
    """
    if i_mask == s.full:
        return False
    for b in range(s.n):
        bs = s.right_principal(b)
        if not is_subset(bs, i_mask) and not is_subset(i_mask, bs):
            return False
    return True


def is_right_waist(s: Semigroup, i_mask: Mask) -> bool:
    if not is_ideal(s, i_mask, IdealKind.RIGHT):
        raise NotAnIdeal("right waists must be right ideals")
    if i_mask == s.full:
        raise NotProper("right waists are proper")
    return _waist(s, i_mask)


@memoized
def right_waists(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """All proper right ideals comparable with every right ideal."""
    fam = exhaustive(enumerate_ideals(s, IdealKind.RIGHT, cap))
    return tuple(m for m in fam if m != s.full and _waist(s, m))


# -- comparizer ideals ----------------------------------------------------------


@memoized
def comparizer_bounds(s: Semigroup, within: Mask) -> tuple[Mask, ...]:
    """B[b] for every element b: the intersection of aS over the a in
    `within` that lie outside bS (the whole carrier when no a qualifies).

    A set I passes the comparizer test over W, "for all a, b in W: a in bS
    or b*I inside aS", exactly when b*I lies inside B[b] for every b in W:
    the two universal quantifiers trade places and nothing else changes.
    """
    out = []
    for b in range(s.n):
        bound = s.full
        for a in mask_elems(within & ~s.right_principal(b)):
            bound &= s.right_principal(a)
        out.append(bound)
    return tuple(out)


def _comparizer(s: Semigroup, i_mask: Mask, within: Mask | None = None) -> bool:
    """For every a, b: a in bS, or b*I inside aS; with `within`, a and b
    range over that set only."""
    if within is None:
        within = s.full
    bounds = comparizer_bounds(s, within)
    for b in mask_elems(within):
        if not is_subset(s.left_mul(b, i_mask), bounds[b]):
            return False
    return True


def is_right_comparizer(s: Semigroup, i_mask: Mask) -> bool:
    """For every a, b: aS inside bS, or b*I inside aS."""
    if not is_ideal(s, i_mask, IdealKind.RIGHT):
        raise NotAnIdeal("comparizer candidates must be right ideals")
    return _comparizer(s, i_mask)


def is_strongly_comparizer(s: Semigroup, a_mask: Mask) -> bool:
    """For every a, b: aS inside bS, or b*A inside a*A."""
    if not is_ideal(s, a_mask, IdealKind.RIGHT):
        raise NotAnIdeal("comparizer candidates must be right ideals")
    for a in range(s.n):
        a_a = s.left_mul(a, a_mask)
        for b in range(s.n):
            if mask_contains(s.right_principal(b), a):
                continue
            if not is_subset(s.left_mul(b, a_mask), a_a):
                return False
    return True


@memoized
def comparizer_radical(s: Semigroup) -> Mask:
    """The largest right comparizer ideal.

    Elementwise: c belongs iff for all a, b either a is in bS or b*c is in
    aS, that is, iff b*c lies in comparizer_bounds(s, S)[b] for every b.
    Equals the union of all comparizer right ideals, which is the whole
    carrier exactly when the principal right ideals form a chain.
    """
    rows = s.rows
    bounds = comparizer_bounds(s, s.full)
    out = 0
    for c in range(s.n):
        if all(mask_contains(bound, row[c]) for row, bound in zip(rows, bounds)):
            out |= 1 << c
    return out


def is_right_chain(s: Semigroup) -> bool:
    """Every pair of principal right ideals is comparable by inclusion."""
    for a in range(s.n):
        a_s = s.right_principal(a)
        for b in range(a + 1, s.n):
            bs = s.right_principal(b)
            if not is_subset(a_s, bs) and not is_subset(bs, a_s):
                return False
    return True


# -- radicals -------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalReport:
    """The classical radicals of a finite monoid with zero.

    prime_radical            intersection of all prime two-sided ideals
    prime_right_radical      intersection of all prime right ideals
    completely_prime_radical intersection of all completely prime two-sided
    nil_radical              union of all nil two-sided ideals
    nilpotent_union          union of all nilpotent two-sided ideals
    nilpotent_elements       the set of nilpotent elements
    comparizer               the largest right comparizer ideal
    nonunits                 complement of the group of units
    """

    prime_radical: Mask
    prime_right_radical: Mask
    completely_prime_radical: Mask
    nil_radical: Mask
    nilpotent_union: Mask
    nilpotent_elements: Mask
    comparizer: Mask
    nonunits: Mask
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "prime_radical": mask_elems(self.prime_radical),
            "prime_right_radical": mask_elems(self.prime_right_radical),
            "completely_prime_radical": mask_elems(self.completely_prime_radical),
            "nil_radical": mask_elems(self.nil_radical),
            "nilpotent_union": mask_elems(self.nilpotent_union),
            "nilpotent_elements": mask_elems(self.nilpotent_elements),
            "comparizer": mask_elems(self.comparizer),
            "nonunits": mask_elems(self.nonunits),
            "flags": list(self.flags),
        }


@memoized
def radicals(s: Semigroup, cap: int = DEFAULT_CAP) -> RadicalReport:
    """Compute all radicals by enumerate-and-filter over two-sided ideals.

    Empty intersections are reported as the whole carrier together with an
    explanatory flag instead of raising; for finite monoids with zero both
    prime and completely prime ideals always exist, so the flags are a
    safety valve rather than an expected path.
    """
    flags: list[str] = []
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED, cap)
    beta = s.full
    if primes:
        for m in primes:
            beta &= m
    else:
        flags.append("no_prime_two_sided_ideal")
    primes_r = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap)
    beta_r = s.full
    if primes_r:
        for m in primes_r:
            beta_r &= m
    else:
        flags.append("no_prime_right_ideal")
    cps = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap)
    nrad = s.full
    if cps:
        for m in cps:
            nrad &= m
    else:
        flags.append("no_completely_prime_two_sided_ideal")

    nil_union = 0
    nilpotent_union = 0
    for m in exhaustive(enumerate_ideals(s, IdealKind.TWO_SIDED, cap)):
        if is_nil_set(s, m):
            nil_union |= m
        if is_nilpotent_ideal(s, m):
            nilpotent_union |= m
    if not is_nil_set(s, nil_union):
        # the union of nil ideals need not be nil in an arbitrary finite
        # monoid; record the failure instead of asserting largest-ness
        flags.append("nil_union_not_nil")

    return RadicalReport(
        prime_radical=beta,
        prime_right_radical=beta_r,
        completely_prime_radical=nrad,
        nil_radical=nil_union,
        nilpotent_union=nilpotent_union,
        nilpotent_elements=s.nilpotent_elements(),
        comparizer=comparizer_radical(s),
        nonunits=s.nonunits_mask(),
        flags=tuple(flags),
    )


# -- associated prime -------------------------------------------------------------


def associated_prime(s: Semigroup, a_mask: Mask) -> Mask:
    """P_r(A) = {t : x*t in A for some x outside A}.

    For a nonempty proper right ideal A this is always a completely prime
    right ideal (the verification harness asserts that claim).
    """
    if a_mask == s.full:
        raise NotProper("the associated prime needs a proper right ideal")
    rows = s.rows
    outside = [x for x in range(s.n) if not mask_contains(a_mask, x)]
    out = 0
    for t in range(s.n):
        if any(mask_contains(a_mask, rows[x][t]) for x in outside):
            out |= 1 << t
    return out
