"""Primeness predicates, waists, comparizer ideals, and the radicals."""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import Mask, Semigroup, is_subset, mask_contains, mask_elems, memoized
from .ideals import (
    DEFAULT_CAP,
    IdealKind,
    NotAnIdeal,
    NotProper,
    enumerate_ideals,
    is_ideal,
    is_nil_set,
    principals,
)


class PrimenessKind(str, Enum):
    PRIME = "prime"
    COMPLETELY_PRIME = "completely-prime"
    SEMIPRIME = "semiprime"
    COMPLETELY_SEMIPRIME = "completely-semiprime"


# -- primeness (total predicates: any mask, no ideal check, False for the empty
# set; is_prime_variant is the validating entry point) -------------------------


@memoized
def sandwiches(s: Semigroup) -> tuple[tuple[Mask, ...], ...]:
    """aSb for every a and b, indexed [a][b]; one row per distinct aS."""
    by_ideal = {a_s: s.right_muls(a_s) for a_s in set(s.right_principals)}
    return tuple(by_ideal[a_s] for a_s in s.right_principals)


def is_prime(s: Semigroup, x: Mask) -> bool:
    """Nonempty, and aSb inside X forces a or b into X."""
    if x == 0:
        return False
    sw = sandwiches(s)
    not_x = ~x
    outside = mask_elems(s.full & not_x)
    return not any(sw[a][b] & not_x == 0 for a in outside for b in outside)


def is_mult_closed(s: Semigroup, t_mask: Mask) -> bool:
    """ab in T for every a and b in T."""
    rows = s.rows
    members = mask_elems(t_mask)
    for a in members:
        row = rows[a]
        for b in members:
            if not mask_contains(t_mask, row[b]):
                return False
    return True


def is_completely_prime(s: Semigroup, x: Mask) -> bool:
    """Nonempty, and ab in X forces a or b into X: the complement is
    multiplicatively closed."""
    return x != 0 and is_mult_closed(s, s.full & ~x)


def is_semiprime(s: Semigroup, x: Mask) -> bool:
    """Nonempty, and aSa inside X forces a into X."""
    if x == 0:
        return False
    sw = sandwiches(s)
    not_x = ~x
    return not any(sw[a][a] & not_x == 0 for a in mask_elems(s.full & not_x))


def is_completely_semiprime(s: Semigroup, x: Mask) -> bool:
    """Nonempty, and a*a in X forces a into X."""
    if x == 0:
        return False
    rows = s.rows
    for a in range(s.n):
        if not mask_contains(x, a) and mask_contains(x, rows[a][a]):
            return False
    return True


_PRIME_FNS = {
    PrimenessKind.PRIME: is_prime,
    PrimenessKind.COMPLETELY_PRIME: is_completely_prime,
    PrimenessKind.SEMIPRIME: is_semiprime,
    PrimenessKind.COMPLETELY_SEMIPRIME: is_completely_semiprime,
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
    fn = _PRIME_FNS[kind]
    return tuple(
        m for m in enumerate_ideals(s, ideal_kind, cap) if m != s.full and fn(s, m)
    )


@memoized
def exceptional_primes(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """The prime, not completely prime, two-sided ideals, in family order:
    the primes on which the exceptional branch of a prime segment turns."""
    complete = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap)
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED, cap)
    return tuple(q for q in primes if q not in complete)


# -- waists -------------------------------------------------------------------


def is_waist(s: Semigroup, i_mask: Mask) -> bool:
    """Comparable with every right ideal; improper input reports False.

    Comparability with all right ideals reduces to comparability with all
    principal right ideals: a right ideal not below I has an element outside
    I whose principal ideal then must contain I.
    """
    if i_mask == s.full:
        return False
    return all(is_subset(bs, i_mask) or is_subset(i_mask, bs) for bs in s.right_principals)


def is_right_waist(s: Semigroup, i_mask: Mask) -> bool:
    if not is_ideal(s, i_mask, IdealKind.RIGHT):
        raise NotAnIdeal("right waists must be right ideals")
    if i_mask == s.full:
        raise NotProper("right waists are proper")
    return is_waist(s, i_mask)


@memoized
def right_waists(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """All nonempty proper right ideals comparable with every right ideal."""
    return tuple(m for m in enumerate_ideals(s, IdealKind.RIGHT, cap) if m and is_waist(s, m))


# -- comparizer ideals ----------------------------------------------------------


@memoized
def comparizer_support(s: Semigroup, within: Mask) -> Mask:
    """G(W): the c with b*c in B[b] for every b in W = `within`, where B[b]
    is the intersection of aS over the a in W outside bS (the whole carrier
    when no a qualifies).

    The comparizer test over W, "for all a, b in W: a in bS or b*I inside
    aS", is elementwise in I: it holds exactly when each c in I has b*c in
    aS for every such pair, that is, when I lies inside G(W).  The c with
    b*c in B[b] are the preimages under b of the members of B[b].
    """
    princ, pre, full = s.right_principals, s.preimages(), s.full
    out = full
    for b in mask_elems(within):
        bound = full
        for a in mask_elems(within & ~princ[b]):
            bound &= princ[a]
        if bound == full:
            continue
        row = pre[b]
        allowed = 0
        for v in mask_elems(bound):
            allowed |= row[v]
        out &= allowed
    return out


def is_comparizer(s: Semigroup, i_mask: Mask, within: Mask | None = None) -> bool:
    """For every a, b: a in bS, or b*I inside aS; with `within`, a and b
    range over that set only.  Total: any mask, no ideal check.  One subset
    test against comparizer_support."""
    return is_subset(i_mask, comparizer_support(s, s.full if within is None else within))


def is_right_comparizer(s: Semigroup, i_mask: Mask) -> bool:
    """For every a, b: aS inside bS, or b*I inside aS."""
    if not is_ideal(s, i_mask, IdealKind.RIGHT):
        raise NotAnIdeal("comparizer candidates must be right ideals")
    return is_comparizer(s, i_mask)


@memoized
def comparizer_ideals(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """Every right ideal passing the comparizer test, in family order; the
    empty ideal always passes, and the full one when S is a right chain."""
    return tuple(m for m in enumerate_ideals(s, IdealKind.RIGHT, cap) if is_comparizer(s, m))


def comparizer_radical(s: Semigroup) -> Mask:
    """The largest right comparizer ideal: comparizer_support over the whole
    carrier (a right ideal, since b*c in aS puts b*c*t in aS).  Equals the
    union of all comparizer right ideals, which is the whole carrier exactly
    when the principal right ideals form a chain.
    """
    return comparizer_support(s, s.full)


def is_right_chain(s: Semigroup) -> bool:
    """Every pair of principal right ideals is comparable by inclusion: each
    b has aS inside bS (b in left_divisors()[a]) or bS inside aS (b in aS)."""
    full = s.full
    return all(d | a_s == full for d, a_s in zip(s.left_divisors(), s.right_principals))


# -- radicals -------------------------------------------------------------------


class RadicalReport(NamedTuple):
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

    def to_dict(self) -> dict:
        # report schema 1 carries the flags key; radicals never raises a flag
        return {**{k: mask_elems(v) for k, v in self._asdict().items()}, "flags": []}


@memoized
def radicals(s: Semigroup, cap: int = DEFAULT_CAP) -> RadicalReport:
    """Compute the prime radicals by enumerate-and-filter over the prime
    families, and the nil radical in one pass over the carrier.

    Every family intersected here is nonempty: the nonunits form a proper
    completely prime two-sided ideal, hence also a prime one and a prime
    right ideal.
    """
    beta = s.full
    for m in prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED, cap):
        beta &= m
    beta_r = s.full
    for m in prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap):
        beta_r &= m
    nrad = s.full
    for m in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap):
        nrad &= m

    # SaS is the least two-sided ideal holding a, so a lies in a nil one
    # exactly when SaS is nil; a nil ideal is closed, hence nilpotent, so
    # the nil radical is the nilpotent union too (README, "Finite shadow")
    nil_union = 0
    for a, sas in enumerate(principals(s, IdealKind.TWO_SIDED)):
        if is_nil_set(s, sas):
            nil_union |= 1 << a

    return RadicalReport(
        prime_radical=beta,
        prime_right_radical=beta_r,
        completely_prime_radical=nrad,
        nil_radical=nil_union,
        nilpotent_union=nil_union,
        nilpotent_elements=s.nilpotent_elements(),
        comparizer=comparizer_radical(s),
        nonunits=s.nonunits_mask(),
    )


# -- associated prime -------------------------------------------------------------


def associated_prime(s: Semigroup, a_mask: Mask) -> Mask:
    """P_r(A) = {t : x*t in A for some x outside A}.

    For a nonempty proper right ideal A this is always a completely prime
    right ideal (the verification harness asserts that claim).
    """
    if a_mask == s.full:
        raise NotProper("the associated prime needs a proper right ideal")
    pre = s.preimages()
    inside = mask_elems(a_mask)
    out = 0
    for x in mask_elems(s.full & ~a_mask):
        row = pre[x]
        for v in inside:
            out |= row[v]
    return out


@memoized
def associated_primes(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[tuple[Mask, Mask], ...]:
    """(A, P_r(A)) for every nonempty proper right ideal A, in the order of
    the right ideal family; one entry per family, not per mask."""
    return tuple(
        (a, associated_prime(s, a))
        for a in enumerate_ideals(s, IdealKind.RIGHT, cap)
        if a and a != s.full
    )
