"""Ore sets, right-ideal saturation, and comparability with respect to a
completely prime right ideal."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import Mask, Semigroup, is_subset, mask_contains, mask_elems, memoized
from .classify import _completely_prime, _waist
from .ideals import IdealKind, is_ideal
from .verdict import Verdict, discrepancy, holds, vacuous


class NotCompletelyPrime(ValueError):
    pass


class NotMultClosed(ValueError):
    pass


CONDITION_NAMES = (
    "pair_three_way",
    "saturation_comparison",
    "principal_into_saturation",
    "ore_and_membership",
    "saturations_are_waists",
)


def is_mult_closed(s: Semigroup, t_mask: Mask) -> bool:
    rows = s.rows
    members = mask_elems(t_mask)
    for a in members:
        row = rows[a]
        for b in members:
            if not mask_contains(t_mask, row[b]):
                return False
    return True


def is_right_ore_set(s: Semigroup, t_mask: Mask) -> bool:
    """For every a in S and t in T some a', t' satisfy a*t' == t*a'."""
    if not is_mult_closed(s, t_mask):
        raise NotMultClosed("Ore candidates must be multiplicatively closed")
    if not mask_contains(t_mask, s.one):
        warnings.warn("Ore set does not contain the identity", stacklevel=2)
    return right_ore_condition(s, t_mask)


def right_ore_condition(s: Semigroup, t_mask: Mask) -> bool:
    """The Ore condition alone: a*T meets t*S for every a in S and t in T.

    Neither requires T to be multiplicatively closed nor warns when it
    lacks the identity; is_right_ore_set adds both.
    """
    for t in mask_elems(t_mask):
        t_s = s.right_principal(t)
        for a in range(s.n):
            if s.left_mul(a, t_mask) & t_s == 0:
                return False
    return True


def saturate(s: Semigroup, x_mask: Mask, t_mask: Mask) -> Mask:
    """{y : y*t in X for some t in T}.

    Contains X whenever T contains the identity; a right ideal whenever T
    is a right Ore set.
    """
    rows = s.rows
    members = mask_elems(t_mask)
    out = 0
    for y in range(s.n):
        row = rows[y]
        if any(mask_contains(x_mask, row[t]) for t in members):
            out |= 1 << y
    return out


def _validate_cp_right(s: Semigroup, p_mask: Mask) -> None:
    if not is_ideal(s, p_mask, IdealKind.RIGHT):
        raise NotCompletelyPrime("P must be a right ideal")
    if p_mask == s.full or not _completely_prime(s, p_mask):
        raise NotCompletelyPrime("P must be a proper completely prime right ideal")


@dataclass(frozen=True)
class ComparabilityReport:
    """Result of the pairwise comparability analysis for a fixed P.

    holds is the three-way pairwise condition itself; conditions carries the
    five independently evaluated equivalent forms (CONDITION_NAMES order).
    When a saturation equals the whole carrier the waist clause of the last
    condition admits it as trivially comparable and the relaxation is
    flagged.
    """

    p: Mask
    holds: bool
    conditions: tuple[bool, bool, bool, bool, bool]
    weak_holds: bool
    witness: tuple[int, int] | None
    improper_waist_admitted: bool

    def to_dict(self) -> dict:
        return {
            "p": mask_elems(self.p),
            "holds": self.holds,
            "conditions": {
                name: ok for name, ok in zip(CONDITION_NAMES, self.conditions)
            },
            "weak_holds": self.weak_holds,
            "witness": list(self.witness) if self.witness else None,
            "improper_waist_admitted": self.improper_waist_admitted,
        }


@memoized
def saturation_by_element(s: Semigroup, p_mask: Mask) -> tuple[Mask, ...]:
    """sat(aS, S-P) for every a, computed once per distinct principal ideal."""
    t_mask = s.full & ~p_mask
    cache: dict[Mask, Mask] = {}
    out = []
    for a in range(s.n):
        a_s = s.right_principal(a)
        got = cache.get(a_s)
        if got is None:
            got = saturate(s, a_s, t_mask)
            cache[a_s] = got
        out.append(got)
    return tuple(out)


@memoized
def is_right_p_comparable(s: Semigroup, p_mask: Mask) -> ComparabilityReport:
    """Pairwise comparability with respect to a completely prime right ideal.

    Evaluates the defining three-way condition over all pairs, plus the four
    equivalent reformulations, each independently and exhaustively.
    """
    _validate_cp_right(s, p_mask)
    n = s.n
    t_mask = s.full & ~p_mask
    sat = saturation_by_element(s, p_mask)
    princ = [s.right_principal(a) for a in range(n)]

    witness = None
    cond1 = True
    for a in range(n):
        for b in range(a + 1, n):
            if is_subset(princ[a], princ[b]) or is_subset(princ[b], princ[a]):
                continue
            if sat[a] != sat[b]:
                cond1 = False
                witness = (a, b)
                break
        if not cond1:
            break

    cond2 = all(
        is_subset(princ[a], princ[b]) or is_subset(sat[b], sat[a])
        for a in range(n)
        for b in range(n)
    )
    cond3 = all(
        is_subset(princ[a], princ[b]) or is_subset(princ[b], sat[a])
        for a in range(n)
        for b in range(n)
    )
    try:
        ore = is_right_ore_set(s, t_mask)
    except NotMultClosed:  # cannot happen for completely prime P
        ore = False
    cond4 = ore and all(
        is_subset(princ[a], princ[b]) or mask_contains(sat[a], b)
        for a in range(n)
        for b in range(n)
    )
    improper = False
    cond5 = True
    for a in range(n):
        if not is_ideal(s, sat[a], IdealKind.RIGHT):
            cond5 = False
            break
        if sat[a] == s.full:
            improper = True
            continue
        if not _waist(s, sat[a]):
            cond5 = False
            break

    trans = [s.left_mul(a, p_mask) for a in range(n)]
    weak = all(
        is_subset(princ[a], princ[b])
        or is_subset(princ[b], princ[a])
        or trans[a] == trans[b]
        for a in range(n)
        for b in range(a + 1, n)
    )
    return ComparabilityReport(
        p=p_mask,
        holds=cond1,
        conditions=(cond1, cond2, cond3, cond4, cond5),
        weak_holds=weak,
        witness=witness,
        improper_waist_admitted=improper,
    )


def equivalence_class(s: Semigroup, a: int, p_mask: Mask) -> Mask:
    """Union of bS over all b with b*P == a*P."""
    a_p = s.left_mul(a, p_mask)
    out = 0
    for b in range(s.n):
        if s.left_mul(b, p_mask) == a_p:
            out |= s.right_principal(b)
    return out


def nested_saturation_inclusion_check(s: Semigroup, max_subsets: int = 1 << 14) -> Verdict:
    """Verbatim check that sat(aS, T') is inside sat(aS, T) for nested
    multiplicatively closed T inside T'.

    Saturation is monotone in the denominator set, so the stated inclusion
    runs the wrong way; this check is kept as an executable record and is
    expected to produce a discrepancy with a small witness on most inputs.
    It is not part of the registered suite.
    """
    trace = [("subset_enumeration_feasible", (1 << s.n) <= max_subsets)]
    if (1 << s.n) > max_subsets:
        return vacuous(trace, note="carrier too large to enumerate subsets")
    closed = [t for t in range(1 << s.n) if is_mult_closed(s, t)]
    for t1 in closed:
        for t2 in closed:
            if t1 == t2 or not is_subset(t1, t2):
                continue
            for a in range(s.n):
                a_s = s.right_principal(a)
                if not is_subset(saturate(s, a_s, t2), saturate(s, a_s, t1)):
                    return discrepancy(
                        trace,
                        {"t_small": mask_elems(t1), "t_large": mask_elems(t2), "a": a},
                        note="monotone direction holds instead",
                    )
    return holds(trace)
