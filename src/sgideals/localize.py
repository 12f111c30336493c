"""Ore sets, right-ideal saturation, and comparability with respect to a
completely prime right ideal."""
from __future__ import annotations

import operator
import warnings
from collections.abc import Iterator
from typing import NamedTuple

from .core import Mask, Semigroup, is_subset, mask_contains, mask_elems, mask_of, memoized
from .classify import is_completely_prime, is_mult_closed
from .ideals import IdealKind, is_ideal


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
    t_principals = [s.right_principal(t) for t in mask_elems(t_mask)]
    return all(a_t & t_s for a_t in s.left_muls(t_mask) for t_s in t_principals)


def _saturation(trans: tuple[Mask, ...], x_mask: Mask) -> Mask:
    """The y whose translate y*T, read from trans, meets X."""
    return mask_of(y for y, y_t in enumerate(trans) if y_t & x_mask)


def saturate(s: Semigroup, x_mask: Mask, t_mask: Mask) -> Mask:
    """{y : y*t in X for some t in T}: the y whose translate y*T meets X.

    Contains X whenever T contains the identity; a right ideal whenever T
    is a right Ore set.  The translates are not memoized, so a sweep over
    T keeps none of them on the instance.
    """
    return _saturation(s.left_muls(t_mask), x_mask)


class OreSweep:
    """The multiplicatively closed right Ore sets T of s, and the
    saturations sat(aS, T), with each predicate of T held as a truth table:
    an int of 2^n bits whose bit T is set when the predicate holds for T
    (README, "The Lem3.1 sweep").

    Iterating yields every such T in increasing order; the tables are built
    once, in the constructor.
    """

    def __init__(self, s: Semigroup):
        n, rows, princ, pre = s.n, s.rows, s.right_principals, s.preimages()
        every = (1 << (1 << n)) - 1
        # has[i]: the T holding i, Knuth's magic mask, its first period
        # doubled until it spans all 2^n bits
        has = []
        for i in range(n):
            mask, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while width < 1 << n:
                mask |= mask << width
                width <<= 1
            has.append(mask)
        self._lacks = [every ^ h for h in has]
        self._avoiding = {0: every}
        self._times_s = princ  # yS for each y, the right-ideal test's one input
        # sat(aS, T) = {y : y*t in aS for some t in T}, so y is outside it
        # exactly for the T avoiding {t : y*t in aS}, the preimage columns
        # of the v in aS ORed whole; one list of those tables per distinct
        # aS, kept with the least a
        columns = list(zip(*pre))
        by_ideal: dict[Mask, tuple[int, list[Mask]]] = {}
        for a, a_s in enumerate(princ):
            if a_s not in by_ideal:
                pulled = [0] * n
                for v in mask_elems(a_s):
                    pulled = list(map(operator.or_, pulled, columns[v]))
                by_ideal[a_s] = (a, [self._avoids(m) for m in pulled])
        self._sat = [by_ideal[a_s][1] for a_s in princ]
        self._distinct = list(by_ideal.values())
        # T is not closed when a*b is outside it for some a and b in T, and
        # not right Ore when some a is outside sat(tS, T), that is a*T misses
        # tS, for some t in T
        bad = 0
        for a in range(n):
            escapes = short = 0
            for b, v in enumerate(rows[a]):
                escapes |= has[b] & self._lacks[v]
            for out in self._sat[a]:
                short |= out
            bad |= has[a] & (escapes | short)
        self._ore = every & ~bad

    def _avoids(self, m: Mask) -> Mask:
        """The truth table of the T disjoint from M."""
        got = self._avoiding.get(m)
        if got is None:
            low = m & -m
            got = self._avoiding[m] = self._avoids(m ^ low) & self._lacks[low.bit_length() - 1]
        return got

    def __iter__(self) -> Iterator[Mask]:
        bits = bin(self._ore)[:1:-1]
        t = bits.find("1")
        while t >= 0:
            yield t
            t = bits.find("1", t + 1)

    def saturations(self, t_mask: Mask) -> list[Mask]:
        """sat(aS, T) for every a, in increasing a."""
        return [mask_of(y for y, out in enumerate(outside) if not out >> t_mask & 1)
                for outside in self._sat]

    def first_non_ideal_saturation(self) -> tuple[Mask, int] | None:
        """The first T in sweep order, and then the least a, for which
        sat(aS, T) is not a right ideal; None when every one is.

        sat(aS, T) depends on aS alone, so one a per distinct aS is read.
        It fails for T when some y inside it has some v in yS outside it.
        """
        fails, first = [], 0
        members = [mask_elems(y_s) for y_s in self._times_s]
        for a, outside in self._distinct:
            fail = 0
            for out, y_s in zip(outside, members):
                leaves = 0
                for v in y_s:
                    leaves |= outside[v]
                fail |= leaves & ~out
            fails.append((a, fail))
            first |= fail
        first &= self._ore
        if not first:
            return None
        # t is an Ore set, so bit t of each table is already masked
        t = (first & -first).bit_length() - 1
        return t, next(a for a, fail in fails if fail >> t & 1)


def _validate_cp_right(s: Semigroup, p_mask: Mask) -> None:
    if not is_ideal(s, p_mask, IdealKind.RIGHT):
        raise NotCompletelyPrime("P must be a right ideal")
    if p_mask == s.full or not is_completely_prime(s, p_mask):
        raise NotCompletelyPrime("P must be a proper completely prime right ideal")


class ComparabilityReport(NamedTuple):
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
    """sat(aS, S-P) for every a, one saturation per distinct aS, all read
    from one table of the translates y*(S-P)."""
    trans = s.left_muls(s.full & ~p_mask)
    by_ideal = {a_s: _saturation(trans, a_s) for a_s in set(s.right_principals)}
    return tuple(by_ideal[a_s] for a_s in s.right_principals)


def _classes(values: tuple) -> dict:
    """For each value, the mask of the indices a with values[a] equal to it."""
    same: dict = {}
    for a, v in enumerate(values):
        same[v] = same.get(v, 0) | 1 << a
    return same


def _first_split(above: list[Mask], values: tuple, same: dict) -> tuple[int, int] | None:
    """The least a with some b in above[a] outside the class of values[a],
    and the least such b; None when there is none."""
    for a, up in enumerate(above):
        split = up & ~same[values[a]]
        if split:
            return a, (split & -split).bit_length() - 1
    return None


def _ideal_waist_or_full(s: Semigroup, m: Mask) -> bool:
    """m is a right ideal and a waist, or the whole carrier, in one pass
    over the carrier.  m is a right ideal when the bS over its b OR to m;
    no bS with b outside m then lies inside m (b is in bS), so m is a waist
    when it lies inside the AND of those bS, the whole carrier when m is
    (README, "Element kernels")."""
    inside, meet = 0, s.full
    for b, b_s in enumerate(s.right_principals):
        if m >> b & 1:
            inside |= b_s
        else:
            meet &= b_s
    return inside == m and is_subset(m, meet)


@memoized
def is_right_p_comparable(s: Semigroup, p_mask: Mask) -> ComparabilityReport:
    """Pairwise comparability with respect to a completely prime right ideal.

    Evaluates the defining three-way condition over all pairs, plus the four
    equivalent reformulations, each exhaustively.  The pairs are read from
    s.left_divisors(): aS lies inside bS exactly when b is in
    left_divisors()[a], and bS inside aS exactly when b is in aS.  Each
    pair loop is a mask test per a against the classes of equal saturation
    (README, "Element kernels").
    """
    _validate_cp_right(s, p_mask)
    n, full = s.n, s.full
    t_mask = full & ~p_mask
    sat = saturation_by_element(s, p_mask)
    same = _classes(sat)
    princ = s.right_principals
    # outside[a]: the b with aS not inside bS; above[a]: the b > a with aS
    # and bS incomparable
    outside = [full & ~d for d in s.left_divisors()]
    above = [(outside[a] & ~princ[a]) >> (a + 1) << (a + 1) for a in range(n)]

    witness = _first_split(above, sat, same)
    cond1 = witness is None

    # notsub[v]: the b whose saturation is not inside v, a union of
    # disjoint classes, so their sum
    notsub = {v: sum(m for w, m in same.items() if w & ~v) for v in same}
    cond2 = not any(out & notsub[v] for out, v in zip(outside, sat))
    # outside[a] is a right ideal, so the union of the bS over its b, which
    # the principal form tests, is outside[a] itself
    cond3 = all(is_subset(out, v) for out, v in zip(outside, sat))
    # S-P is multiplicatively closed and holds the identity, since P is
    # completely prime and proper: only the Ore condition is left to test.
    # a*T meets tS exactly when a is in sat(tS, T), so it holds when every
    # t in T saturates to the whole carrier; the membership clause is
    # cond3's mask test
    cond4 = is_subset(t_mask, same.get(full, 0)) and cond3
    # each sat[a] a right ideal and a waist, or the whole carrier, which is
    # flagged improper when met before the first a that fails
    admitted = {m: _ideal_waist_or_full(s, m) for m in set(sat)}
    first_bad = next((a for a in range(n) if not admitted[sat[a]]), n)
    cond5 = first_bad == n
    improper = full in sat[:first_bad]

    trans = s.translates(p_mask)
    weak = _first_split(above, trans, _classes(trans)) is None
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
    trans = s.translates(p_mask)
    out = 0
    for b_p, b_s in zip(trans, s.right_principals):
        if b_p == trans[a]:
            out |= b_s
    return out

