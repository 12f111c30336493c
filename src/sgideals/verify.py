"""Registry of structural properties checked exhaustively on one semigroup.

Every check returns a three-valued Verdict.  A check declares its hypotheses
as data (requires=, a tuple of Gates); run_check evaluates each gate exactly
as stated, records it in the trace, and runs the check's body only when all
of them hold.  Quantified objects are swept in full (within the enumeration
cap), and a failed conclusion always carries a minimal witness.  Checks
never raise on a valid semigroup; a blown ideal cap turns into a vacuous
verdict with reason "cap".
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .core import Mask, Semigroup, is_subset, mask_elems, memoized
from .classify import (
    PrimenessKind,
    associated_prime,
    comparizer_ideals,
    comparizer_radical,
    exceptional_primes,
    is_comparizer,
    is_completely_prime,
    is_prime,
    is_right_chain,
    is_waist,
    prime_family,
    radicals,
    right_waists,
)
from .ideals import (
    DEFAULT_CAP,
    CapExceeded,
    IdealKind,
    enumerate_ideals,
    intersect_powers,
    is_a_nilpotent,
    is_ideal,
    is_nilpotent_ideal,
    power_sequence,
    right_annihilator,
)
from .localize import (
    OreSweep,
    equivalence_class,
    is_right_p_comparable,
    saturation_by_element,
)
from .segments import (
    ARCHIMEDEAN,
    EXCEPTIONAL,
    NONE,
    classify_segment,
    completely_prime_spectrum,
    has_non_nilpotent_over,
    is_locally_invariant,
    pairing_ideal,
    prime_segments,
    segment_base,
    strictly_between,
    tail_intersection,
)
from .corpus import all_monoids_with_zero
from .verdict import Verdict, discrepancy, holds, vacuous


class UnknownCheck(KeyError):
    pass


@dataclass(frozen=True)
class Gate:
    """A named hypothesis; test(s, cap) tells whether s satisfies it."""

    name: str
    test: Callable[[Semigroup, int], bool]


@dataclass(frozen=True)
class TheoremCheck:
    """A statement, the gates it requires, and a body that checks its
    conclusion on a semigroup satisfying every gate."""

    id: str
    statement: str
    fn: Callable[[Semigroup, int], Verdict]
    requires: tuple[Gate, ...] = ()


CHECKS: dict[str, TheoremCheck] = {}


def _register(check_id: str, statement: str, requires: tuple[Gate, ...] = ()):
    def deco(fn):
        CHECKS[check_id.lower()] = TheoremCheck(check_id, statement, fn, requires)
        return fn

    return deco


def normalize_id(raw: str) -> str:
    s = raw.strip().lower().replace(" ", "").replace("_", "")
    for long, short in (("lemma", "lem"), ("theorem", "thm"),
                        ("proposition", "pr"), ("prop", "pr"),
                        ("corollary", "co"), ("cor", "co")):
        if s.startswith(long):
            s = short + s[len(long):]
            break
    return s


def run_check(s: Semigroup, check_id: str, cap: int = DEFAULT_CAP) -> Verdict:
    """Evaluate every gate the check requires, in order, and record each one;
    vacuous if any failed, else the body's verdict after the gate trace."""
    check = CHECKS.get(check_id) or CHECKS.get(normalize_id(check_id))
    if check is None:
        raise UnknownCheck(f"no check named {check_id!r}")
    try:
        gates = tuple([(gate.name, gate.test(s, cap)) for gate in check.requires])
        if not all([ok for _, ok in gates]):
            return vacuous(gates)
        verdict = check.fn(s, cap)
    except CapExceeded:
        return vacuous((("cap_not_exceeded", False),), note="cap")
    if not gates:
        return verdict
    return Verdict(verdict.status, gates + verdict.hypothesis_trace,
                   verdict.witness, verdict.note)


def run_suite(s: Semigroup, cap: int = DEFAULT_CAP) -> list[tuple[str, Verdict]]:
    return [(c.id, run_check(s, key, cap)) for key, c in sorted(CHECKS.items())]


def registered_ids() -> list[str]:
    return [CHECKS[k].id for k in sorted(CHECKS)]


# ---------------------------------------------------------------------------
# shared sweep helpers and gates


def _nonempty_proper(s: Semigroup, masks):
    return [m for m in masks if m and m != s.full]


@memoized
def comparability_ideals(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """Completely prime two-sided ideals P for which the pairwise
    comparability condition holds."""
    return tuple(
        p for p in completely_prime_spectrum(s, cap) if is_right_p_comparable(s, p).holds
    )


def _incomparable_pair(masks):
    """The first pair (a, b), a before b, with neither inside the other, or
    None when the masks form a chain."""
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if not is_subset(a, b) and not is_subset(b, a):
                return a, b
    return None


def _w(masks) -> list[list[int]]:
    if isinstance(masks, int):
        return mask_elems(masks)
    return [mask_elems(m) for m in masks]


def _found(name: str, count: int) -> Verdict:
    """The gate a sweep closes with: the statement is vacuous when the sweep
    met none of the objects it quantifies over."""
    trace = ((name, count > 0),)
    return holds(trace) if count else vacuous(trace)


LEFT_CANCELLATIVE = Gate("left_cancellative", lambda s, cap: s.is_left_cancellative())
CANCELLATIVE = Gate("cancellative", lambda s, cap: s.is_cancellative())
HAS_COMPARABILITY_IDEAL = Gate(
    "has_comparability_ideal", lambda s, cap: bool(comparability_ideals(s, cap))
)
COMPARIZER_RADICAL_NILPOTENT = Gate(
    "comparizer_radical_nilpotent",
    lambda s, cap: is_nilpotent_ideal(s, comparizer_radical(s)),
)
COMPARIZER_RADICAL_NONNILPOTENT = Gate(
    "comparizer_radical_nonnilpotent",
    lambda s, cap: not is_nilpotent_ideal(s, comparizer_radical(s)),
)
# Lem3.1 quantifies over all 2^n subsets of the carrier; each costs O(n)
# table reads (localize.OreSweep), so the 2^n count is what sets the limit
SUBSET_ENUMERATION_FEASIBLE = Gate("subset_enumeration_feasible", lambda s, cap: s.n <= 12)


# ---------------------------------------------------------------------------
# comparizer ideals and waists


@_register("Lem2.1.i", "the zero ideal is a right comparizer ideal")
def _lem21i(s: Semigroup, cap: int) -> Verdict:
    if is_comparizer(s, s.zero_mask):
        return holds()
    return discrepancy((), {"ideal": _w(s.zero_mask)})


@_register("Lem2.1.ii", "unions of right comparizer ideals are right comparizers")
def _lem21ii(s: Semigroup, cap: int) -> Verdict:
    comps = comparizer_ideals(s, cap)
    total = 0
    for i, a in enumerate(comps):
        total |= a
        for b in comps[i + 1:]:
            if not is_comparizer(s, a | b):
                return discrepancy((), {"left": _w(a), "right": _w(b)})
    if comps and not is_comparizer(s, total):
        return discrepancy((), {"union_of_all": _w(total)})
    return holds()


@_register("Lem2.1.iii", "right ideals inside a right comparizer ideal are right comparizers")
def _lem21iii(s: Semigroup, cap: int) -> Verdict:
    big = comparizer_radical(s)
    for m in enumerate_ideals(s, IdealKind.RIGHT, cap):
        if is_subset(m, big) and not is_comparizer(s, m):
            return discrepancy((), {"ideal": _w(m)})
    return holds()


@_register("Lem2.2.i", "an idempotent two-sided right waist I satisfies I == a*I off I")
def _lem22i(s: Semigroup, cap: int) -> Verdict:
    for m in _nonempty_proper(s, enumerate_ideals(s, IdealKind.TWO_SIDED, cap)):
        if s.product(m, m) != m or not is_waist(s, m):
            continue
        trans = s.translates(m)
        for a in mask_elems(s.full & ~m):
            if trans[a] != m:
                return discrepancy((), {"ideal": _w(m), "a": a})
    return holds()


@_register("Lem2.2.ii", "a completely prime two-sided ideal is a right waist "
                        "exactly when every outside element translates it onto itself")
def _lem22ii(s: Semigroup, cap: int) -> Verdict:
    for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap):
        trans = s.translates(p)
        translate = all(trans[a] == p for a in mask_elems(s.full & ~p))
        if is_waist(s, p) != translate:
            return discrepancy((), {"ideal": _w(p), "translates": translate})
    return holds()


@_register("Pr2.3.i", "in a cancellative monoid the nonunits form a maximal right "
                      "and maximal left ideal", requires=(CANCELLATIVE,))
def _pr23i(s: Semigroup, cap: int) -> Verdict:
    j = s.nonunits_mask()
    if not is_ideal(s, j, IdealKind.TWO_SIDED):
        return discrepancy((), {"nonunits": _w(j)})
    for kind in (IdealKind.RIGHT, IdealKind.LEFT):
        for m in enumerate_ideals(s, kind, cap):
            if is_subset(j, m) and m not in (j, s.full):
                return discrepancy((), {"between": _w(m), "kind": kind.value})
    return holds()


@_register("Pr2.3.ii", "in a cancellative monoid the nonunits form a completely "
                       "prime ideal", requires=(CANCELLATIVE,))
def _pr23ii(s: Semigroup, cap: int) -> Verdict:
    j = s.nonunits_mask()
    ok = is_ideal(s, j, IdealKind.TWO_SIDED) and is_completely_prime(s, j)
    return holds() if ok else discrepancy((), {"nonunits": _w(j)})


def _proper_union(s: Semigroup, cap: int, kind: IdealKind) -> Mask:
    out = 0
    for m in enumerate_ideals(s, kind, cap):
        if m != s.full:
            out |= m
    return out


@_register("Pr2.3.iii", "in a cancellative monoid the nonunits equal the union of "
                        "all proper right ideals", requires=(CANCELLATIVE,))
def _pr23iii(s: Semigroup, cap: int) -> Verdict:
    u = _proper_union(s, cap, IdealKind.RIGHT)
    if u != s.nonunits_mask():
        return discrepancy((), {"union": _w(u)})
    return holds()


@_register("Pr2.3.iv", "in a cancellative monoid the nonunits equal the union of "
                       "all proper left ideals", requires=(CANCELLATIVE,))
def _pr23iv(s: Semigroup, cap: int) -> Verdict:
    u = _proper_union(s, cap, IdealKind.LEFT)
    if u != s.nonunits_mask():
        return discrepancy((), {"union": _w(u)})
    return holds()


def _two_sided_comparizers(s: Semigroup, cap: int) -> list[Mask]:
    two = set(enumerate_ideals(s, IdealKind.TWO_SIDED, cap))
    return [m for m in _nonempty_proper(s, comparizer_ideals(s, cap)) if m in two]


@_register("Thm2.4.i", "an idempotent right comparizer ideal is a right waist")
def _thm24i(s: Semigroup, cap: int) -> Verdict:
    for m in _nonempty_proper(s, comparizer_ideals(s, cap)):
        if s.product(m, m) == m and not is_waist(s, m):
            return discrepancy((), {"ideal": _w(m)})
    return holds()


@_register("Thm2.4.ii", "left translates of a comparizer right waist are right waists")
def _thm24ii(s: Semigroup, cap: int) -> Verdict:
    # a left translate of a right ideal is a right ideal, so it is a right
    # waist exactly when it is a member of the family
    waists = set(right_waists(s, cap))
    for m in _nonempty_proper(s, comparizer_ideals(s, cap)):
        if m not in waists:
            continue
        for a, a_m in enumerate(s.translates(m)):
            if a_m not in waists:
                return discrepancy((), {"ideal": _w(m), "a": a})
    return holds()


@_register("Thm2.4.iii", "a prime right ideal not containing a comparizer ideal I "
                         "is a right waist strictly inside I; the prime right "
                         "ideals inside I form a chain")
def _thm24iii(s: Semigroup, cap: int) -> Verdict:
    # a prime right ideal is a nonempty proper right ideal, so it is a right
    # waist exactly when it is a member of the family
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap)
    waists = set(right_waists(s, cap))
    for i_mask in _nonempty_proper(s, comparizer_ideals(s, cap)):
        for p in primes:
            if not is_subset(i_mask, p) and not (p in waists and is_subset(p, i_mask)):
                return discrepancy((), {"comparizer": _w(i_mask), "prime": _w(p)})
        pair = _incomparable_pair([p for p in primes if is_subset(p, i_mask)])
        if pair:
            return discrepancy((), {"comparizer": _w(i_mask), "pair": _w(pair)})
    return holds()


@_register("Thm2.4.iv", "under left cancellation the power intersection of a "
                        "nonnilpotent two-sided comparizer ideal is completely prime",
           requires=(LEFT_CANCELLATIVE,))
def _thm24iv(s: Semigroup, cap: int) -> Verdict:
    for m in _two_sided_comparizers(s, cap):
        if is_nilpotent_ideal(s, m):
            continue
        core = intersect_powers(s, m)
        if not is_completely_prime(s, core):
            return discrepancy((), {"ideal": _w(m), "core": _w(core)})
    return holds()


@_register("Thm2.4.v", "under left cancellation an idempotent (hence nonnilpotent) "
                       "two-sided comparizer ideal is completely prime",
           requires=(LEFT_CANCELLATIVE,))
def _thm24v(s: Semigroup, cap: int) -> Verdict:
    for m in _two_sided_comparizers(s, cap):
        if s.product(m, m) != m or is_nilpotent_ideal(s, m):
            continue
        if not is_completely_prime(s, m):
            return discrepancy((), {"ideal": _w(m)})
    return holds()


@_register("Lem2.5.i", "inside a right waist, comparizer behaviour among the "
                       "contained right ideals equals global comparizer behaviour")
def _lem25i(s: Semigroup, cap: int) -> Verdict:
    fam = enumerate_ideals(s, IdealKind.RIGHT, cap)
    comps = set(comparizer_ideals(s, cap))
    for w in right_waists(s, cap):
        for c in fam:
            if not is_subset(c, w):
                continue
            if is_comparizer(s, c, w) != (c in comps):
                return discrepancy((), {"waist": _w(w), "ideal": _w(c)})
    return holds()


@_register("Lem2.5.ii", "for a right waist I, the ideal I meet right-annihilator(I) "
                        "is a right comparizer")
def _lem25ii(s: Semigroup, cap: int) -> Verdict:
    for w in right_waists(s, cap):
        c = w & right_annihilator(s, w)
        if not is_comparizer(s, c):
            return discrepancy((), {"waist": _w(w), "ideal": _w(c)})
    return holds()


@_register("Lem2.5.iii", "for a nilpotent right waist with I^n == 0, the power "
                         "I^(n-1) is a right comparizer")
def _lem25iii(s: Semigroup, cap: int) -> Verdict:
    zero = s.zero_mask
    for w in right_waists(s, cap):
        seq = power_sequence(s, w)
        index = None
        for k, m in enumerate(seq, start=1):
            if is_subset(m, zero):
                index = k
                break
        if index is None or index < 2:
            continue
        prev = seq[index - 2]
        if not is_comparizer(s, prev):
            return discrepancy((), {"waist": _w(w), "power": index - 1})
    return holds()


@_register("Lem2.6.i", "the largest comparizer ideal equals the union of all "
                       "comparizer right ideals and obeys the elementwise formula")
def _lem26i(s: Semigroup, cap: int) -> Verdict:
    union = 0
    for m in comparizer_ideals(s, cap):
        union |= m
    c = comparizer_radical(s)
    if c != union:
        return discrepancy((), {"elementwise": _w(c), "union": _w(union)})
    return holds()


@_register("Lem2.6.ii", "right chain monoids are exactly those whose comparizer "
                        "radical is the whole carrier")
def _lem26ii(s: Semigroup, cap: int) -> Verdict:
    if is_right_chain(s) != (comparizer_radical(s) == s.full):
        return discrepancy((), {"comparizer_radical": _w(comparizer_radical(s))})
    return holds()


# ---------------------------------------------------------------------------
# radicals


@_register("Thm2.7.i", "a nilpotent comparizer radical lies inside the "
                       "completely prime radical",
           requires=(COMPARIZER_RADICAL_NILPOTENT,))
def _thm27i(s: Semigroup, cap: int) -> Verdict:
    # a second gate, left in the body so that it is evaluated only after the
    # declared one passed: radicals() may exceed the cap
    rad = radicals(s, cap)
    exists = "no_completely_prime_two_sided_ideal" not in rad.flags
    trace = (("completely_prime_ideal_exists", exists),)
    if not exists:
        return vacuous(trace)
    c = comparizer_radical(s)
    if not is_subset(c, rad.completely_prime_radical):
        return discrepancy(trace, {"comparizer_radical": _w(c)})
    return holds(trace)


@_register("Thm2.7.ii", "a nonnilpotent comparizer radical contains the completely "
                        "prime radical, which is then completely prime and a right waist",
           requires=(COMPARIZER_RADICAL_NONNILPOTENT,))
def _thm27ii(s: Semigroup, cap: int) -> Verdict:
    c = comparizer_radical(s)
    nrad = radicals(s, cap).completely_prime_radical
    ok = is_subset(nrad, c) and is_completely_prime(s, nrad) and is_waist(s, nrad)
    if not ok:
        return discrepancy((), {"completely_prime_radical": _w(nrad)})
    return holds()


@_register("Thm2.7.iii", "a nonnilpotent comparizer radical makes the prime radical "
                         "prime and a right waist",
           requires=(COMPARIZER_RADICAL_NONNILPOTENT,))
def _thm27iii(s: Semigroup, cap: int) -> Verdict:
    beta = radicals(s, cap).prime_radical
    if not (is_prime(s, beta) and is_waist(s, beta)):
        return discrepancy((), {"prime_radical": _w(beta)})
    return holds()


@_register("Thm2.8.i", "under left cancellation with nonnilpotent comparizer "
                       "radical, nilpotent elements contract translates of the "
                       "completely prime radical: t*(a*N) inside a*N",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28i(s: Semigroup, cap: int) -> Verdict:
    nrad = radicals(s, cap).completely_prime_radical
    nilp = mask_elems(s.nilpotent_elements())
    for a, a_n in enumerate(s.translates(nrad)):
        for t in nilp:
            if not is_subset(s.left_mul(t, a_n), a_n):
                return discrepancy((), {"t": t, "a": a})
    return holds()


@_register("Thm2.8.ii", "under the same gates the nilpotent elements are "
                        "multiplicatively closed and each generates a nilpotent "
                        "ideal of that subsemigroup",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28ii(s: Semigroup, cap: int) -> Verdict:
    t_mask = s.nilpotent_elements()
    if not is_subset(s.product(t_mask, t_mask), t_mask):
        return discrepancy((), {"nilpotents": _w(t_mask)})
    for t in mask_elems(t_mask):
        gen = (
            (1 << t)
            | (s.left_mul(t, t_mask) & t_mask)
            | (s.right_mul(t_mask, t) & t_mask)
            | (s.product(s.right_mul(t_mask, t), t_mask) & t_mask)
        )
        if not is_a_nilpotent(s, gen, s.zero_mask):
            return discrepancy((), {"t": t, "generated": _w(gen)})
    return holds()


@_register("Thm2.8.iii", "under the same gates the nilpotent-ideal union, the "
                         "prime radical and the nil radical coincide, prime and "
                         "a right waist",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28iii(s: Semigroup, cap: int) -> Verdict:
    rad = radicals(s, cap)
    same = rad.nilpotent_union == rad.prime_radical == rad.nil_radical
    good = same and is_prime(s, rad.prime_radical) and is_waist(s, rad.prime_radical)
    if not good:
        return discrepancy(
            (),
            {
                "nilpotent_union": _w(rad.nilpotent_union),
                "prime_radical": _w(rad.prime_radical),
                "nil_radical": _w(rad.nil_radical),
            },
        )
    return holds()


@_register("Co2.9", "under the same gates every two-sided ideal sits below the "
                    "prime radical or above the completely prime radical",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _co29(s: Semigroup, cap: int) -> Verdict:
    rad = radicals(s, cap)
    for m in enumerate_ideals(s, IdealKind.TWO_SIDED, cap):
        if not m:
            continue
        if not is_subset(m, rad.prime_radical) and not is_subset(
            rad.completely_prime_radical, m
        ):
            return discrepancy((), {"ideal": _w(m)})
    return holds()


@_register("Thm2.10", "under the same gates: nilpotent elements form an ideal, "
                      "equal the prime radical, and the prime radical is "
                      "completely prime, all equivalent",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm210(s: Semigroup, cap: int) -> Verdict:
    rad = radicals(s, cap)
    t_mask = s.nilpotent_elements()
    b1 = is_ideal(s, t_mask, IdealKind.TWO_SIDED)
    b2 = t_mask == rad.prime_radical
    b3 = is_completely_prime(s, rad.prime_radical)
    if not (b1 == b2 == b3):
        return discrepancy((), {"ideal": b1, "equals_prime_radical": b2,
                                "radical_completely_prime": b3})
    return holds()


# ---------------------------------------------------------------------------
# associated primes


@_register("Lem2.12.i", "the associated prime of a nonempty proper right ideal is "
                        "a completely prime right ideal")
def _lem212i(s: Semigroup, cap: int) -> Verdict:
    for a_mask in _nonempty_proper(s, enumerate_ideals(s, IdealKind.RIGHT, cap)):
        p = associated_prime(s, a_mask)
        if not (is_ideal(s, p, IdealKind.RIGHT) and p != s.full
                and is_completely_prime(s, p)):
            return discrepancy((), {"ideal": _w(a_mask), "associated": _w(p)})
    return holds()


@_register("Lem2.12.ii", "for a prime right ideal A, every right waist contains "
                         "the associated prime of A or lies inside A")
def _lem212ii(s: Semigroup, cap: int) -> Verdict:
    for a_mask in prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap):
        p = associated_prime(s, a_mask)
        for w in right_waists(s, cap):
            if not is_subset(w, a_mask) and not is_subset(p, w):
                return discrepancy((), {"ideal": _w(a_mask), "waist": _w(w)})
    return holds()


def _translate_intersection(s: Semigroup, outside, p: Mask) -> Mask:
    trans = s.translates(p)
    out = s.full
    for a in outside:
        out &= trans[a]
    return out


@_register("Lem2.13", "a right ideal T is a right waist exactly when it equals the "
                      "intersection of the translates a*P_r(T) over a outside T, or "
                      "that intersection is a principal cover bS of T")
def _lem213(s: Semigroup, cap: int) -> Verdict:
    fam = enumerate_ideals(s, IdealKind.RIGHT, cap)
    for t_mask in _nonempty_proper(s, fam):
        p = associated_prime(s, t_mask)
        outside = mask_elems(s.full & ~t_mask)
        inter = _translate_intersection(s, outside, p)
        rhs = t_mask == inter
        if not rhs:
            for b in outside:
                bs = s.right_principal(b)
                if bs == inter and is_subset(t_mask, bs) and t_mask != bs:
                    if not any(
                        h != t_mask and h != bs
                        and is_subset(t_mask, h) and is_subset(h, bs)
                        for h in fam
                    ):
                        rhs = True
                        break
        if is_waist(s, t_mask) != rhs:
            return discrepancy(
                (), {"ideal": _w(t_mask), "intersection": _w(inter), "rhs": rhs}
            )
    return holds()


@_register("Co2.14", "under left cancellation a nonempty right waist equals the "
                     "intersection of its associated-prime translates and of the "
                     "nonunit translates", requires=(LEFT_CANCELLATIVE,))
def _co214(s: Semigroup, cap: int) -> Verdict:
    # without left cancellation an idempotent nonunit e with b == b*e defeats
    # the translate intersection through the nonunits (b never leaves b*J),
    # and order-3 counterexamples exist; the cancellation law restores the
    # argument, so it is a hypothesis here
    j = s.nonunits_mask()
    for t_mask in right_waists(s, cap):
        p = associated_prime(s, t_mask)
        if not is_subset(p, j):
            continue
        outside = mask_elems(s.full & ~t_mask)
        ip = _translate_intersection(s, outside, p)
        ij = _translate_intersection(s, outside, j)
        if not (t_mask == ip == ij):
            return discrepancy(
                (),
                {"waist": _w(t_mask), "via_prime": _w(ip), "via_nonunits": _w(ij)},
            )
    return holds()


# ---------------------------------------------------------------------------
# saturation and comparability


@_register("Lem3.1", "saturation of a principal right ideal by a right Ore set is "
                     "a right ideal", requires=(SUBSET_ENUMERATION_FEASIBLE,))
def _lem31(s: Semigroup, cap: int) -> Verdict:
    sweep = OreSweep(s)
    for t_mask in sweep:
        for a, sat in enumerate(sweep.saturations(t_mask)):
            if not sweep.is_right_ideal(sat):
                return discrepancy((), {"ore_set": _w(t_mask), "a": a})
    return holds()


@_register("Lem3.4", "a comparability ideal is a right waist, the completely prime "
                     "ideals below it form a chain, and the completely prime "
                     "radical is completely prime and a right waist",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem34(s: Semigroup, cap: int) -> Verdict:
    spec = completely_prime_spectrum(s, cap)
    rad = radicals(s, cap)
    for p in comparability_ideals(s, cap):
        if not is_waist(s, p):
            return discrepancy((), {"p": _w(p), "fails": "waist"})
        pair = _incomparable_pair([q for q in spec if is_subset(q, p)])
        if pair:
            return discrepancy((), {"p": _w(p), "pair": _w(pair)})
    nrad = rad.completely_prime_radical
    if not (is_completely_prime(s, nrad) and is_waist(s, nrad)):
        return discrepancy((), {"completely_prime_radical": _w(nrad)})
    return holds()


@_register("Pr3.5", "the five comparability conditions agree for every completely "
                    "prime right ideal")
def _pr35(s: Semigroup, cap: int) -> Verdict:
    for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap):
        rep = is_right_p_comparable(s, p)
        if len(set(rep.conditions)) != 1:
            return discrepancy(
                (), {"p": _w(p), "conditions": list(rep.conditions)}
            )
    return holds()


@_register("Thm3.6.i", "semiprime right ideals below a comparability ideal are "
                       "prime right ideals and right waists",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36i(s: Semigroup, cap: int) -> Verdict:
    semi = prime_family(s, PrimenessKind.SEMIPRIME, IdealKind.RIGHT, cap)
    primes = set(prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap))
    waists = set(right_waists(s, cap))
    for p in comparability_ideals(s, cap):
        for q in semi:
            if is_subset(q, p) and not (q in primes and q in waists):
                return discrepancy((), {"p": _w(p), "ideal": _w(q)})
    return holds()


@_register("Thm3.6.ii", "prime right ideals below a comparability ideal form a "
                        "chain, and the prime radical is prime and a right waist",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36ii(s: Semigroup, cap: int) -> Verdict:
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap)
    for p in comparability_ideals(s, cap):
        pair = _incomparable_pair([q for q in primes if is_subset(q, p)])
        if pair:
            return discrepancy((), {"p": _w(p), "pair": _w(pair)})
    beta = radicals(s, cap).prime_radical
    if not (is_prime(s, beta) and is_waist(s, beta)):
        return discrepancy((), {"prime_radical": _w(beta)})
    return holds()


@_register("Thm3.6.iii", "below a comparability ideal, two-sided ideals are "
                         "completely prime exactly when completely semiprime",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36iii(s: Semigroup, cap: int) -> Verdict:
    complete = set(prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap))
    semi = set(prime_family(s, PrimenessKind.COMPLETELY_SEMIPRIME, IdealKind.TWO_SIDED, cap))
    for p in comparability_ideals(s, cap):
        for q in _nonempty_proper(s, enumerate_ideals(s, IdealKind.TWO_SIDED, cap)):
            if not is_subset(q, p):
                continue
            if (q in complete) != (q in semi):
                return discrepancy((), {"p": _w(p), "ideal": _w(q)})
    return holds()


@_register("Lem3.7", "right-ideal right waists below a comparability ideal stay "
                     "right waists under left translation",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem37(s: Semigroup, cap: int) -> Verdict:
    # left translates of right ideals are right ideals: membership decides
    waists = set(right_waists(s, cap))
    for p in comparability_ideals(s, cap):
        for w in right_waists(s, cap):
            if not is_subset(w, p):
                continue
            for a, a_w in enumerate(s.translates(w)):
                if a_w not in waists:
                    return discrepancy((), {"p": _w(p), "waist": _w(w), "a": a})
    return holds()


@_register("Thm3.8", "under comparability and left cancellation, equal saturations "
                     "of aS and bS force a*P == b*P, and the converse holds for "
                     "pairs whose common translate is not the zero ideal",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _thm38(s: Semigroup, cap: int) -> Verdict:
    # the forward direction (equal saturations give equal translates) holds
    # for all pairs; the converse fails in finite truncations on pairs whose
    # translates collapse to {0} (a nilpotent b annihilates P, so b*P == 0*P
    # while bS and 0S saturate differently), hence the nonzero restriction
    zero = s.zero_mask
    note = None
    for p in comparability_ideals(s, cap):
        sat = saturation_by_element(s, p)
        trans = s.translates(p)
        for a, a_p in enumerate(trans):
            for b in range(a + 1, s.n):
                b_p = trans[b]
                if sat[a] == sat[b] and a_p != b_p:
                    return discrepancy((), {"p": _w(p), "pair": [a, b]})
                if a_p == b_p and a_p != zero and sat[a] != sat[b]:
                    return discrepancy((), {"p": _w(p), "pair": [a, b]})
                if a_p == b_p == zero and sat[a] != sat[b]:
                    note = ("pairs with zero common translate and distinct "
                            "saturations exist (finite truncation artifact)")
    return holds(note=note)


@_register("Co3.9", "under left cancellation, comparability implies weak "
                    "comparability; the converse fails at finite scale and is "
                    "reported as a note when witnessed",
           requires=(LEFT_CANCELLATIVE,))
def _co39(s: Semigroup, cap: int) -> Verdict:
    # weak does not imply strict for finite monoids: order-5 left
    # cancellative examples exist where two incomparable principal ideals
    # share a nonzero translate a*P == b*P yet saturate differently, so only
    # the forward implication is asserted; a witnessed converse failure is
    # surfaced in the note for review
    note = None
    for p in completely_prime_spectrum(s, cap):
        rep = is_right_p_comparable(s, p)
        if rep.holds and not rep.weak_holds:
            return discrepancy((), {"p": _w(p), "holds": rep.holds,
                                    "weak": rep.weak_holds})
        if rep.weak_holds and not rep.holds:
            note = ("weakly comparable but not comparable with respect to "
                    f"P = {_w(p)}; the two notions separate at finite scale")
    return holds(note=note)


@_register("Pr3.10", "under comparability and left cancellation the translate "
                     "class of any a with a*P nonzero equals the saturation of aS "
                     "and is a right waist",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _pr310(s: Semigroup, cap: int) -> Verdict:
    # elements annihilating P share the zero translate, so their class lumps
    # every annihilator together while the saturations stay apart; the claim
    # is checked for the nonzero translate classes (same artifact as the
    # translate/saturation equivalence)
    zero = s.zero_mask
    for p in comparability_ideals(s, cap):
        sat = saturation_by_element(s, p)
        trans = s.translates(p)
        for a, a_p in enumerate(trans):
            if a_p == zero:
                continue
            cls = equivalence_class(s, a, p)
            if cls != sat[a]:
                return discrepancy((), {"p": _w(p), "a": a, "class": _w(cls),
                                        "saturation": _w(sat[a])})
            if sat[a] != s.full and not is_waist(s, sat[a]):
                return discrepancy((), {"p": _w(p), "a": a, "fails": "waist"})
            for b, b_p in enumerate(trans):
                if b_p == a_p and sat[b] != sat[a]:
                    return discrepancy((), {"p": _w(p), "pair": [a, b]})
    return holds()


def _ideals_with_associated(s: Semigroup, cap: int, p: Mask):
    for m in _nonempty_proper(s, enumerate_ideals(s, IdealKind.RIGHT, cap)):
        if associated_prime(s, m) == p:
            yield m


@_register("Lem3.11", "under comparability and left cancellation a right ideal "
                      "whose associated prime is the comparability ideal is the "
                      "union of its member saturations and a right waist",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem311(s: Semigroup, cap: int) -> Verdict:
    for p in comparability_ideals(s, cap):
        sat = saturation_by_element(s, p)
        for m in _ideals_with_associated(s, cap, p):
            union = 0
            for a in mask_elems(m):
                union |= sat[a]
            if union != m or not is_waist(s, m):
                return discrepancy((), {"p": _w(p), "ideal": _w(m),
                                        "union": _w(union)})
    return holds()


@_register("Co3.12", "the same ideals equal the intersections of outside translates "
                     "of the comparability ideal and of the nonunits",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _co312(s: Semigroup, cap: int) -> Verdict:
    j = s.nonunits_mask()
    for p in comparability_ideals(s, cap):
        for m in _ideals_with_associated(s, cap, p):
            outside = mask_elems(s.full & ~m)
            ip = _translate_intersection(s, outside, p)
            ij = _translate_intersection(s, outside, j)
            if not (m == ip == ij):
                return discrepancy((), {"p": _w(p), "ideal": _w(m),
                                        "via_p": _w(ip), "via_nonunits": _w(ij)})
    return holds()


@_register("Thm3.13", "for a nonzero right ideal I under comparability with respect "
                      "to its associated prime and left cancellation: the associated "
                      "prime sits in the nonunits, I is an intersection of its "
                      "translates, a union of saturations, and a right waist",
           requires=(LEFT_CANCELLATIVE,))
def _thm313(s: Semigroup, cap: int) -> Verdict:
    j = s.nonunits_mask()
    cp_right = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap)
    count = 0
    for m in _nonempty_proper(s, enumerate_ideals(s, IdealKind.RIGHT, cap)):
        if m == s.zero_mask:
            continue
        p0 = associated_prime(s, m)
        if p0 not in cp_right or not is_right_p_comparable(s, p0).holds:
            continue
        count += 1
        outside = mask_elems(s.full & ~m)
        ip = _translate_intersection(s, outside, p0)
        sat = saturation_by_element(s, p0)
        union = 0
        for a in mask_elems(m):
            union |= sat[a]
        ok = is_subset(p0, j) and ip == m and union == m and is_waist(s, m)
        if not ok:
            return discrepancy((), {"ideal": _w(m), "associated": _w(p0)})
    return _found("has_qualifying_right_ideal", count)


@_register("Lem3.14", "under comparability and left cancellation, translates a*Q of "
                      "a completely prime ideal below the comparability ideal have "
                      "associated prime exactly Q",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem314(s: Semigroup, cap: int) -> Verdict:
    spec = completely_prime_spectrum(s, cap)
    for p in comparability_ideals(s, cap):
        for q in spec:
            if not is_subset(q, p):
                continue
            for a, aq in enumerate(s.translates(q)):
                if aq == s.full or associated_prime(s, aq) != q:
                    return discrepancy((), {"p": _w(p), "q": _w(q), "a": a})
    return holds()


@_register("Pr3.15", "power tails t^n S that never hit the zero ideal, for t inside "
                     "a comparability ideal under left cancellation, intersect to a "
                     "prime right waist, completely prime when two-sided",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _pr315(s: Semigroup, cap: int) -> Verdict:
    count = 0
    for p in comparability_ideals(s, cap):
        # v lies in vS, so every power ideal t^k S is nonzero exactly when
        # t is not nilpotent
        for t in mask_elems(p & ~s.nilpotent_elements()):
            count += 1
            q = tail_intersection(s, t)
            good = is_prime(s, q) and is_waist(s, q)
            if good and is_ideal(s, q, IdealKind.TWO_SIDED):
                good = is_completely_prime(s, q)
            if not good:
                return discrepancy((), {"p": _w(p), "t": t, "tail": _w(q)})
    return _found("has_element_with_nonzero_power_tails", count)


# ---------------------------------------------------------------------------
# prime segments


@_register("Lem4.4", "an exceptional prime inside a comparability ideal has a "
                     "unique idempotent waist ideal minimal over it",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem44(s: Semigroup, cap: int) -> Verdict:
    count = 0
    for p in comparability_ideals(s, cap):
        for q in exceptional_primes(s, cap):
            if q == p or not is_subset(q, p):
                continue
            count += 1
            d = pairing_ideal(s, q, cap)
            if d is None:
                return discrepancy((), {"q": _w(q), "fails": "no waist ideal above"})
            ok = (
                d != q
                and is_subset(q, d)
                and is_waist(s, d)
                and not strictly_between(s, q, d, cap)
                and s.product(d, d) == d
            )
            if not ok:
                return discrepancy((), {"q": _w(q), "d": _w(d)})
    return _found("has_exceptional_prime", count)


@_register("Lem4.5", "the pairing ideal of an exceptional prime contains an element "
                     "whose power tail intersection strictly exceeds the prime",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem45(s: Semigroup, cap: int) -> Verdict:
    count = 0
    for p in comparability_ideals(s, cap):
        for q in exceptional_primes(s, cap):
            if q == p or not is_subset(q, p):
                continue
            d = pairing_ideal(s, q, cap)
            if d is None:
                continue
            count += 1
            if has_non_nilpotent_over(s, d, q) is None:
                return discrepancy((), {"q": _w(q), "d": _w(d)})
    return _found("has_exceptional_prime", count)


def _alpha_family(s: Semigroup, cap: int, p: Mask) -> list[Mask]:
    semi = prime_family(s, PrimenessKind.SEMIPRIME, IdealKind.TWO_SIDED, cap)
    return [m for m in semi if m != p and is_subset(m, p)]


@_register("Lem4.6.i", "semiprime two-sided ideals strictly below a comparability "
                       "ideal form a chain",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46i(s: Semigroup, cap: int) -> Verdict:
    for p in comparability_ideals(s, cap):
        pair = _incomparable_pair(_alpha_family(s, cap, p))
        if pair:
            return discrepancy((), {"p": _w(p), "pair": _w(pair)})
    return holds()


@_register("Lem4.6.ii", "that family is closed under union and intersection",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46ii(s: Semigroup, cap: int) -> Verdict:
    for p in comparability_ideals(s, cap):
        alpha = set(_alpha_family(s, cap, p))
        for a in alpha:
            for b in alpha:
                if (a | b) not in alpha or (a & b) not in alpha:
                    return discrepancy((), {"p": _w(p), "pair": [_w(a), _w(b)]})
    return holds()


@_register("Lem4.6.iii", "when nonempty, that family has a least member",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46iii(s: Semigroup, cap: int) -> Verdict:
    count = 0
    for p in comparability_ideals(s, cap):
        alpha = _alpha_family(s, cap, p)
        if not alpha:
            continue
        count += 1
        low = s.full
        for m in alpha:
            low &= m
        if low not in alpha:
            return discrepancy((), {"p": _w(p), "meet": _w(low)})
    return _found("has_semiprime_below", count)


@_register("Lem4.6.iv", "every completely semiprime ideal strictly below a "
                        "comparability ideal sits inside a completely prime ideal "
                        "that forms a prime segment with it",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46iv(s: Semigroup, cap: int) -> Verdict:
    count = 0
    semi = prime_family(s, PrimenessKind.COMPLETELY_SEMIPRIME, IdealKind.TWO_SIDED, cap)
    for p in comparability_ideals(s, cap):
        covers = [g.lower for g in prime_segments(s, cap) if g.upper == p and not g.bottom]
        for m in semi:
            if m == p or not is_subset(m, p):
                continue
            count += 1
            if not any(is_subset(m, p0) for p0 in covers):
                return discrepancy((), {"p": _w(p), "ideal": _w(m)})
    return _found("has_completely_semiprime_below", count)


@_register("Thm4.8", "prime segments under comparability and left cancellation "
                     "classify as archimedean, simple or exceptional, with the "
                     "lower ideal recovered as the power intersection of the "
                     "exceptional prime",
           requires=(LEFT_CANCELLATIVE,))
def _thm48(s: Semigroup, cap: int) -> Verdict:
    segs = prime_segments(s, cap)
    count = 0
    overlaps = 0
    for seg in segs:
        if not is_right_p_comparable(s, seg.upper).holds:
            continue
        count += 1
        cls = classify_segment(s, seg, cap)
        if cls.overlap:
            overlaps += 1
        if cls.label == NONE:
            return discrepancy((), {"segment": seg.to_dict(),
                                    "branches": cls.branches})
        if cls.label == EXCEPTIONAL:
            base = segment_base(s, seg)
            if intersect_powers(s, cls.q) != base:
                return discrepancy((), {"segment": seg.to_dict(),
                                        "q": _w(cls.q)})
    verdict = _found("has_comparable_segment", count)
    if overlaps:
        verdict = replace(verdict, note=(
            f"{overlaps} segment(s) satisfy more than one branch definition; "
            "the label follows the case order of the classification argument"))
    return verdict


@_register("Lem4.10", "locally invariant prime segments under comparability and "
                      "left cancellation satisfy the archimedean branch",
           requires=(LEFT_CANCELLATIVE,))
def _lem410(s: Semigroup, cap: int) -> Verdict:
    count = 0
    for seg in prime_segments(s, cap):
        if not is_right_p_comparable(s, seg.upper).holds:
            continue
        if not is_locally_invariant(s, seg):
            continue
        count += 1
        cls = classify_segment(s, seg, cap)
        if not cls.branches[ARCHIMEDEAN]:
            return discrepancy((), {"segment": seg.to_dict()})
    return _found("has_locally_invariant_comparable_segment", count)


# ---------------------------------------------------------------------------
# counterexample search for the open converse


def _left_cancellative_pool(order_bound: int):
    """Every enumerated left-cancellative monoid with zero of order 2 up to
    the bound, with the fields that locate it in a search report."""
    for order in range(2, order_bound + 1):
        for idx, s in enumerate(all_monoids_with_zero(order)):
            if s.is_left_cancellative():
                yield s, {"order": order, "index": idx,
                          "table": [list(r) for r in s.rows]}


def search_exceptional_candidates(order_bound: int, cap: int = DEFAULT_CAP) -> list[dict]:
    """Search all enumerated monoids with zero up to the bound for a prime,
    not completely prime, two-sided ideal sitting strictly inside a
    comparability ideal of a left-cancellative monoid.

    No such structure is known at small finite scale (the archetypal
    exceptional segment lives on an infinite carrier); any hit is reported
    with its full table so it can be studied by hand.
    """
    found = []
    for s, where in _left_cancellative_pool(order_bound):
        comp = comparability_ideals(s, cap)
        if not comp:
            continue
        for q in exceptional_primes(s, cap):
            for p in comp:
                if q != p and is_subset(q, p):
                    found.append({**where, "q": _w(q), "p": _w(p)})
    return found


def search_converse_candidates(order_bound: int, cap: int = DEFAULT_CAP) -> list[dict]:
    """Search all enumerated monoids with zero up to the bound for a
    left-cancellative, comparable, archimedean prime segment that is NOT
    locally invariant.

    An empty list claims nothing beyond the bound; any candidate is
    revalidated by its defining predicates before being reported.
    """
    found = []
    for s, where in _left_cancellative_pool(order_bound):
        for seg in prime_segments(s, cap):
            if not is_right_p_comparable(s, seg.upper).holds:
                continue
            cls = classify_segment(s, seg, cap)
            if cls.branches[ARCHIMEDEAN] and not is_locally_invariant(s, seg):
                found.append({**where, "segment": seg.to_dict()})
    return found
