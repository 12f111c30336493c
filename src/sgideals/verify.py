"""Registry of structural properties checked exhaustively on one semigroup.

A check declares its hypotheses as data (requires=, a tuple of Gates, and
exists=, the Gate finding the objects it quantifies over) and a body, a
generator that yields each witness against its conclusion and may return a
note.  run_check evaluates each gate exactly as stated, records it in the
trace, runs the body only when all of them hold, on the objects the exists
gate found, and alone builds the three-valued Verdict: the first witness
makes a discrepancy, and a body that ends without one holds with its note.
Quantified objects are swept in full (within the enumeration cap), and a
failed conclusion always carries a minimal witness.  Checks never raise on a
valid semigroup; a blown ideal cap turns into a vacuous verdict, reason "cap".
run_suite decides each distinct requires= tuple once per monoid: a check
stopped by a failed required gate, with no note and no exists= entry in its
trace, lends its vacuous verdict, the same object, to every later check with
an equal requires= tuple (README, "The suite decides each hypothesis once").
"""
from __future__ import annotations

from typing import Callable, Generator, NamedTuple

from .core import Mask, Semigroup, is_subset, mask_elems, memoized
from .classify import (
    PrimenessKind,
    associated_prime,
    associated_primes,
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
    is_ideal,
    is_nil_set,
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
    PrimeSegment,
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
from .verdict import VACUOUS, Verdict, discrepancy, holds, vacuous


class UnknownCheck(KeyError):
    pass


class Gate(NamedTuple):
    """A named hypothesis; s satisfies it when test(s, cap) is truthy, and an
    exists= gate returns the objects it found, which its body receives."""

    name: str
    test: Callable[[Semigroup, int], object]


Witnesses = Generator[dict, None, "str | None"]


class TheoremCheck(NamedTuple):
    """A statement, its gates (requires=, then exists=) and a body that
    yields each witness against its conclusion, then may return a note; it
    takes s and cap, then the objects its exists= gate found, if it has one."""

    id: str
    statement: str
    fn: Callable[..., Witnesses]
    requires: tuple[Gate, ...] = ()
    exists: Gate | None = None


CHECKS: dict[str, TheoremCheck] = {}


def _register(check_id: str, statement: str, requires: tuple[Gate, ...] = (),
              exists: Gate | None = None):
    def deco(fn):
        CHECKS[normalize_id(check_id)] = TheoremCheck(check_id, statement, fn, requires, exists)
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
    """Record every gate the check requires, in order, then its exists gate
    if those held; vacuous if any failed.  Otherwise the body's first witness
    makes a discrepancy, or its return value the note of a holds, each with
    the gates as its trace."""
    # run_suite passes registry keys, each a fixed point of normalize_id, so
    # the raw lookup spares the suite one normalize_id call per check
    check = CHECKS.get(check_id) or CHECKS.get(normalize_id(check_id))
    if check is None:
        raise UnknownCheck(f"no check named {check_id!r}")
    try:
        trace, held, found = [], True, ()
        for gate in check.requires:
            ok = bool(gate.test(s, cap))
            trace.append((gate.name, ok))
            held = held and ok
        if held and check.exists:
            found = (check.exists.test(s, cap),)
            held = bool(found[0])
            trace.append((check.exists.name, held))
        if not held:
            return vacuous(trace)
        body = check.fn(s, cap, *found)
        try:
            witness = next(body)
        except StopIteration as end:
            return holds(end.value, trace)
        return discrepancy(witness, trace)
    except CapExceeded:
        return vacuous((("cap_not_exceeded", False),), note="cap")


def run_suite(s: Semigroup, cap: int = DEFAULT_CAP) -> list[tuple[str, Verdict]]:
    """Every registered check in id order, each verdict equal to
    run_check(s, key, cap).  A vacuous verdict with no note and one trace
    entry per required gate was stopped by a required gate before any
    exists= gate was read, so it depends on the requires= tuple, s and cap
    alone: later checks with an equal tuple reuse that object instead of
    calling run_check.  A "cap" verdict or an exists= failure is never
    reused."""
    stopped: dict[tuple[Gate, ...], Verdict] = {}
    out = []
    for key in sorted(CHECKS):
        check = CHECKS[key]
        verdict = stopped.get(check.requires)
        if verdict is None:
            verdict = run_check(s, key, cap)
            if (verdict.status == VACUOUS and verdict.note is None
                    and len(verdict.hypothesis_trace) == len(check.requires)):
                stopped[check.requires] = verdict
        out.append((check.id, verdict))
    return out


def registered_ids() -> list[str]:
    return [CHECKS[k].id for k in sorted(CHECKS)]


# ---------------------------------------------------------------------------
# shared sweep helpers and gates


def _nonempty_proper(s: Semigroup, masks):
    # every body passes the empty mask, but Lem2.2.i would then memoize its
    # translates, an entry per instance that no verdict needs (README)
    return [m for m in masks if m and m != s.full]


@memoized
def comparability_ideals(s: Semigroup, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """Completely prime two-sided ideals P for which the pairwise
    comparability condition holds."""
    return tuple(
        p for p in completely_prime_spectrum(s, cap) if is_right_p_comparable(s, p).holds
    )


def _comparable_segments(s: Semigroup, cap: int) -> list[PrimeSegment]:
    """The prime segments whose upper ideal is a comparability ideal; every
    upper ideal lies in the spectrum that comparability_ideals filters."""
    comp = comparability_ideals(s, cap)
    return [seg for seg in prime_segments(s, cap) if seg.upper in comp]


def _exceptional_pairs(s: Semigroup, cap: int) -> list[tuple[Mask, Mask]]:
    """The pairs (p, q) of a comparability ideal p and an exceptional prime q
    strictly inside it, p outer."""
    return [(p, q) for p in comparability_ideals(s, cap)
            for q in exceptional_primes(s, cap) if q != p and is_subset(q, p)]


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


LEFT_CANCELLATIVE = Gate("left_cancellative", lambda s, cap: s.is_left_cancellative())
CANCELLATIVE = Gate("cancellative", lambda s, cap: s.is_cancellative())
HAS_COMPARABILITY_IDEAL = Gate(
    "has_comparability_ideal", lambda s, cap: bool(comparability_ideals(s, cap))
)
# the comparizer radical is a right ideal, hence closed under products, and
# such a set is nilpotent exactly when it is nil (README, "What a check
# costs"): two memoized masks and one subset test, no power sequence
COMPARIZER_RADICAL_NILPOTENT = Gate(
    "comparizer_radical_nilpotent",
    lambda s, cap: is_nil_set(s, comparizer_radical(s)),
)
COMPARIZER_RADICAL_NONNILPOTENT = Gate(
    "comparizer_radical_nonnilpotent",
    lambda s, cap: not is_nil_set(s, comparizer_radical(s)),
)
# Lem3.1 reads all 2^n subsets of the carrier at once, each predicate a
# truth table of 2^n bits (localize.OreSweep), so time and memory double per
# element; README "The Lem3.1 sweep" gives the times up to n = 20
SUBSET_ENUMERATION_FEASIBLE = Gate("subset_enumeration_feasible", lambda s, cap: s.n <= 12)


# ---------------------------------------------------------------------------
# comparizer ideals and waists


@_register("Lem2.1.i", "the zero ideal is a right comparizer ideal")
def _lem21i(s: Semigroup, cap: int) -> Witnesses:
    if not is_comparizer(s, s.zero_mask):
        yield {"ideal": _w(s.zero_mask)}


@_register("Lem2.1.ii", "unions of right comparizer ideals are right comparizers")
def _lem21ii(s: Semigroup, cap: int) -> Witnesses:
    # the comparizer condition passes to subsets (b*J inside b*I when J lies
    # inside I), so the union of every comparizer ideal settles every union
    total = 0
    for m in comparizer_ideals(s, cap):
        total |= m
    if not is_comparizer(s, total):
        yield {"union_of_all": _w(total)}


@_register("Lem2.1.iii", "right ideals inside a right comparizer ideal are right comparizers")
def _lem21iii(s: Semigroup, cap: int) -> Witnesses:
    big = comparizer_radical(s)
    for m in enumerate_ideals(s, IdealKind.RIGHT, cap):
        if is_subset(m, big) and not is_comparizer(s, m):
            yield {"ideal": _w(m)}


@_register("Lem2.2.i", "an idempotent two-sided right waist I satisfies I == a*I off I")
def _lem22i(s: Semigroup, cap: int) -> Witnesses:
    for m in _nonempty_proper(s, enumerate_ideals(s, IdealKind.TWO_SIDED, cap)):
        if s.product(m, m) != m or not is_waist(s, m):
            continue
        trans = s.translates(m)
        for a in mask_elems(s.full & ~m):
            if trans[a] != m:
                yield {"ideal": _w(m), "a": a}


@_register("Lem2.2.ii", "a completely prime two-sided ideal is a right waist "
                        "exactly when every outside element translates it onto itself")
def _lem22ii(s: Semigroup, cap: int) -> Witnesses:
    for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap):
        trans = s.translates(p)
        translate = all(trans[a] == p for a in mask_elems(s.full & ~p))
        if is_waist(s, p) != translate:
            yield {"ideal": _w(p), "translates": translate}


@_register("Pr2.3.i", "in a cancellative monoid the nonunits form a maximal right "
                      "and maximal left ideal", requires=(CANCELLATIVE,))
def _pr23i(s: Semigroup, cap: int) -> Witnesses:
    j = s.nonunits_mask()
    if not is_ideal(s, j, IdealKind.TWO_SIDED):
        yield {"nonunits": _w(j)}
    for kind in (IdealKind.RIGHT, IdealKind.LEFT):
        for m in enumerate_ideals(s, kind, cap):
            if is_subset(j, m) and m not in (j, s.full):
                yield {"between": _w(m), "kind": kind.value}


@_register("Pr2.3.ii", "in a cancellative monoid the nonunits form a completely "
                       "prime ideal", requires=(CANCELLATIVE,))
def _pr23ii(s: Semigroup, cap: int) -> Witnesses:
    j = s.nonunits_mask()
    if not (is_ideal(s, j, IdealKind.TWO_SIDED) and is_completely_prime(s, j)):
        yield {"nonunits": _w(j)}


def _proper_union(s: Semigroup, cap: int, kind: IdealKind) -> Mask:
    out = 0
    for m in enumerate_ideals(s, kind, cap):
        if m != s.full:
            out |= m
    return out


@_register("Pr2.3.iii", "in a cancellative monoid the nonunits equal the union of "
                        "all proper right ideals", requires=(CANCELLATIVE,))
def _pr23iii(s: Semigroup, cap: int) -> Witnesses:
    u = _proper_union(s, cap, IdealKind.RIGHT)
    if u != s.nonunits_mask():
        yield {"union": _w(u)}


@_register("Pr2.3.iv", "in a cancellative monoid the nonunits equal the union of "
                       "all proper left ideals", requires=(CANCELLATIVE,))
def _pr23iv(s: Semigroup, cap: int) -> Witnesses:
    u = _proper_union(s, cap, IdealKind.LEFT)
    if u != s.nonunits_mask():
        yield {"union": _w(u)}


def _two_sided_comparizers(s: Semigroup, cap: int) -> list[Mask]:
    two = set(enumerate_ideals(s, IdealKind.TWO_SIDED, cap))
    return [m for m in _nonempty_proper(s, comparizer_ideals(s, cap)) if m in two]


@_register("Thm2.4.i", "an idempotent right comparizer ideal is a right waist")
def _thm24i(s: Semigroup, cap: int) -> Witnesses:
    # a nonempty proper comparizer ideal is a right ideal, so it is a right
    # waist exactly when it is a member of the family
    waists = set(right_waists(s, cap))
    for m in _nonempty_proper(s, comparizer_ideals(s, cap)):
        if s.product(m, m) == m and m not in waists:
            yield {"ideal": _w(m)}


@_register("Thm2.4.ii", "left translates of a comparizer right waist are right waists")
def _thm24ii(s: Semigroup, cap: int) -> Witnesses:
    # a left translate of a right ideal is a right ideal, so it is a right
    # waist exactly when it is a member of the family
    waists = set(right_waists(s, cap))
    for m in comparizer_ideals(s, cap):
        if m not in waists:
            continue
        for a, a_m in enumerate(s.translates(m)):
            if a_m not in waists:
                yield {"ideal": _w(m), "a": a}


@_register("Thm2.4.iii", "a prime right ideal not containing a comparizer ideal I "
                         "is a right waist strictly inside I; the prime right "
                         "ideals inside I form a chain")
def _thm24iii(s: Semigroup, cap: int) -> Witnesses:
    # a prime right ideal is a nonempty proper right ideal, so it is a right
    # waist exactly when it is a member of the family; once every prime
    # strictly inside I is a waist, the primes inside I form a chain, since
    # waists are pairwise comparable (README, "Right waists form a chain")
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap)
    waists = set(right_waists(s, cap))
    for i_mask in _nonempty_proper(s, comparizer_ideals(s, cap)):
        for p in primes:
            if not is_subset(i_mask, p) and not (p in waists and is_subset(p, i_mask)):
                yield {"comparizer": _w(i_mask), "prime": _w(p)}


@_register("Thm2.4.iv", "under left cancellation the power intersection of a "
                        "nonnilpotent two-sided comparizer ideal is completely prime",
           requires=(LEFT_CANCELLATIVE,))
def _thm24iv(s: Semigroup, cap: int) -> Witnesses:
    # an ideal is closed under products, so nil is nilpotent for it
    for m in _two_sided_comparizers(s, cap):
        if is_nil_set(s, m):
            continue
        core = intersect_powers(s, m)
        if not is_completely_prime(s, core):
            yield {"ideal": _w(m), "core": _w(core)}


@_register("Thm2.4.v", "under left cancellation an idempotent (hence nonnilpotent) "
                       "two-sided comparizer ideal is completely prime",
           requires=(LEFT_CANCELLATIVE,))
def _thm24v(s: Semigroup, cap: int) -> Witnesses:
    for m in _two_sided_comparizers(s, cap):
        if s.product(m, m) != m or is_nil_set(s, m):
            continue
        if not is_completely_prime(s, m):
            yield {"ideal": _w(m)}


@_register("Lem2.5.i", "inside a right waist, comparizer behaviour among the "
                       "contained right ideals equals global comparizer behaviour")
def _lem25i(s: Semigroup, cap: int) -> Witnesses:
    fam = enumerate_ideals(s, IdealKind.RIGHT, cap)
    comps = set(comparizer_ideals(s, cap))
    for w in right_waists(s, cap):
        for c in fam:
            if not is_subset(c, w):
                continue
            if is_comparizer(s, c, w) != (c in comps):
                yield {"waist": _w(w), "ideal": _w(c)}


@_register("Lem2.5.ii", "for a right waist I, the ideal I meet right-annihilator(I) "
                        "is a right comparizer")
def _lem25ii(s: Semigroup, cap: int) -> Witnesses:
    # the right annihilator of a right ideal is a right ideal, and so is a
    # meet of right ideals: membership in the family decides
    comps = set(comparizer_ideals(s, cap))
    for w in right_waists(s, cap):
        c = w & right_annihilator(s, w)
        if c not in comps:
            yield {"waist": _w(w), "ideal": _w(c)}


@_register("Lem2.5.iii", "for a nilpotent right waist with I^n == 0, the power "
                         "I^(n-1) is a right comparizer")
def _lem25iii(s: Semigroup, cap: int) -> Witnesses:
    # every power of a right ideal is a right ideal: membership decides
    zero = s.zero_mask
    comps = set(comparizer_ideals(s, cap))
    for w in right_waists(s, cap):
        seq = power_sequence(s, w)
        k = next((k for k in range(1, len(seq)) if is_subset(seq[k], zero)), None)
        if k is not None and seq[k - 1] not in comps:
            yield {"waist": _w(w), "power": k}


@_register("Lem2.6.i", "the largest comparizer ideal equals the union of all "
                       "comparizer right ideals and obeys the elementwise formula")
def _lem26i(s: Semigroup, cap: int) -> Witnesses:
    union = 0
    for m in comparizer_ideals(s, cap):
        union |= m
    c = comparizer_radical(s)
    if c != union:
        yield {"elementwise": _w(c), "union": _w(union)}


@_register("Lem2.6.ii", "right chain monoids are exactly those whose comparizer "
                        "radical is the whole carrier")
def _lem26ii(s: Semigroup, cap: int) -> Witnesses:
    if is_right_chain(s) != (comparizer_radical(s) == s.full):
        yield {"comparizer_radical": _w(comparizer_radical(s))}


# ---------------------------------------------------------------------------
# radicals


@_register("Thm2.7.i", "a nilpotent comparizer radical lies inside the "
                       "completely prime radical",
           requires=(COMPARIZER_RADICAL_NILPOTENT,))
def _thm27i(s: Semigroup, cap: int) -> Witnesses:
    # no exists= gate: the nonunits are completely prime in every finite
    # monoid (README, "Finite shadow"), so the spectrum is never empty
    c = comparizer_radical(s)
    if not is_subset(c, radicals(s, cap).completely_prime_radical):
        yield {"comparizer_radical": _w(c)}


@_register("Thm2.7.ii", "a nonnilpotent comparizer radical contains the completely "
                        "prime radical, which is then completely prime and a right waist",
           requires=(COMPARIZER_RADICAL_NONNILPOTENT,))
def _thm27ii(s: Semigroup, cap: int) -> Witnesses:
    c = comparizer_radical(s)
    nrad = radicals(s, cap).completely_prime_radical
    if not (is_subset(nrad, c) and is_completely_prime(s, nrad) and is_waist(s, nrad)):
        yield {"completely_prime_radical": _w(nrad)}


@_register("Thm2.7.iii", "a nonnilpotent comparizer radical makes the prime radical "
                         "prime and a right waist",
           requires=(COMPARIZER_RADICAL_NONNILPOTENT,))
def _thm27iii(s: Semigroup, cap: int) -> Witnesses:
    beta = radicals(s, cap).prime_radical
    if not (is_prime(s, beta) and is_waist(s, beta)):
        yield {"prime_radical": _w(beta)}


@_register("Thm2.8.i", "under left cancellation with nonnilpotent comparizer "
                       "radical, nilpotent elements contract translates of the "
                       "completely prime radical: t*(a*N) inside a*N",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28i(s: Semigroup, cap: int) -> Witnesses:
    nrad = radicals(s, cap).completely_prime_radical
    nilp = mask_elems(s.nilpotent_elements())
    for a, a_n in enumerate(s.translates(nrad)):
        t_a_n = s.left_muls(a_n)
        for t in nilp:
            if not is_subset(t_a_n[t], a_n):
                yield {"t": t, "a": a}


@_register("Thm2.8.ii", "under the same gates the nilpotent elements are "
                        "multiplicatively closed and each generates a nilpotent "
                        "ideal of that subsemigroup",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28ii(s: Semigroup, cap: int) -> Witnesses:
    # the second clause holds whenever the first does: in a closed T, the
    # ideal of T that t generates is closed and nil, hence nilpotent
    # (README, "Finite shadow")
    t_mask = s.nilpotent_elements()
    if not is_subset(s.product(t_mask, t_mask), t_mask):
        yield {"nilpotents": _w(t_mask)}


@_register("Thm2.8.iii", "under the same gates the nilpotent-ideal union, the "
                         "prime radical and the nil radical coincide, prime and "
                         "a right waist",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm28iii(s: Semigroup, cap: int) -> Witnesses:
    # the three radicals are one mask at every finite order (README, "Finite
    # shadow"), so what is left is Thm2.7.iii's clause
    yield from _thm27iii(s, cap)


@_register("Co2.9", "under the same gates every two-sided ideal sits below the "
                    "prime radical or above the completely prime radical",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _co29(s: Semigroup, cap: int) -> Witnesses:
    rad = radicals(s, cap)
    for m in enumerate_ideals(s, IdealKind.TWO_SIDED, cap):
        if not is_subset(m, rad.prime_radical) and not is_subset(
            rad.completely_prime_radical, m
        ):
            yield {"ideal": _w(m)}


@_register("Thm2.10", "under the same gates: nilpotent elements form an ideal, "
                      "equal the prime radical, and the prime radical is "
                      "completely prime, all equivalent",
           requires=(LEFT_CANCELLATIVE, COMPARIZER_RADICAL_NONNILPOTENT))
def _thm210(s: Semigroup, cap: int) -> Witnesses:
    rad = radicals(s, cap)
    t_mask = s.nilpotent_elements()
    b1 = is_ideal(s, t_mask, IdealKind.TWO_SIDED)
    b2 = t_mask == rad.prime_radical
    b3 = is_completely_prime(s, rad.prime_radical)
    if not (b1 == b2 == b3):
        yield {"ideal": b1, "equals_prime_radical": b2, "radical_completely_prime": b3}


# ---------------------------------------------------------------------------
# associated primes


@_register("Lem2.12.i", "the associated prime of a nonempty proper right ideal is "
                        "a completely prime right ideal")
def _lem212i(s: Semigroup, cap: int) -> Witnesses:
    # the family holds every nonempty proper right ideal that is completely
    # prime, so membership is the conclusion
    cp_right = set(prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap))
    for a_mask, p in associated_primes(s, cap):
        if p not in cp_right:
            yield {"ideal": _w(a_mask), "associated": _w(p)}


@_register("Lem2.12.ii", "for a prime right ideal A, every right waist contains "
                         "the associated prime of A or lies inside A")
def _lem212ii(s: Semigroup, cap: int) -> Witnesses:
    # a prime right ideal is nonempty and proper, so its associated prime is
    # already in the family's table
    assoc = dict(associated_primes(s, cap))
    for a_mask in prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap):
        p = assoc[a_mask]
        for w in right_waists(s, cap):
            if not is_subset(w, a_mask) and not is_subset(p, w):
                yield {"ideal": _w(a_mask), "waist": _w(w)}


def _translate_intersection(s: Semigroup, m: Mask, p: Mask) -> Mask:
    """The intersection of the translates a*P over the elements a outside M."""
    trans = s.translates(p)
    out = s.full
    for a in mask_elems(s.full & ~m):
        out &= trans[a]
    return out


@_register("Lem2.13", "a right ideal T is a right waist exactly when it equals the "
                      "intersection of the translates a*P_r(T) over a outside T, or "
                      "that intersection is a principal cover bS of T")
def _lem213(s: Semigroup, cap: int) -> Witnesses:
    for t_mask, p in associated_primes(s, cap):
        inter = _translate_intersection(s, t_mask, p)
        # T == inter, or inter is a principal cover of T; the cover follows
        # from T strictly inside inter (README, "Principal covers")
        rhs = is_subset(t_mask, inter)
        if is_waist(s, t_mask) != rhs:
            yield {"ideal": _w(t_mask), "intersection": _w(inter), "rhs": rhs}


@_register("Co2.14", "under left cancellation a nonempty right waist equals the "
                     "intersection of its associated-prime translates and of the "
                     "nonunit translates", requires=(LEFT_CANCELLATIVE,))
def _co214(s: Semigroup, cap: int) -> Witnesses:
    # without left cancellation an idempotent nonunit e with b == b*e defeats
    # the translate intersection through the nonunits (b never leaves b*J),
    # and order-3 counterexamples exist; the cancellation law restores the
    # argument, so it is a hypothesis here
    j = s.nonunits_mask()
    for t_mask in right_waists(s, cap):
        p = associated_prime(s, t_mask)
        ip = _translate_intersection(s, t_mask, p)
        ij = _translate_intersection(s, t_mask, j)
        if not (t_mask == ip == ij):
            yield {"waist": _w(t_mask), "via_prime": _w(ip), "via_nonunits": _w(ij)}


# ---------------------------------------------------------------------------
# saturation and comparability


@_register("Lem3.1", "saturation of a principal right ideal by a right Ore set is "
                     "a right ideal", requires=(SUBSET_ENUMERATION_FEASIBLE,))
def _lem31(s: Semigroup, cap: int) -> Witnesses:
    found = OreSweep(s).first_non_ideal_saturation()
    if found is not None:
        t_mask, a = found
        yield {"ore_set": _w(t_mask), "a": a}


@_register("Lem3.4", "a comparability ideal is a right waist, the completely prime "
                     "ideals below it form a chain, and the completely prime "
                     "radical is completely prime and a right waist",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem34(s: Semigroup, cap: int) -> Witnesses:
    spec = completely_prime_spectrum(s, cap)
    rad = radicals(s, cap)
    for p in comparability_ideals(s, cap):
        if not is_waist(s, p):
            yield {"p": _w(p), "fails": "waist"}
        pair = _incomparable_pair([q for q in spec if is_subset(q, p)])
        if pair:
            yield {"p": _w(p), "pair": _w(pair)}
    nrad = rad.completely_prime_radical
    if not (is_completely_prime(s, nrad) and is_waist(s, nrad)):
        yield {"completely_prime_radical": _w(nrad)}


@_register("Pr3.5", "the five comparability conditions agree for every completely "
                    "prime right ideal")
def _pr35(s: Semigroup, cap: int) -> Witnesses:
    for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap):
        rep = is_right_p_comparable(s, p)
        if len(set(rep.conditions)) != 1:
            yield {"p": _w(p), "conditions": list(rep.conditions)}


@_register("Thm3.6.i", "semiprime right ideals below a comparability ideal are "
                       "prime right ideals and right waists",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36i(s: Semigroup, cap: int) -> Witnesses:
    semi = prime_family(s, PrimenessKind.SEMIPRIME, IdealKind.RIGHT, cap)
    primes = set(prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap))
    waists = set(right_waists(s, cap))
    for p in comparability_ideals(s, cap):
        for q in semi:
            if is_subset(q, p) and not (q in primes and q in waists):
                yield {"p": _w(p), "ideal": _w(q)}


@_register("Thm3.6.ii", "prime right ideals below a comparability ideal form a "
                        "chain, and the prime radical is prime and a right waist",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36ii(s: Semigroup, cap: int) -> Witnesses:
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, cap)
    for p in comparability_ideals(s, cap):
        pair = _incomparable_pair([q for q in primes if is_subset(q, p)])
        if pair:
            yield {"p": _w(p), "pair": _w(pair)}
    yield from _thm27iii(s, cap)


@_register("Thm3.6.iii", "below a comparability ideal, two-sided ideals are "
                         "completely prime exactly when completely semiprime",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _thm36iii(s: Semigroup, cap: int) -> Witnesses:
    complete = set(prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED, cap))
    semi = set(prime_family(s, PrimenessKind.COMPLETELY_SEMIPRIME, IdealKind.TWO_SIDED, cap))
    for p in comparability_ideals(s, cap):
        for q in enumerate_ideals(s, IdealKind.TWO_SIDED, cap):
            if not is_subset(q, p):
                continue
            if (q in complete) != (q in semi):
                yield {"p": _w(p), "ideal": _w(q)}


@_register("Lem3.7", "right-ideal right waists below a comparability ideal stay "
                     "right waists under left translation",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem37(s: Semigroup, cap: int) -> Witnesses:
    # left translates of right ideals are right ideals: membership decides
    waists = set(right_waists(s, cap))
    for p in comparability_ideals(s, cap):
        for w in right_waists(s, cap):
            if not is_subset(w, p):
                continue
            for a, a_w in enumerate(s.translates(w)):
                if a_w not in waists:
                    yield {"p": _w(p), "waist": _w(w), "a": a}


@_register("Thm3.8", "under comparability and left cancellation, equal saturations "
                     "of aS and bS force a*P == b*P, and the converse holds for "
                     "pairs whose common translate is not the zero ideal",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _thm38(s: Semigroup, cap: int) -> Witnesses:
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
                    yield {"p": _w(p), "pair": [a, b]}
                if a_p == b_p and a_p != zero and sat[a] != sat[b]:
                    yield {"p": _w(p), "pair": [a, b]}
                if a_p == b_p == zero and sat[a] != sat[b]:
                    note = ("pairs with zero common translate and distinct "
                            "saturations exist (finite truncation artifact)")
    return note


@_register("Co3.9", "under left cancellation, comparability implies weak "
                    "comparability; the converse fails at finite scale and is "
                    "reported as a note when witnessed",
           requires=(LEFT_CANCELLATIVE,))
def _co39(s: Semigroup, cap: int) -> Witnesses:
    # weak does not imply strict for finite monoids: order-5 left
    # cancellative examples exist where two incomparable principal ideals
    # share a nonzero translate a*P == b*P yet saturate differently, so only
    # the forward implication is asserted; a witnessed converse failure is
    # surfaced in the note for review
    note = None
    for p in completely_prime_spectrum(s, cap):
        rep = is_right_p_comparable(s, p)
        if rep.holds and not rep.weak_holds:
            yield {"p": _w(p), "holds": rep.holds, "weak": rep.weak_holds}
        if rep.weak_holds and not rep.holds:
            note = ("weakly comparable but not comparable with respect to "
                    f"P = {_w(p)}; the two notions separate at finite scale")
    return note


@_register("Pr3.10", "under comparability and left cancellation the translate "
                     "class of any a with a*P nonzero equals the saturation of aS "
                     "and is a right waist",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _pr310(s: Semigroup, cap: int) -> Witnesses:
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
                yield {"p": _w(p), "a": a, "class": _w(cls), "saturation": _w(sat[a])}
            if sat[a] != s.full and not is_waist(s, sat[a]):
                yield {"p": _w(p), "a": a, "fails": "waist"}
            for b, b_p in enumerate(trans):
                if b_p == a_p and sat[b] != sat[a]:
                    yield {"p": _w(p), "pair": [a, b]}


def _ideals_with_associated(s: Semigroup, cap: int, p: Mask) -> list[Mask]:
    return [m for m, q in associated_primes(s, cap) if q == p]


@_register("Lem3.11", "under comparability and left cancellation a right ideal "
                      "whose associated prime is the comparability ideal is the "
                      "union of its member saturations and a right waist",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem311(s: Semigroup, cap: int) -> Witnesses:
    for p in comparability_ideals(s, cap):
        sat = saturation_by_element(s, p)
        for m in _ideals_with_associated(s, cap, p):
            union = 0
            for a in mask_elems(m):
                union |= sat[a]
            if union != m or not is_waist(s, m):
                yield {"p": _w(p), "ideal": _w(m), "union": _w(union)}


@_register("Co3.12", "the same ideals equal the intersections of outside translates "
                     "of the comparability ideal and of the nonunits",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _co312(s: Semigroup, cap: int) -> Witnesses:
    j = s.nonunits_mask()
    for p in comparability_ideals(s, cap):
        for m in _ideals_with_associated(s, cap, p):
            ip = _translate_intersection(s, m, p)
            ij = _translate_intersection(s, m, j)
            if not (m == ip == ij):
                yield {"p": _w(p), "ideal": _w(m), "via_p": _w(ip), "via_nonunits": _w(ij)}


def _comparable_associated(s: Semigroup, cap: int) -> list[tuple[Mask, Mask]]:
    """The pairs (I, P) of a nonzero right ideal I and its associated prime P,
    a completely prime right ideal with respect to which S is comparable."""
    cp_right = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT, cap)
    return [(m, p0) for m, p0 in associated_primes(s, cap)
            if m != s.zero_mask and p0 in cp_right and is_right_p_comparable(s, p0).holds]


@_register("Thm3.13", "for a nonzero right ideal I under comparability with respect "
                      "to its associated prime and left cancellation: the associated "
                      "prime sits in the nonunits, I is an intersection of its "
                      "translates, a union of saturations, and a right waist",
           requires=(LEFT_CANCELLATIVE,),
           exists=Gate("has_qualifying_right_ideal", _comparable_associated))
def _thm313(s: Semigroup, cap: int, pairs: list[tuple[Mask, Mask]]) -> Witnesses:
    # p0, a proper right ideal, holds no unit (README, "Finite shadow")
    for m, p0 in pairs:
        ip = _translate_intersection(s, m, p0)
        sat = saturation_by_element(s, p0)
        union = 0
        for a in mask_elems(m):
            union |= sat[a]
        if not (ip == m and union == m and is_waist(s, m)):
            yield {"ideal": _w(m), "associated": _w(p0)}


@_register("Lem3.14", "under comparability and left cancellation, translates a*Q of "
                      "a completely prime ideal below the comparability ideal have "
                      "associated prime exactly Q",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL))
def _lem314(s: Semigroup, cap: int) -> Witnesses:
    spec = completely_prime_spectrum(s, cap)
    for p in comparability_ideals(s, cap):
        for q in spec:
            if not is_subset(q, p):
                continue
            for a, aq in enumerate(s.translates(q)):
                if associated_prime(s, aq) != q:
                    yield {"p": _w(p), "q": _w(q), "a": a}


def _nonzero_tails(s: Semigroup, cap: int) -> list[tuple[Mask, int]]:
    """The pairs (P, t) of a comparability ideal P and a t in P with no power
    ideal t^k S zero: v lies in vS, so t is any non-nilpotent member."""
    return [(p, t) for p in comparability_ideals(s, cap)
            for t in mask_elems(p & ~s.nilpotent_elements())]


@_register("Pr3.15", "power tails t^n S that never hit the zero ideal, for t inside "
                     "a comparability ideal under left cancellation, intersect to a "
                     "prime right waist, completely prime when two-sided",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL),
           exists=Gate("has_element_with_nonzero_power_tails", _nonzero_tails))
def _pr315(s: Semigroup, cap: int, tails: list[tuple[Mask, int]]) -> Witnesses:
    for p, t in tails:
        q = tail_intersection(s, t)
        good = is_prime(s, q) and is_waist(s, q)
        if good and is_ideal(s, q, IdealKind.TWO_SIDED):
            good = is_completely_prime(s, q)
        if not good:
            yield {"p": _w(p), "t": t, "tail": _w(q)}


# ---------------------------------------------------------------------------
# prime segments


@_register("Lem4.4", "an exceptional prime inside a comparability ideal has a "
                     "unique idempotent waist ideal minimal over it",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL),
           exists=Gate("has_exceptional_prime", _exceptional_pairs))
def _lem44(s: Semigroup, cap: int, pairs: list[tuple[Mask, Mask]]) -> Witnesses:
    # d is a waist strictly above q by construction (README, "Right waists
    # form a chain"), so minimality and idempotence are left to test
    for _p, q in pairs:
        d = pairing_ideal(s, q, cap)
        if d is None:
            yield {"q": _w(q), "fails": "no waist ideal above"}
        elif strictly_between(s, q, d, cap) or s.product(d, d) != d:
            yield {"q": _w(q), "d": _w(d)}


def _paired_exceptionals(s: Semigroup, cap: int) -> list[tuple[Mask, Mask]]:
    """The exceptional primes Q of _exceptional_pairs that have a pairing
    ideal D, as pairs (Q, D)."""
    pairs = [(q, pairing_ideal(s, q, cap)) for _p, q in _exceptional_pairs(s, cap)]
    return [(q, d) for q, d in pairs if d is not None]


@_register("Lem4.5", "the pairing ideal of an exceptional prime contains an element "
                     "whose power tail intersection strictly exceeds the prime",
           requires=(LEFT_CANCELLATIVE, HAS_COMPARABILITY_IDEAL),
           exists=Gate("has_exceptional_prime", _paired_exceptionals))
def _lem45(s: Semigroup, cap: int, paired: list[tuple[Mask, Mask]]) -> Witnesses:
    for q, d in paired:
        if has_non_nilpotent_over(s, d, q) is None:
            yield {"q": _w(q), "d": _w(d)}


def _alpha_families(s: Semigroup, cap: int, kind: PrimenessKind = PrimenessKind.SEMIPRIME):
    """The pairs (P, A) of a comparability ideal P and the nonempty list A,
    in family order, of the two-sided ideals of the kind strictly inside P."""
    fam = prime_family(s, kind, IdealKind.TWO_SIDED, cap)
    pairs = [(p, [m for m in fam if m != p and is_subset(m, p)])
             for p in comparability_ideals(s, cap)]
    return [(p, alpha) for p, alpha in pairs if alpha]


@_register("Lem4.6.i", "semiprime two-sided ideals strictly below a comparability "
                       "ideal form a chain",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46i(s: Semigroup, cap: int) -> Witnesses:
    for p, alpha in _alpha_families(s, cap):
        pair = _incomparable_pair(alpha)
        if pair:
            yield {"p": _w(p), "pair": _w(pair)}


@_register("Lem4.6.ii", "that family is closed under union and intersection",
           requires=(HAS_COMPARABILITY_IDEAL,))
def _lem46ii(s: Semigroup, cap: int) -> Witnesses:
    for p, alpha in _alpha_families(s, cap):
        members = set(alpha)
        for a in alpha:
            for b in alpha:
                if (a | b) not in members or (a & b) not in members:
                    yield {"p": _w(p), "pair": [_w(a), _w(b)]}


@_register("Lem4.6.iii", "when nonempty, that family has a least member",
           requires=(HAS_COMPARABILITY_IDEAL,),
           exists=Gate("has_semiprime_below", _alpha_families))
def _lem46iii(s: Semigroup, cap: int, families: list[tuple[Mask, list[Mask]]]) -> Witnesses:
    for p, alpha in families:
        low = s.full
        for m in alpha:
            low &= m
        if low not in alpha:
            yield {"p": _w(p), "meet": _w(low)}


@_register("Lem4.6.iv", "every completely semiprime ideal strictly below a "
                        "comparability ideal sits inside a completely prime ideal "
                        "that forms a prime segment with it",
           requires=(HAS_COMPARABILITY_IDEAL,),
           exists=Gate("has_completely_semiprime_below", lambda s, cap: _alpha_families(
               s, cap, PrimenessKind.COMPLETELY_SEMIPRIME)))
def _lem46iv(s: Semigroup, cap: int, families: list[tuple[Mask, list[Mask]]]) -> Witnesses:
    for p, alpha in families:
        covers = [g.lower for g in prime_segments(s, cap) if g.upper == p]
        for m in alpha:
            if not any(is_subset(m, p0) for p0 in covers):
                yield {"p": _w(p), "ideal": _w(m)}


@_register("Thm4.8", "prime segments under comparability and left cancellation "
                     "classify as archimedean, simple or exceptional, with the "
                     "lower ideal recovered as the power intersection of the "
                     "exceptional prime",
           requires=(LEFT_CANCELLATIVE,),
           exists=Gate("has_comparable_segment", _comparable_segments))
def _thm48(s: Semigroup, cap: int, segments: list[PrimeSegment]) -> Witnesses:
    overlaps = 0
    for seg in segments:
        cls = classify_segment(s, seg, cap)
        if cls.overlap:
            overlaps += 1
        if cls.label == NONE:
            yield {"segment": seg.to_dict(), "branches": cls.branches}
        if cls.label == EXCEPTIONAL:
            base = segment_base(s, seg)
            if intersect_powers(s, cls.q) != base:
                yield {"segment": seg.to_dict(), "q": _w(cls.q)}
    if overlaps:
        return (f"{overlaps} segment(s) satisfy more than one branch definition; "
                "the label follows the case order of the classification argument")


def _invariant_segments(s: Semigroup, cap: int) -> list[PrimeSegment]:
    """The comparable prime segments that are locally invariant."""
    return [seg for seg in _comparable_segments(s, cap) if is_locally_invariant(s, seg)]


@_register("Lem4.10", "locally invariant prime segments under comparability and "
                      "left cancellation satisfy the archimedean branch",
           requires=(LEFT_CANCELLATIVE,),
           exists=Gate("has_locally_invariant_comparable_segment", _invariant_segments))
def _lem410(s: Semigroup, cap: int, segments: list[PrimeSegment]) -> Witnesses:
    for seg in segments:
        if not classify_segment(s, seg, cap).branches[ARCHIMEDEAN]:
            yield {"segment": seg.to_dict()}


# ---------------------------------------------------------------------------
# counterexample search for the open converse


def search_converse_candidates(order_bound: int, cap: int = DEFAULT_CAP) -> list[dict]:
    """Search all enumerated monoids with zero up to the bound for a
    left-cancellative, comparable, archimedean prime segment that is NOT
    locally invariant.  Left cancellation makes every such segment
    archimedean (README, "Finite shadow", fact (e)), so that is not tested.

    An empty list claims nothing beyond the bound; each hit carries its
    full table and segment, so it can be checked by hand.
    """
    from .corpus import all_monoids_with_zero

    found = []
    for order in range(2, order_bound + 1):
        for index, s in enumerate(all_monoids_with_zero(order)):
            if not s.is_left_cancellative():
                continue
            for seg in _comparable_segments(s, cap):
                if not is_locally_invariant(s, seg):
                    found.append({"order": order, "index": index,
                                  "table": [list(r) for r in s.rows],
                                  "segment": seg.to_dict()})
    return found
