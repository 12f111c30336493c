"""Right, left and two-sided ideals: construction, arithmetic, enumeration."""
from __future__ import annotations

from enum import Enum

from .core import Mask, Semigroup, is_subset, mask_elems, mask_of, memoized

DEFAULT_CAP = 1_000_000


class IdealKind(str, Enum):
    RIGHT = "right"
    LEFT = "left"
    TWO_SIDED = "two-sided"


class NotAnIdeal(ValueError):
    pass


class NotProper(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


@memoized
def principals(s: Semigroup, kind: IdealKind) -> tuple[Mask, ...]:
    """aS, Sa or SaS for every a, indexed by a.  Sa is read off column a,
    and SaS is the right closure of Sa."""
    if kind is IdealKind.RIGHT:
        return s.right_principals
    left = tuple(mask_of(column) for column in zip(*s.rows))
    if kind is IdealKind.LEFT:
        return left
    return tuple(ideal_closure(s, sa, IdealKind.RIGHT) for sa in left)


def ideal_closure(s: Semigroup, seed: Mask, kind: IdealKind) -> Mask:
    """Smallest ideal of the given kind containing seed.

    With an identity present this is just the union of principal ideals of
    the seed elements, so a single pass suffices.
    """
    princ = principals(s, kind)
    out = 0
    for a in mask_elems(seed):
        out |= princ[a]
    return out


def is_ideal(s: Semigroup, x: Mask, kind: IdealKind) -> bool:
    """Closure test: with an identity, X is an ideal exactly when the union
    of its principal ideals is X.  The empty set counts as an ideal of
    every kind."""
    return ideal_closure(s, x, kind) == x


def power_sequence(s: Semigroup, x: Mask) -> list[Mask]:
    """X, X^2, X^3, ... up to and including the first repeated value.  A
    right ideal X is taken through its right generators once."""
    gens = s.right_generators(x)
    seq = [x]
    seen = {x}
    cur = x
    while True:
        cur = s.product(cur, x) if gens is None else s.generated_product(cur, gens)
        if cur in seen:
            seq.append(cur)
            return seq
        seen.add(cur)
        seq.append(cur)


def intersect_powers(s: Semigroup, x: Mask) -> Mask:
    """The intersection of all powers X^k, k >= 1 (exact, cycle aware)."""
    out = s.full
    for m in power_sequence(s, x):
        out &= m
    return out


def right_annihilator(s: Semigroup, i_mask: Mask) -> Mask:
    """{b : a*b == 0 for every a in I}: the preimages of 0 under each a,
    intersected."""
    pre, zero = s.preimages(), s.zero
    out = s.full
    for a in mask_elems(i_mask):
        out &= pre[a][zero]
    return out


def _divisibility_classes(s: Semigroup, kind: IdealKind):
    """Group elements with equal principal ideals; for each class return
    (member bits, strictly-below bits)."""
    by_mask: dict[Mask, Mask] = {}
    for a, m in enumerate(principals(s, kind)):
        by_mask[m] = by_mask.get(m, 0) | (1 << a)
    return [(members, m & ~members) for m, members in by_mask.items()]


@memoized
def _ideal_search(s: Semigroup, kind: IdealKind, cap: int) -> tuple[Mask, ...] | None:
    """The ideals of the given kind in family order, or None once the search
    has found more than cap of them."""
    classes = _divisibility_classes(s, kind)
    seen = {0}
    queue = [0]
    for d in queue:  # the queue grows while it is read
        for members, below in classes:
            if members & d:
                continue
            if not is_subset(below, d):
                continue
            new = d | members
            if new not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(new)
                queue.append(new)
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))


def enumerate_ideals(s: Semigroup, kind: IdealKind, cap: int = DEFAULT_CAP) -> tuple[Mask, ...]:
    """All ideals of the given kind, as down-closed sets of the divisibility
    preorder (b below a iff b in aS, and the analogues for the other kinds).

    Includes the empty set and the whole carrier.  Raises CapExceeded when
    there are more than cap of them; either answer is remembered per cap.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    masks = _ideal_search(s, kind, cap)
    if masks is None:
        raise CapExceeded(f"{kind.value} ideal enumeration truncated")
    return masks


def is_nil_set(s: Semigroup, x: Mask) -> bool:
    """Every member is a nilpotent element.  On a set closed under products,
    every ideal among them, this is nilpotency: some power lies in {0}
    (README, "What a check costs")."""
    return is_subset(x, s.nilpotent_elements())
