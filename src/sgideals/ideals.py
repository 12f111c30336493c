"""Right, left and two-sided ideals: construction, arithmetic, enumeration."""
from __future__ import annotations

from enum import Enum

from .core import Mask, Semigroup, is_subset, mask_elems, memoized, popcount

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


def is_ideal(s: Semigroup, x: Mask, kind: IdealKind) -> bool:
    """Closure test.  The empty set counts as an ideal of every kind."""
    for a in mask_elems(x):
        if kind is not IdealKind.LEFT and not is_subset(s.right_principal(a), x):
            return False
        if kind is not IdealKind.RIGHT and not is_subset(s.left_principal(a), x):
            return False
    return True


def principal(s: Semigroup, a: int, kind: IdealKind) -> Mask:
    """aS, Sa or SaS; contains a because the identity is present."""
    if kind is IdealKind.RIGHT:
        return s.right_principal(a)
    if kind is IdealKind.LEFT:
        return s.left_principal(a)
    return s.two_sided_principal(a)


def ideal_closure(s: Semigroup, seed: Mask, kind: IdealKind) -> Mask:
    """Smallest ideal of the given kind containing seed.

    With an identity present this is just the union of principal ideals of
    the seed elements, so a single pass suffices.
    """
    out = 0
    for a in mask_elems(seed):
        out |= principal(s, a, kind)
    return out


def power_sequence(s: Semigroup, x: Mask) -> list[Mask]:
    """X, X^2, X^3, ... up to and including the first repeated value."""
    seq = [x]
    seen = {x}
    cur = x
    while True:
        cur = s.product(cur, x)
        if cur in seen:
            seq.append(cur)
            return seq
        seen.add(cur)
        seq.append(cur)


def ideal_power(s: Semigroup, x: Mask, k: int) -> Mask:
    """X^k by iterated elementwise product; exact for arbitrary subsets.

    Read from the power sequence: past its end the powers cycle back to the
    first occurrence of its last value.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    seq = power_sequence(s, x)
    if k <= len(seq):
        return seq[k - 1]
    start = seq.index(seq[-1])
    period = len(seq) - 1 - start
    return seq[start + (k - 1 - start) % period]


def intersect_powers(s: Semigroup, x: Mask) -> Mask:
    """The intersection of all powers X^k, k >= 1 (exact, cycle aware)."""
    out = s.full
    for m in power_sequence(s, x):
        out &= m
    return out


def right_annihilator(s: Semigroup, i_mask: Mask) -> Mask:
    """{b : a*b == 0 for every a in I}."""
    zero = s.zero
    rows = s.rows
    members = mask_elems(i_mask)
    out = 0
    for b in range(s.n):
        if all(rows[a][b] == zero for a in members):
            out |= 1 << b
    return out


def _divisibility_classes(s: Semigroup, kind: IdealKind):
    """Group elements with equal principal ideals; for each class return
    (member bits, strictly-below bits)."""
    princ = [principal(s, a, kind) for a in range(s.n)]
    by_mask: dict[Mask, Mask] = {}
    for a, m in enumerate(princ):
        by_mask[m] = by_mask.get(m, 0) | (1 << a)
    classes = []
    for m, members in by_mask.items():
        classes.append((members, m & ~members))
    classes.sort(key=lambda c: (popcount(c[0] | c[1]), c[0]))
    return classes


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
    return tuple(sorted(seen, key=lambda m: (popcount(m), m)))


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
    """Every member is a nilpotent element."""
    return is_subset(x, s.nilpotent_elements())


def is_nilpotent_ideal(s: Semigroup, x: Mask) -> bool:
    """Some power of X lies inside {0} (the empty set counts as nilpotent)."""
    return is_a_nilpotent(s, x, s.zero_mask)


def is_a_nilpotent(s: Semigroup, x: Mask, a_mask: Mask) -> bool:
    """X^k inside A for some k (exact over the whole power cycle)."""
    for m in power_sequence(s, x):
        if is_subset(m, a_mask):
            return True
    return False
