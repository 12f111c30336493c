"""Right, left and two-sided ideals: construction, arithmetic, enumeration."""
from __future__ import annotations

from dataclasses import dataclass
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

    Powers of a one-sided ideal strictly decrease until they stabilize, so
    for ideals the loop runs at most n times regardless of k.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    cur = x
    seen: dict[Mask, int] = {x: 1}
    for step in range(2, k + 1):
        nxt = s.product(cur, x)
        if nxt == cur:
            return nxt
        if nxt in seen:
            # entered a cycle: reduce the remaining exponent modulo its length
            start = seen[nxt]
            period = step - start
            idx = start + (k - start) % period
            for m, st in seen.items():
                if st == idx:
                    return m
        seen[nxt] = step
        cur = nxt
    return cur


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


@dataclass(frozen=True)
class IdealFamily:
    masks: tuple[Mask, ...]
    kind: IdealKind
    truncated: bool

    def __iter__(self):
        return iter(self.masks)

    def __len__(self):
        return len(self.masks)

    def __contains__(self, m: Mask):
        return m in self.masks


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
def enumerate_ideals(s: Semigroup, kind: IdealKind, cap: int = DEFAULT_CAP) -> IdealFamily:
    """All ideals of the given kind, as down-closed sets of the divisibility
    preorder (b below a iff b in aS, and the analogues for the other kinds).

    Includes the empty set and the whole carrier.  When the cap is hit the
    family is returned with truncated=True and is not exhaustive.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    classes = _divisibility_classes(s, kind)
    seen = {0}
    queue = [0]
    truncated = False
    qi = 0
    while qi < len(queue):
        d = queue[qi]
        qi += 1
        for members, below in classes:
            if members & d:
                continue
            if not is_subset(below, d):
                continue
            new = d | members
            if new not in seen:
                if len(seen) >= cap:
                    truncated = True
                    break
                seen.add(new)
                queue.append(new)
        if truncated:
            break
    masks = tuple(sorted(seen, key=lambda m: (popcount(m), m)))
    return IdealFamily(masks=masks, kind=kind, truncated=truncated)


def exhaustive(fam: IdealFamily) -> tuple[Mask, ...]:
    """The masks of a family that sweeps must see in full; raises
    CapExceeded when the enumeration was truncated at its cap."""
    if fam.truncated:
        raise CapExceeded(f"{fam.kind.value} ideal enumeration truncated")
    return fam.masks


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
