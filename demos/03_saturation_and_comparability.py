"""Saturations of principal right ideals and comparability with respect to
a completely prime ideal.

For a completely prime right ideal P and its complement T, the saturation
of aS is everything that lands in aS after multiplying by some t in T.
The monoid is right P-comparable when every pair of principal right ideals
is comparable by inclusion or has equal saturations.
"""
from sgideals import Semigroup, mask_elems, mask_of
from sgideals.localize import (
    CONDITION_NAMES,
    is_right_p_comparable,
    saturate,
)
from sgideals.corpus import corpus
from sgideals.verify import run_check

entry = corpus()["ef4"]
s = entry.semigroup
nm = entry.element_names
show = lambda m: "{" + ", ".join(nm[i] for i in mask_elems(m)) + "}"

p = mask_of([nm.index(w) for w in ("0", "x", "x2", "x3", "x4")])
t = s.full & ~p
e, f = nm.index("e"), nm.index("f")

print("P  =", show(p), " (completely prime, two sided)")
print("eS =", show(s.right_principal(e)))
print("fS =", show(s.right_principal(f)))

sat_e = saturate(s, s.right_principal(e), t)
sat_f = saturate(s, s.right_principal(f), t)
print("sat(eS) =", show(sat_e))
print("sat(fS) =", show(sat_f))
print("f lands in sat(eS):", bool((sat_e >> f) & 1))
print("sat(eS) == sat(fS):", sat_e == sat_f)
print()
print("eS and fS are incomparable, but their saturations agree, so the")
print("three-way comparability condition holds for every pair:")
rep = is_right_p_comparable(s, p)
for cname, ok in zip(CONDITION_NAMES, rep.conditions):
    print(f"  {cname:28s} {ok}")
print("weak form (translate clause):", rep.weak_holds)
print()

# Under left cancellation, equal translates a*P == b*P track equal
# saturations (Thm3.8); the chain monoid is the cleanest witness.
chain = corpus()["chain_x4"].semigroup
v = run_check(chain, "Thm3.8")
print("translate/saturation equivalence on the chain:", v.status,
      "" if not v.note else f"({v.note})")

# The two notions genuinely separate at finite scale: this order-5 left
# cancellative table is weakly comparable but not comparable.
table = [
    [0, 0, 0, 0, 0],
    [0, 1, 2, 3, 4],
    [0, 2, 0, 0, 0],
    [0, 3, 0, 0, 2],
    [0, 4, 0, 0, 2],
]
w = Semigroup(table, one=1, zero=0)
wrep = is_right_p_comparable(w, w.nonunits_mask())
print("order-5 separation: weak =", wrep.weak_holds, ", strict =", wrep.holds)

# Saturation is monotone in the denominator set.  The antitone inclusion
# for nested denominators fails outright, already for the empty set inside
# {0}: sat(0S, {}) is empty, while 0*0 = 0 puts 0 in sat(0S, {0}).
zero_s = s.right_principal(s.zero)
small, big = saturate(s, zero_s, 0), saturate(s, zero_s, s.zero_mask)
print("nested-denominator antitone inclusion:",
      "discrepancy" if big & ~small else "holds", "- monotone direction holds instead")
