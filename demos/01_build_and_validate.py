"""Building finite monoids with zero and validating their tables.

Every structure in this library is a square Cayley table over the index set
{0, .., n-1} together with a designated identity and a designated absorbing
zero.  Construction validates all axioms and points at the first violation.
"""
from sgideals import (
    NotAssociative,
    Semigroup,
    format_cayley,
    parse_cayley,
)
from sgideals.corpus import build_chain_x, build_ef, chain_x_names, ef_names

# The smallest citizen: {0, 1} with 1*1 = 1 and everything else 0.
tiny = Semigroup([[0, 0], [0, 1]], one=1, zero=0)
print("minimal monoid with zero:", tiny)

# A truncated power chain 0, 1, x, x^2, x^3 with x^4 = 0.  This family is
# left cancellative and its right ideals form a chain, which makes it the
# workhorse example throughout the demos.
chain = build_chain_x(3)
print("\ntruncated chain, elements", chain_x_names(3))
print(format_cayley(chain, header="chain with x^4 = 0"))

# Tables that break associativity are rejected with a witness triple.
bad = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 2]]
try:
    Semigroup(bad, one=1, zero=0)
except NotAssociative as exc:
    print("rejected:", exc)

# The text format round-trips: first line "n one zero", then the rows.
text = format_cayley(chain)
again = parse_cayley(text)
print("\nround trip equal:", again == chain)

# The two-idempotent extension: adjoin commuting idempotents e, f and their
# product ef to the chain; they act as identities on every power of x.
ef = build_ef(4)
names = ef_names(4)
e, f, x = names.index("e"), names.index("f"), names.index("x")
print("\nextended monoid, order", ef.n)
print("e*f =", names[ef.mul(e, f)], "   e*x =", names[ef.mul(e, x)])
print("left cancellative:", ef.is_left_cancellative())
print("units:", [names[u] for u in range(ef.n) if (ef.units_mask() >> u) & 1])
