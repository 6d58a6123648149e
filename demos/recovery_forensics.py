"""Recovering a poset from an anonymized multiplication table, and what the
diagnostics say when a table only pretends to come from one.

Run:  python3 demos/recovery_forensics.py
"""

from fractions import Fraction

from posetalg import (
    ClosureViolation,
    IncidenceAlgebra,
    MultiplicationTable,
    NoPosetBehindTable,
    RecoveredRelationNotTransitive,
    boolean_lattice,
    chain,
    format_poset,
    quasi_idempotents,
    recover_by_ideal_products,
    recover_by_links,
    recover_table,
    scramble,
)
from posetalg.oracles import brute_isomorphism

P = boolean_lattice(2)
A = IncidenceAlgebra(P, "reflexive")
T = A.multiplication_table()
print("Original poset:")
print(format_poset(P))
print("Its table has %d generators and %d nonzero products." %
      (T.dim, len(T.entries)))

puzzle = scramble(T, seed=2024)
print()
print("After scrambling (basis permuted, every vector rescaled), the")
print("first few entries look like nothing in particular:")
for (i, j), (c, k) in sorted(puzzle.entries.items())[:5]:
    print("  b%d * b%d = %s b%d" % (i, j, c, k))

qs = quasi_idempotents(puzzle)
print()
print("Elements whose square is a multiple of themselves: %r" % (qs,))
print("Those are the diagonal generators in disguise, one per poset element.")

Q1, Q2 = recover_table(puzzle)
print()
print("Scheme 1 (products of principal supports) says:")
print(format_poset(Q1))
print("Scheme 2 (cover links via maximal ideals) says:")
print(format_poset(Q2))
assert Q1 == Q2
print("They agree, and the result is isomorphic to the original:",
      brute_isomorphism(P, Q1))

# --- now three associative, monomial tables with no poset behind them ----

one = Fraction(1)

print()
print("Fraud 1: the two-element group (g*g = e). One quasi-idempotent,")
print("but the complement of it is not closed under products:")
group = MultiplicationTable(2, {
    (0, 0): (one, 0), (0, 1): (one, 1),
    (1, 0): (one, 1), (1, 1): (one, 0),
})
try:
    recover_by_links(group)
except ClosureViolation as e:
    print("  ClosureViolation:", e)

print()
print("Fraud 2: arrows a -> b -> c whose composite is forced to zero.")
print("Cover detection alone is fooled into reporting a 3-chain, but the")
print("product scheme notices the missing composite:")
ea, eb, ec, u, v = range(5)
path = MultiplicationTable(5, {
    (ea, ea): (one, ea), (eb, eb): (one, eb), (ec, ec): (one, ec),
    (ea, u): (one, u), (u, eb): (one, u),
    (eb, v): (one, v), (v, ec): (one, v),
})
print("  link scheme returns:", repr(recover_by_links(path)))
try:
    recover_by_ideal_products(path)
except RecoveredRelationNotTransitive as e:
    print("  RecoveredRelationNotTransitive:", e)

print()
print("Fraud 3: the 3-chain's table with the product [a,b][b,c] removed.")
print("Both schemes agree on a 3-chain, and its 6 comparable pairs number")
print("the table's dim, but the radical now squares to zero. Placing each")
print("basis vector between the quasi-idempotents that act on it shows the")
print("placed pairs compose in more ways than the table has products:")
C3 = IncidenceAlgebra(chain(3), "reflexive")
entries = dict(C3.multiplication_table().entries)
del entries[C3.index[(0, 1)], C3.index[(1, 2)]]
dropped = MultiplicationTable(C3.dim, entries)
Q1, Q2 = recover_by_ideal_products(dropped), recover_by_links(dropped)
assert Q1 == Q2 and Q1.n + Q1.strict_pair_count() == dropped.dim
print("  both schemes return:", repr(Q1))
try:
    recover_table(dropped)
except NoPosetBehindTable as e:
    print("  NoPosetBehindTable:", e)
print()
print("Moral: run both schemes; honesty is in the cross-check, and the")
print("verdict is the certificate's placement.")
