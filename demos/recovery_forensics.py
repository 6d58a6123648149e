"""Recovering a poset from an anonymized multiplication table, and what the
diagnostics say when a table only pretends to come from one.

Run:  python3 demos/recovery_forensics.py
"""

from fractions import Fraction

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    NoPosetBehindTable,
    PosetAlgebraError,
    boolean_lattice,
    chain,
    format_poset,
    quasi_idempotents,
    recover_table,
    scramble,
)
from posetalg.oracles import (
    brute_isomorphism,
    brute_recover_by_ideal_products,
    brute_recover_by_links,
)

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

# --- now four associative, monomial tables with no poset behind them ----
#
# Each is refused by the table's placement, which puts every basis vector
# between the quasi-idempotents that act on it, before either route reads
# it.  Next to that refusal stands what the paper-literal routes of
# oracles.py, which read the table without placing it, would make of it.

one = Fraction(1)


def literal_verdicts(table):
    for name, route in (("product route", brute_recover_by_ideal_products),
                        ("link route", brute_recover_by_links)):
        try:
            print("  literal %s returns: %r" % (name, route(table)))
        except PosetAlgebraError as e:
            print("  literal %s: %s: %s" % (name, type(e).__name__, e))


def refuse(table):
    literal_verdicts(table)
    try:
        recover_table(table)
    except NoPosetBehindTable as e:
        print("  placement refuses it: NoPosetBehindTable:", e)
    else:
        raise AssertionError("a table with no poset behind it was accepted")


print()
print("Fraud 1: the two-element group (g*g = e). One quasi-idempotent, e,")
print("and it fixes g as it fixes itself, so both land on (e, e):")
refuse(MultiplicationTable(2, {
    (0, 0): (one, 0), (0, 1): (one, 1),
    (1, 0): (one, 1), (1, 1): (one, 0),
}))

print()
print("Fraud 2: arrows a -> b -> c whose composite is forced to zero.")
print("Cover detection alone is fooled into a 3-chain; the placed pairs")
print("compose in one more way than the table has products:")
ea, eb, ec, u, v = range(5)
refuse(MultiplicationTable(5, {
    (ea, ea): (one, ea), (eb, eb): (one, eb), (ec, ec): (one, ec),
    (ea, u): (one, u), (u, eb): (one, u),
    (eb, v): (one, v), (v, ec): (one, v),
}))

print()
print("Fraud 3: the 3-chain's table with the product [a,b][b,c] removed.")
print("Both literal routes agree on a 3-chain, whose 6 comparable pairs")
print("number the table's dim, but the radical now squares to zero:")
C3 = IncidenceAlgebra(chain(3), "reflexive")
entries = dict(C3.multiplication_table().entries)
del entries[C3.index[(0, 1)], C3.index[(1, 2)]]
refuse(MultiplicationTable(C3.dim, entries))

print()
print("Fraud 4: the 2x2 matrices on E11, E22, E12, E21, the algebra of two")
print("equivalent elements. E12 is placed from E11 to E22, and E21 from E22")
print("to E11: a preorder, not an order:")
e11, e22, e12, e21 = range(4)
refuse(MultiplicationTable(4, {
    (e11, e11): (one, e11), (e11, e12): (one, e12),
    (e12, e22): (one, e12), (e12, e21): (one, e11),
    (e22, e22): (one, e22), (e22, e21): (one, e21),
    (e21, e11): (one, e21), (e21, e12): (one, e22),
}))
print()
print("Moral: the placement is the one place a table is refused; the two")
print("routes then run on what it places, and their agreement is the")
print("cross-check.")
