#!/usr/bin/env python3
# Group actions as unary algebras, and their congruence lattices two ways:
# principal-congruence generation vs. the brute-force partition filter.

from mnlab import (all_congruences, all_subgroups, congruences_oracle,
                   coset_action, cosets, cyclic, gset_algebra, iso_check,
                   klein, regular_action, symmetric)
from mnlab.lattice import FinLattice

# The regular Klein action gives a 4-element algebra with two operations,
# the translations by the two generators.
A = gset_algebra(regular_action(klein()))
print("carrier:", A.size, "ops:", A.ops)

L = all_congruences(A)
print("Con(regular Klein):", L.n, "congruences, shape", L.shape())
print("labels:", L.labels)

# The oracle filters all 15 partitions of a 4-set and must agree exactly.
assert congruences_oracle(A) == L
print("brute-force oracle agrees")

# A cyclic group gives a chain instead: one congruence per subgroup.
Lz = all_congruences(gset_algebra(cyclic(4)))
print("Con(Z4 natural):", Lz.n, "congruences, chain:", Lz.is_chain())

# For a transitive action on the cosets of H, the congruence lattice is a
# copy of the subgroup interval I[H, G]: each intermediate subgroup K yields
# the partition of cosets into K-orbits.
G = symmetric(3)
H = next(K for K in all_subgroups(G) if K.order == 2)
act, kernel = coset_action(G, H)
print("coset action on", len(cosets(G, H)), "points; kernel order",
      kernel.order)

Lcon = all_congruences(gset_algebra(act))
subs = [K for K in all_subgroups(G) if H.is_subgroup_of(K)]
Lint = FinLattice.from_inclusion([frozenset(K.elements) for K in subs])
print("interval size:", Lint.n, "| Con size:", Lcon.n,
      "| isomorphic:", iso_check(Lint, Lcon) is not None)
