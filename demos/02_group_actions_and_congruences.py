#!/usr/bin/env python3
# Group actions as unary algebras, and their congruence lattices two ways:
# principal-congruence generation vs. the brute-force partition filter.

from mnlab import (all_congruences, all_subgroups, congruences_oracle,
                   coset_action, cyclic, gset_algebra, interval, klein,
                   regular_action, symmetric)
from mnlab.partition import rgs_canonical, rgs_refines

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
# theta_K, which relates gH and g'H when gK = g'K.  The cosets are numbered
# as the action numbers them, by least member, and each is labelled by the
# least member of its K-coset.
G = symmetric(3)
H = next(K for K in all_subgroups(G) if K.order == 2)
act = coset_action(G, H)
reps = sorted({min(g * h for h in H) for g in G})
print("coset action on", len(reps), "points; kernel order", G.order // act.order)

Lcon = all_congruences(gset_algebra(act))
subs = interval(G, H)
thetas = [rgs_canonical(min(r * k for k in K) for r in reps) for K in subs]
# K -> theta_K is an isomorphism onto Con: one-to-one, onto, and both ways
# order-preserving
iso = (len(set(thetas)) == len(subs)
       and {",".join(map(str, t)) for t in thetas} == set(Lcon.labels)
       and all((K1 <= K2) == rgs_refines(t1, t2)
               for K1, t1 in zip(subs, thetas) for K2, t2 in zip(subs, thetas)))
print("interval size:", len(subs), "| Con size:", Lcon.n, "| isomorphic:", iso)
