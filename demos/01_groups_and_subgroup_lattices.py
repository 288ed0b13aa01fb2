#!/usr/bin/env python3
# Build small permutation groups, enumerate their subgroups, and look at
# subgroup intervals as finite lattices.

from mnlab import (FinLattice, Perm, all_subgroups, dihedral, group_closure,
                   interval, is_dihedral, is_normal, quotient, symmetric)

# A permutation is just its image bytes; composition applies the right factor
# first, so (p * q)(x) = p(q(x)).  A group is just its element set, so H <= G
# is the subgroup order.
p = Perm((1, 2, 0))     # the 3-cycle (0 1 2)
q = Perm((1, 0, 2))     # the transposition (0 1)
print("p * q =", (p * q).images, "=", p * q)

# Two transpositions already generate the full symmetric group on 3 points.
G = group_closure(3, [Perm((1, 0, 2)), Perm((0, 2, 1))])
print("closure of two transpositions:", G.order, "elements")
assert G == symmetric(3)

# Subgroup enumeration: every subgroup, by cyclic extension of one
# representative per conjugacy class.
subs = all_subgroups(G)
print("subgroups of S3 by order:", [H.order for H in subs])

# The subgroup lattice of S3 is M_4: four incomparable proper subgroups
# squeezed between the trivial group and S3.
L = FinLattice.from_inclusion(subs, [f"order {H.order}" for H in subs])
print("Sub(S3) shape:", L.shape_report())
print(L.to_dot())

# Intervals I[H, G] pick out the subgroups between H and G.
A3 = next(H for H in subs if H.order == 3)
print("interval I[A3, S3]:", [K.order for K in interval(G, A3)])
print("A3 normal in S3:", is_normal(G, A3),
      "| quotient order:", quotient(G, A3).order)

# Dihedral groups of order 2m: a rotation of order m plus a reflection.
for m in (2, 3, 5, 6):
    D = dihedral(m)
    print(f"dihedral m={m}: order {D.order}, degree {D.degree},"
          f" recognized m = {is_dihedral(D)}")
