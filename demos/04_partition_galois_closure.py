#!/usr/bin/env python3
# The Galois step behind the size bound: given a set of partitions, collect
# every unary map preserving all of them, then compute the congruence lattice
# of that algebra.  The partitions stand on their own as a full congruence
# lattice exactly when this closure adds nothing.

from mnlab import (UnaryAlgebra, all_congruences, galois_is_closed,
                   preserving_maps)
from mnlab.verify import _atom_systems

# Three pairwise-disjoint doubleton partitions of a 3-set: the atoms of the
# full partition lattice Eq(3).  Only the identity and the three constant
# maps preserve all of them, so the closure is Eq(3) itself, which is M_3.
# Partitions are given as restricted-growth strings (RGS): each element's
# block number, blocks numbered by first appearance.
atoms = [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
print("maps preserving the Eq(3) atoms:", preserving_maps(3, atoms))
L = all_congruences(UnaryAlgebra(3, preserving_maps(3, atoms)))
print("closure shape:", L.shape_report(), "| closed:", galois_is_closed(3, atoms))
# So M_3 is realizable on only 3 elements; the 2p size bound needs p odd.

# The Klein-style triple on 4 elements is closed too: its preserving maps
# are the four translations of the regular Klein action plus the constants.
triple = [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)]
print("\nKlein triple: maps =", len(preserving_maps(4, triple)),
      "| closed:", galois_is_closed(4, triple))

# Four-partition systems (candidate M_4 atom sets) behave differently: on
# carriers of size 4 and 5 every candidate's closure grows strictly.
for size in (4, 5):
    count, pairwise_top = _atom_systems(size, 4)
    # a closure holds all pairwise joins; only pairwise-top systems can close
    closed = sum(galois_is_closed(size, c) for c in pairwise_top)
    print(f"size {size}: {count} candidate systems, {closed} closed")

# On 6 elements the congruences of the regular order-6 dihedral action give
# a closed system, and the minimal carrier bound 2p = 6 is met.
system = [(0, 0, 0, 1, 1, 1), (0, 1, 2, 0, 1, 2),
          (0, 1, 2, 1, 2, 0), (0, 1, 2, 2, 0, 1)]
print("size 6 dihedral system closed:", galois_is_closed(6, system))
