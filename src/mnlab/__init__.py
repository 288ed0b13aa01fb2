"""mnlab: finite permutation groups, congruence lattices, and exhaustive
verification of the minimal M_{p+1} congruence-lattice representation."""

from .congruence import (UnaryAlgebra, all_congruences, congruences_oracle,
                         galois_is_closed, gset_algebra, preserving_maps)
from .construct import (alternating, catalog, cyclic, dihedral, direct_product,
                        klein, quaternion, regular_action, symmetric)
from .lattice import FinLattice, NotALatticeError, chain
from .partition import Partition, bell_number
from .perm import (Perm, PermGroup, all_subgroups, coset_action, group_closure,
                   interval, is_dihedral, is_normal, quotient)
from .verify import (VerificationReport, check_lemma, check_theorem1,
                     check_theorem2, minimal_representation)

__version__ = "0.1.0"

__all__ = [
    "FinLattice", "NotALatticeError", "Partition",
    "Perm", "PermGroup", "UnaryAlgebra", "VerificationReport",
    "all_congruences", "all_subgroups", "alternating", "bell_number",
    "catalog", "chain", "check_lemma", "check_theorem1", "check_theorem2",
    "congruences_oracle", "coset_action", "cyclic", "dihedral",
    "direct_product", "galois_is_closed", "group_closure", "gset_algebra",
    "interval", "is_dihedral", "is_normal", "klein", "minimal_representation",
    "preserving_maps", "quaternion", "quotient", "regular_action",
    "symmetric",
]
