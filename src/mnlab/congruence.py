"""Unary algebras, congruence lattices, and Galois-closed partition systems.

A congruence of a unary algebra is a partition compatible with every
operation (x ~ y implies f(x) ~ f(y)).  The main route computes all
congruences by generating principal ones, as a fixpoint of ``&``, and
closing under join, ``&`` again, on the coatom masks of ``partition_index``
for carriers of up to INDEX_SIZE_BOUND (7) points; above that, with
``rgs_closure`` and ``rgs_join``.  The oracle route searches
every partition of the carrier, dropping dead prefixes, exactly those that
no congruence extends.  ``preserving_maps`` goes the other way, from a set
of partitions to all maps preserving them; the congruences of the algebra
of those maps are the Galois closure of the set, and ``galois_is_closed``
tests whether the set is already closed.  Partitions are RGS sequences:
plain tuples and ``Partition`` objects alike.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

from .lattice import FinLattice
from .partition import (INDEX_SIZE_BOUND, bell_number, partition_index,
                        rgs_closure, rgs_is_valid, rgs_join, rgs_tables)
from .perm import PermGroup

CON_SIZE_BOUND = 64
ORACLE_SIZE_BOUND = 11
MAPS_SIZE_BOUND = 8


class UnaryAlgebra:
    """A finite carrier {0..size-1} with a list of unary operation tables.
    Immutable; equal and hashed by size and tables, whatever the name."""

    __slots__ = ("size", "ops", "name")

    def __init__(self, size: int, ops: Sequence[Sequence[int]],
                 name: str | None = None):
        if size < 1:
            raise ValueError("carrier must be nonempty")
        ops = tuple(tuple(op) for op in ops)
        for op in ops:
            if len(op) != size or any(not 0 <= x < size for x in op):
                raise ValueError(f"bad operation table {op!r} for size {size}")
        for attr, value in (("size", size), ("ops", ops), ("name", name)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, *value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # so that copy and pickle skip __setattr__
        return UnaryAlgebra, (self.size, self.ops, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.ops) == (other.size, other.ops)

    def __hash__(self) -> int:
        return hash((self.size, self.ops))

    def __repr__(self) -> str:
        return f"UnaryAlgebra(size={self.size}, ops={len(self.ops)})"


def gset_algebra(action: PermGroup, name: str | None = None) -> UnaryAlgebra:
    """The unary algebra of a group action: one operation per generator.

    A partition is compatible with the whole group exactly when it is
    compatible with the generators, so the generator tables suffice.
    """
    return UnaryAlgebra(action.degree, action.generators, name)


def _principal_rgs(size: int, ops: Sequence[Sequence[int]],
                   a: int, b: int) -> tuple[int, ...]:
    """Cg(a, b): the smallest compatible partition containing (a, b), which
    is ``rgs_closure`` of the one pair under the ops."""
    return rgs_closure(size, [(a, b)], ops)


def _principals(size: int, ops: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """The principal congruences Cg(a, b), a < b, as RGS tuples.  Up to
    INDEX_SIZE_BOUND points: Cg(a, b) is the equivalence generated by the
    pairs (w(a), w(b)), w a word in the ops (Mal'cev), so its coatom mask
    is the ``&`` of the atoms of the pairs reachable from (a, b).  cg[t]
    starts at pair t's atom and takes ``&= cg[u]`` for each image pair u of
    t until nothing changes: it stays an ``&`` of reachable atoms, and at
    the fixpoint lies inside every reachable cg[u], so every reachable atom.
    Larger carriers close each pair by union-find."""
    if size > INDEX_SIZE_BOUND:
        return {_principal_rgs(size, ops, a, b)
                for a in range(size) for b in range(a + 1, size)}
    ix = partition_index(size)
    succ = [[ix.pair_ids[op[x], op[y]] for op in ops if op[x] != op[y]]
            for x in range(size) for y in range(x + 1, size)]
    cg, last = list(ix.atoms), None
    while cg != last:
        last = cg[:]
        for t, us in enumerate(succ):
            for u in us:
                cg[t] &= cg[u]
    return {ix.parts[ix.co_ids[m]] for m in cg}


def _join_closure(size: int, principals: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The bottom and every join of the given principal congruences.  Up to
    INDEX_SIZE_BOUND points each partition is its coatom mask, which names
    it uniquely, and a join is the ``&`` of two masks; larger carriers join
    RGS with ``rgs_join``."""
    if size > INDEX_SIZE_BOUND:
        return _close({tuple(range(size))}, principals, rgs_join)
    ix = partition_index(size)
    masks = _close({ix.co[ix.bottom]}, {ix.co[ix.ids[r]] for r in principals},
                   operator.and_)
    return {ix.parts[ix.co_ids[m]] for m in masks}


def _close(found: set, gens: set, join: Callable) -> set:
    """``found`` with ``gens`` added, closed under joining with a member of
    ``gens``: each element found is joined with the generators alone."""
    found |= gens
    work = list(gens)
    while work:
        r = work.pop()
        for s in gens:
            j = join(r, s)
            if j not in found:
                found.add(j)
                work.append(j)
    return found


def _congruence_set(size: int, ops: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """All congruences as RGS tuples: every congruence is a join of
    principal ones."""
    return _join_closure(size, _principals(size, ops))


def _lattice_from_rgs(rgs_set: set[tuple[int, ...]]) -> FinLattice:
    """Ordered by refinement, inclusion of the related pairs, in RGS order:
    ``rgs_tables``, read off the partition index up to INDEX_SIZE_BOUND."""
    n = len(next(iter(rgs_set)))
    if n > INDEX_SIZE_BOUND:
        return FinLattice.from_inclusion(*rgs_tables(sorted(rgs_set), n))
    ix = partition_index(n)
    ids = sorted(map(ix.ids.__getitem__, rgs_set))
    return FinLattice.from_inclusion([ix.related[i] for i in ids],
                                     [ix.labels[i] for i in ids])


def all_congruences(A: UnaryAlgebra) -> FinLattice:
    """The congruence lattice of A, elements labelled by RGS: the principal
    congruences, closed by joining each congruence found with the principals
    only, as every congruence is a join of principal ones (R. Freese, Algebra
    Universalis 59, 2008).  Meets of congruences are congruences anyway.
    Carriers of up to INDEX_SIZE_BOUND points join coatom masks with ``&``;
    larger ones, up to CON_SIZE_BOUND, join RGS with ``rgs_join``."""
    if A.size > CON_SIZE_BOUND:
        raise ValueError(f"carrier size {A.size} exceeds bound {CON_SIZE_BOUND}")
    return _lattice_from_rgs(_congruence_set(A.size, A.ops))


def congruences_oracle(A: UnaryAlgebra) -> FinLattice:
    """Brute-force route: search every partition of the carrier, labelling
    points in RGS order, and keep those all operations preserve.  The pair
    (x, f(x)) is checked at step max(x, f(x)) against a pin, block -> image
    block, per operation.  A prefix where one block maps into two is dead:
    no step relabels a point, so no extension is preserved, and dropping it
    loses nothing.  Bounded by Bell numbers, so size <= 11."""
    if A.size > ORACLE_SIZE_BOUND:
        raise ValueError(f"carrier size {A.size} exceeds oracle bound "
                         f"{ORACLE_SIZE_BOUND} (Bell({ORACLE_SIZE_BOUND}) = "
                         f"{bell_number(ORACLE_SIZE_BOUND)})")
    n = A.size
    # due[x]: (pins of f, y, f(y)) for each op f and y with max(y, f(y)) == x
    due: list[list] = [[] for _ in range(n)]
    for op in A.ops:
        pins = [-1] * n
        for y, fy in enumerate(op):
            due[max(y, fy)].append((pins, y, fy))
    label = [0] * n
    keep: set[tuple[int, ...]] = set()

    def extend(x: int, blocks: int) -> None:
        if x == n:
            keep.add(tuple(label))
            return
        for b in range(blocks + 1):
            label[x] = b
            pinned = []
            for pins, y, fy in due[x]:
                blk, img = label[y], label[fy]
                if pins[blk] == -1:
                    pins[blk] = img
                    pinned.append((pins, blk))
                elif pins[blk] != img:
                    break
            else:
                extend(x + 1, max(blocks, b + 1))
            for pins, blk in pinned:
                pins[blk] = -1

    extend(0, 0)
    return _lattice_from_rgs(keep)


def preserving_maps(size: int,
                    parts: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All unary tables f preserving every RGS in ``parts``, in lexicographic
    order.  Prunes by prefix feasibility: a partial table that already sends
    two related elements to unrelated images is abandoned."""
    if size > MAPS_SIZE_BOUND:
        raise ValueError(f"carrier size {size} exceeds bound {MAPS_SIZE_BOUND}")
    rgss = [tuple(p) for p in parts]
    for r in rgss:
        if len(r) != size or not rgs_is_valid(r):
            raise ValueError(f"part {r!r} is not an RGS on {size} points")
    # pins[k][blk] = block that partition k forces images of blk into (-1 open)
    pins = [[-1] * size for _ in rgss]
    table = [0] * size
    out: list[tuple[int, ...]] = []

    def assign(i: int) -> None:
        if i == size:
            out.append(tuple(table))
            return
        for v in range(size):
            touched = []
            ok = True
            for k, r in enumerate(rgss):
                blk, img = r[i], r[v]
                pinned = pins[k][blk]
                if pinned == -1:
                    pins[k][blk] = img
                    touched.append(k)
                elif pinned != img:
                    ok = False
                    break
            if ok:
                table[i] = v
                assign(i + 1)
            for k in touched:
                pins[k][rgss[k][i]] = -1

    assign(0)
    return out


def galois_is_closed(size: int, parts: Sequence[Sequence[int]]) -> bool:
    """True iff the closure is exactly {bottom} | parts | {top}; False,
    without joining, once a principal congruence of the preserving-maps
    algebra falls outside it."""
    principals = _principals(size, preserving_maps(size, parts))
    want = {tuple(range(size)), (0,) * size, *map(tuple, parts)}
    return principals <= want and _join_closure(size, principals) == want
