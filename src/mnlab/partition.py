"""Set partitions in restricted-growth-string form.

The RGS of a partition assigns each element its block index, blocks numbered
by first appearance (so rgs[0] = 0 and rgs[i] <= 1 + max of the prefix).
A partition is its RGS tuple, and the ``rgs_*`` functions join, refine and
close them; ``Partition`` only checks that a tuple is a valid RGS.

``rgs_closure`` is the one union-find of the library: the finest partition
relating some pairs and compatible with some maps.  The join of two
partitions and a principal congruence Cg(a, b) above INDEX_SIZE_BOUND
points are both closures of this kind.

For carriers of up to INDEX_SIZE_BOUND points, ``partition_index(n)`` interns
every partition of an n-set by its position in ``all_rgs(n)`` order, so the
top (all zeros) is id 0 and the bottom (all singletons) is the last id.  The
index holds each partition's ``rgs_tables`` entries and two bitmasks.  Its
pair relation has a bit per related pair, so meet is ``&`` (disjoint
relations meet at the bottom).  Its coatom mask, one bit per two-block
partition above it, is the ``&`` of the coatoms relating each of its pairs.
Every partition but the top is the meet of its coatoms, so a join is the top
exactly when the coatom masks are disjoint, and a join's coatom mask is their
``&``.  Either mask decides refinement by a subset test.  Two lookups invert
the tables: ``ids`` maps an RGS to its id and ``co_ids`` a coatom mask to its
id, and ``pair_ids`` a pair to its bit in a pair relation; ``atoms`` holds
each pair's atom as a coatom mask.  It serves theorem 2's clique searches,
which count candidate systems from one partition per block-size shape and
list the pairwise-top ones, and principal congruences, their join closure and
their lattice, up to INDEX_SIZE_BOUND points.  The index is built on first
use for each n and kept for the life of the process.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce
from itertools import chain, combinations
from operator import and_

INDEX_SIZE_BOUND = 7


def rgs_canonical(labels: Iterable[int]) -> tuple[int, ...]:
    """Renumber arbitrary block labels by first appearance."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(x, len(relabel)) for x in labels])


def rgs_is_valid(rgs: Sequence[int]) -> bool:
    top = -1
    for x in rgs:
        if not isinstance(x, int) or x > top + 1 or x < 0:
            return False
        top = max(top, x)
    return True


def rgs_closure(size: int, pairs: Iterable[tuple[int, int]],
                ops: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The finest partition of {0..size-1} that relates every pair and is
    compatible with every op (x ~ y implies op[x] ~ op[y]), as a canonical
    RGS: a union-find that queues (op[x], op[y]) on each merge of x and y."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []
    for x, y in chain(pairs, queue):  # the queue grows while the loop reads it
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            for op in ops:
                queue.append((op[x], op[y]))
    return rgs_canonical(map(find, range(size)))


def rgs_join(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Finest common coarsening: the closure of the pairs that relate each
    point to the first point of its block, in a and in b."""
    pairs = []
    for rgs in (a, b):
        first: dict[int, int] = {}
        for i, blk in enumerate(rgs):
            if blk in first:
                pairs.append((first[blk], i))
            else:
                first[blk] = i
    return rgs_closure(len(a), pairs, ())


def rgs_refines(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff every block of a lies inside a block of b (a <= b)."""
    pin: dict[int, int] = {}
    for ai, bi in zip(a, b):
        if ai in pin:
            if pin[ai] != bi:
                return False
        else:
            pin[ai] = bi
    return True


def all_rgs(n: int) -> list[tuple[int, ...]]:
    """Every partition of an n-set, as RGS tuples in lexicographic order:
    each prefix, in order, extended by each block it may open next."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(n):
        out = [r + (b,) for r in out for b in range(max(r, default=-1) + 2)]
    return out


def bell_number(n: int) -> int:
    """Number of partitions of an n-set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def rgs_tables(parts: Sequence[Sequence[int]],
               n: int) -> tuple[list[tuple[int, ...]], list[str]]:
    """For RGSs on n points, the positions of the pairs x < y each relates,
    the pairs numbered in lexicographic order, and each label ("0,1,0")."""
    pairs = [(t, x, y) for t, (x, y) in enumerate(combinations(range(n), 2))]
    return ([tuple([t for t, x, y in pairs if r[x] == r[y]]) for r in parts],
            [",".join(map(str, r)) for r in parts])


class PartitionIndex:
    """Every partition of an n-set, interned by its all_rgs(n) position.
    Build it with ``partition_index(n)``, which checks n and caches."""

    __slots__ = ("parts", "labels", "related", "rel", "co", "ids", "co_ids",
                 "pair_ids", "atoms")
    top = 0  # all_rgs(n) starts with the all-zero RGS

    def __init__(self, n: int):
        self.parts = parts = tuple(all_rgs(n))  # id -> RGS
        related, labels = rgs_tables(parts, n)  # id -> pair positions, label
        self.related, self.labels = tuple(related), tuple(labels)
        self.rel = tuple([sum([1 << t for t in ts]) for ts in related])  # as masks
        coatoms = [ts for r, ts in zip(parts, related) if 1 in r and 2 not in r]
        self.atoms = by_pair = tuple([  # bit -> atom's coatom mask (id 0 relates all)
            sum(1 << c for c, s in enumerate(coatoms) if t in s) for t in related[0]])
        full = (1 << len(coatoms)) - 1
        self.co = co = tuple([  # id -> bitmask of coatoms above it
            reduce(and_, map(by_pair.__getitem__, ts), full) for ts in related])
        self.ids = {r: i for i, r in enumerate(parts)}  # RGS -> id
        self.co_ids = {m: i for i, m in enumerate(co)}  # coatom mask -> id
        self.pair_ids = {p: t for t, (x, y) in enumerate(combinations(range(n), 2))
                         for p in ((x, y), (y, x))}  # x, y -> bit

    @property
    def bottom(self) -> int:
        return len(self.parts) - 1


@lru_cache(maxsize=None)
def partition_index(n: int) -> PartitionIndex:
    """The interned partitions of an n-set, built on first use."""
    if not 0 <= n <= INDEX_SIZE_BOUND:
        raise ValueError(f"carrier size {n} outside 0..{INDEX_SIZE_BOUND}")
    return PartitionIndex(n)


class Partition(tuple):
    """A tuple checked to be a valid RGS.  Compare partitions with
    ``rgs_refines``: ``<=`` and ``>=`` are the tuple order."""

    __slots__ = ()

    def __new__(cls, rgs: Iterable[int]) -> "Partition":
        self = super().__new__(cls, rgs)
        if not rgs_is_valid(self):
            raise ValueError(f"not a restricted-growth string: {tuple(self)!r}")
        return self

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"
