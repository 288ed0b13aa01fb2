"""Finite lattices on int bitsets: shape analysis and DOT diagrams.

A lattice over elements 0..n-1 is held as Python-int bitsets: ``up[i]`` has
bit j set iff i <= j, and ``down``, its transpose, is built on first use,
with optional string labels.  Construction walks the covers: for each i it
takes the highest-indexed j above i that is left and drops j's up-set, so
where indices fall going up the order (congruences sorted by RGS) it takes
one j per cover, not one per comparable pair.  It fills ``covers`` and
verifies that the order really is a lattice: a partial order with unique
bottom and top in which every pair has a join.  Only the pairs with a
join-irreducible member (one lower cover; two running masks over the covers
find them) are tested: every other element above the bottom is the join of
two of its lower covers, so its joins follow from theirs.  Meets follow too,
so they are not checked: the meet of a pair is the join of its common lower
bounds, the bottom among them.  ``from_inclusion`` builds the order of a
family of sets (partitions enter as the positions of their related pairs).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterator, Sequence
from functools import cached_property, reduce


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x >= 0, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mn_of(mids: Sequence, leq: Callable[[object, object], bool]) -> int | None:
    """n = len(mids) if the middle elements of a bounded order make it M_n:
    at least 3 of them, pairwise incomparable under ``leq``.  None otherwise."""
    n = len(mids)
    if n < 3:
        return None
    for i, a in enumerate(mids):
        for b in mids[i + 1:]:
            if leq(a, b) or leq(b, a):
                return None
    return n


class NotALatticeError(ValueError):
    """The given order is not a lattice; carries one offending pair."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class FinLattice:
    """An immutable finite lattice over elements 0..n-1, given by its
    up-sets: bit j of ``up[i]`` is set iff i <= j.  Construction sets
    ``covers``: bit j of ``covers[i]`` is set iff j covers i (strictly
    above, nothing between)."""

    def __init__(self, up: Sequence[int], labels: Sequence[str] | None = None):
        self.up = tuple(up)
        self.n = n = len(self.up)
        self.labels = tuple(labels) if labels is not None else tuple(map(str, range(n)))
        if len(self.labels) != n:
            raise ValueError("label count does not match element count")
        self._validate()

    def _validate(self) -> None:
        """Check that ``up`` is a lattice order; set ``covers``, ``bottom``
        and ``top``.  For each i the walk takes the highest j left in
        strict[i], ORs strict[j] into ``above`` and drops strict[j] and j.
        covers[i] is strict[i] less ``above``, and the rest of ``above`` is
        stray.  With nothing stray the order is a partial order and the
        covers are exact, whichever j is taken: up[i] is {i} with the up-sets
        of the j taken, each inside up[i] and without i, so smaller, and so
        closed by induction on |up[i]|; a j not taken lies in the up-set of
        one taken, so it adds nothing to ``above``.  A stray bit means that
        antisymmetry, read off ``down`` and reported first, or transitivity
        fails."""
        up, n = self.up, self.n
        if n == 0:
            raise NotALatticeError("empty carrier has no bottom element")
        if any(u >> n for u in up):  # also true for a negative u
            raise ValueError(f"an up-set has a bit at or above n = {n}")
        if any(not u >> i & 1 for i, u in enumerate(up)):
            raise ValueError("order is not reflexive")
        strict = [u ^ 1 << i for i, u in enumerate(up)]
        covers = []
        stray = 0  # above some j > i but not above i
        for s in strict:
            above, rest = 0, s
            while rest:
                j = rest.bit_length() - 1
                above |= strict[j]
                rest &= ~(strict[j] | 1 << j)
            stray |= above & ~s
            covers.append(s & ~above)
        if stray:
            if any(u & d != 1 << i for i, (u, d) in enumerate(zip(up, self.down))):
                raise ValueError("order is not antisymmetric")
            raise ValueError("order is not transitive")
        self.covers = tuple(covers)
        full = (1 << n) - 1
        if up.count(full) != 1:
            raise NotALatticeError("bottom element is not unique")
        common = reduce(int.__and__, up)  # above every element: the top, or 0
        if not common:
            raise NotALatticeError("top element is not unique")
        self.bottom, self.top = up.index(full), common.bit_length() - 1
        # A pair has a join when some element's up-set is the pair's whole
        # common up-set.  Testing x v j for join-irreducible j (one lower
        # cover) suffices, by induction on the down-set of y: x v 0 = x, and
        # a y with lower covers a != b is a v b (a < a v b <= y, and y covers
        # a), so x v y = (x v a) v b, two joins with elements below y.
        once = twice = 0  # elements with at least one, two lower covers
        for c in covers:
            twice |= once & c
            once |= c
        irreducible = [(j, up[j]) for j in _bits(once ^ twice)]  # one cover
        ups = set(up)
        for x, ux in enumerate(up):
            for j, uj in irreducible:
                if ux & uj not in ups:
                    raise NotALatticeError(
                        f"elements {x} and {j} have no join", (x, j))

    @classmethod
    def from_inclusion(cls, sets: Sequence[Collection],
                       labels: Sequence[str] | None = None) -> "FinLattice":
        """The inclusion order of a family of sets: i <= j iff
        sets[i] <= sets[j], so up[i] is the AND of its members' columns."""
        full = (1 << len(sets)) - 1
        column: dict = {}  # member -> bitset of the sets that hold it
        for i, s in enumerate(sets):
            for x in s:
                column[x] = column.get(x, 0) | 1 << i
        up = []
        for s in sets:
            u = full
            for x in s:
                u &= column[x]
            up.append(u)
        return cls(up, labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """The transpose of ``up``, built on first use."""
        down = [0] * self.n
        for i, u in enumerate(self.up):
            for j in _bits(u):
                down[j] |= 1 << i
        return tuple(down)

    @cached_property
    def height(self) -> int:
        """Longest chain length minus one."""
        h = [0] * self.n  # longest chain from the bottom up to each element
        # largest up-set first, a linear extension: lower covers come first
        for i in sorted(range(self.n), key=lambda k: -self.up[k].bit_count()):
            for j in _bits(self.covers[i]):
                h[j] = max(h[j], h[i] + 1)
        return max(h)

    def atoms(self) -> list[int]:
        return list(_bits(self.covers[self.bottom]))

    def join(self, i: int, j: int) -> int:
        return self.up.index(self.up[i] & self.up[j])

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinLattice) and self.up == other.up
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.up, self.labels))

    def __repr__(self) -> str:
        return f"FinLattice(n={self.n}, height={self.height})"

    def detect_mn(self) -> int | None:
        """n if this lattice is M_n (n >= 3): every element besides bottom
        and top is incomparable to every other."""
        mids = [i for i in range(self.n) if i != self.bottom and i != self.top]
        return _mn_of(mids, self.leq)

    def is_chain(self) -> bool:
        """At most one upper cover each: the meet of two incomparable
        elements has two, one below each of them."""
        return all(not c & (c - 1) for c in self.covers)

    def shape(self) -> tuple[str, int | None]:
        """("M_n", n) / ("chain", None) / ("boolean-2", None) / ("other", None).

        The 2x2 lattice is reported as boolean-2, not as an M_n shape.
        """
        mn = self.detect_mn()
        if mn is not None:
            return ("M_n", mn)
        if self.is_chain():
            return ("chain", None)
        if self.n == 4:  # not a chain, so its two middles are incomparable
            return ("boolean-2", None)
        return ("other", None)

    def shape_report(self) -> dict:
        shape, mn = self.shape()
        report = {
            "size": self.n,
            "height": self.height,
            "atoms": len(self.atoms()),
            "shape": shape,
        }
        if mn is not None:
            report["n"] = mn
        return report

    def to_dot(self) -> str:
        """Hasse diagram (cover edges only) as a DOT digraph, bottom-up."""
        lines = ["digraph lattice {", "  rankdir=BT;"]
        for i in range(self.n):
            lines.append(f'  n{i} [label="{self.labels[i]}"];')
        for i in range(self.n):
            for j in _bits(self.covers[i]):
                lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def chain(k: int) -> FinLattice:
    """A k-element total order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return FinLattice([(1 << k) - (1 << i) for i in range(k)])
