"""Finite lattices: order matrix, shape analysis, isomorphism, DOT diagrams.

A lattice is held as a boolean leq matrix over elements 0..n-1 (leq[i, j]
means i <= j), with optional string labels.  Construction verifies that the
order really is a lattice: a partial order with unique bottom and top in
which every pair has a join.  Meets follow, so they are not checked: the meet
of a pair is the join of its common lower bounds, the bottom among them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

ISO_SIZE_BOUND = 24


def _mn_of(mids: Sequence, leq: Callable[[object, object], bool]) -> Optional[int]:
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

    def __init__(self, message: str, pair: Optional[tuple[int, int]] = None):
        super().__init__(message)
        self.pair = pair


class FinLattice:
    """An immutable finite lattice over elements 0..n-1."""

    def __init__(self, leq: np.ndarray, labels: Optional[Sequence[str]] = None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError(f"leq must be square, got {leq.shape}")
        self.n = n
        self.leq = leq
        self.leq.setflags(write=False)
        self.labels = tuple(labels) if labels is not None else tuple(map(str, range(n)))
        if len(self.labels) != n:
            raise ValueError("label count does not match element count")
        self._validate()

    def _validate(self) -> None:
        leq, n = self.leq, self.n
        if n == 0:
            raise NotALatticeError("empty carrier has no bottom element")
        if not leq.diagonal().all():
            raise ValueError("order is not reflexive")
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("order is not antisymmetric")
        closure = leq @ leq
        if (closure & ~leq).any():
            raise ValueError("order is not transitive")
        if leq.all(axis=1).sum() != 1:
            raise NotALatticeError("bottom element is not unique")
        if leq.all(axis=0).sum() != 1:
            raise NotALatticeError("top element is not unique")
        # every pair needs a join; columns follow a linear extension, so the
        # lowest common upper bound is the only candidate, and it is the join
        # iff its up-set is the pair's whole common up-set
        order = np.argsort(leq.sum(axis=0), kind="stable")  # by down-set size
        rows = np.packbits(leq[:, order], axis=1, bitorder="little")
        up = [int.from_bytes(row.tobytes(), "little") for row in rows]
        up_at = [up[k] for k in order]
        for i in range(n):
            for j in range(i + 1, n):
                common = up[i] & up[j]
                if up_at[(common & -common).bit_length() - 1] != common:
                    raise NotALatticeError(
                        f"elements {i} and {j} have no join", (i, j))

    @classmethod
    def from_inclusion(cls, items: Sequence, leq_fn: Callable,
                       labels: Optional[Sequence[str]] = None) -> "FinLattice":
        """Build from a containment predicate over concrete items."""
        n = len(items)
        leq = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                leq[i, j] = leq_fn(a, b)
        return cls(leq, labels)

    @cached_property
    def bottom(self) -> int:
        return int(np.nonzero(self.leq.all(axis=1))[0][0])

    @cached_property
    def top(self) -> int:
        return int(np.nonzero(self.leq.all(axis=0))[0][0])

    @cached_property
    def covers(self) -> np.ndarray:
        """covers[i, j] iff j covers i (strictly above, nothing between)."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        return lt & ~(lt @ lt)

    @cached_property
    def _depths(self) -> tuple[int, ...]:
        """Longest chain from the bottom up to each element."""
        order = np.argsort(self.leq.sum(axis=0))  # by down-set size
        h = [0] * self.n
        for j in order:
            below = np.nonzero(self.covers[:, j])[0]
            h[j] = 1 + max((h[i] for i in below), default=-1)
        return tuple(h)

    @cached_property
    def height(self) -> int:
        """Longest chain length minus one."""
        return max(self._depths)

    def depth_of(self, i: int) -> int:
        return self._depths[i]

    def atoms(self) -> list[int]:
        return [int(j) for j in np.nonzero(self.covers[self.bottom])[0]]

    def coatoms(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.covers[:, self.top])[0]]

    def meet(self, i: int, j: int) -> int:
        lows = self.leq[:, i] & self.leq[:, j]
        return int(np.nonzero(lows & self.leq[lows].all(axis=0))[0][0])

    def join(self, i: int, j: int) -> int:
        ups = self.leq[i, :] & self.leq[j, :]
        return int(np.nonzero(ups & self.leq[:, ups].all(axis=1))[0][0])

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinLattice) and self.n == other.n
                and bool((self.leq == other.leq).all())
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.leq.tobytes(), self.labels))

    def __repr__(self) -> str:
        return f"FinLattice(n={self.n}, height={self.height})"

    def detect_mn(self) -> Optional[int]:
        """n if this lattice is M_n (n >= 3): every element besides bottom
        and top is incomparable to every other."""
        mids = [i for i in range(self.n) if i != self.bottom and i != self.top]
        return _mn_of(mids, lambda i, j: self.leq[i, j])

    def is_chain(self) -> bool:
        return bool((self.leq | self.leq.T).all())

    def shape(self) -> tuple[str, Optional[int]]:
        """("M_n", n) / ("chain", None) / ("boolean-2", None) / ("other", None).

        The 2x2 lattice is reported as boolean-2, not as an M_n shape.
        """
        mn = self.detect_mn()
        if mn is not None:
            return ("M_n", mn)
        if self.is_chain():
            return ("chain", None)
        if (self.n == 4 and self.height == 2
                and len(self.atoms()) == 2 and set(self.atoms()) == set(self.coatoms())):
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

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram (cover edges only) as a DOT digraph, bottom-up."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i in range(self.n):
            lines.append(f'  n{i} [label="{self.labels[i]}"];')
        for i in range(self.n):
            for j in np.nonzero(self.covers[i])[0]:
                lines.append(f"  n{i} -> n{int(j)};")
        lines.append("}")
        return "\n".join(lines)


def m_n(n: int) -> FinLattice:
    """The reference M_n: bottom, n pairwise-incomparable middles, top."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n + 2
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True          # bottom below everything
    leq[:, size - 1] = True   # top above everything
    labels = ["0"] + [f"a{i}" for i in range(1, n + 1)] + ["1"]
    return FinLattice(leq, labels)


def chain(k: int) -> FinLattice:
    """A k-element total order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    leq = np.triu(np.ones((k, k), dtype=bool))
    return FinLattice(leq)


def _profiles(L: FinLattice) -> list[tuple[int, int, int, int]]:
    down = L.leq.sum(axis=0)
    up = L.leq.sum(axis=1)
    cov_in = L.covers.sum(axis=0)
    cov_out = L.covers.sum(axis=1)
    return [(int(L._depths[i]), int(down[i]), int(up[i]),
             int(cov_in[i]) * 32 + int(cov_out[i])) for i in range(L.n)]


def iso_check(L1: FinLattice, L2: FinLattice) -> Optional[list[int]]:
    """An order isomorphism L1 -> L2 as an image list, or None.

    Backtracking over bijections that respect each element's rank profile
    (depth, down-set size, up-set size, cover degrees); sizes capped at 24.
    """
    if L1.n > ISO_SIZE_BOUND or L2.n > ISO_SIZE_BOUND:
        raise ValueError(f"iso_check is capped at {ISO_SIZE_BOUND} elements")
    if L1.n != L2.n:
        return None
    p1, p2 = _profiles(L1), _profiles(L2)
    if sorted(p1) != sorted(p2):
        return None
    candidates = [[j for j in range(L2.n) if p2[j] == p1[i]] for i in range(L1.n)]
    # most constrained elements first
    order = sorted(range(L1.n), key=lambda i: len(candidates[i]))
    image: list[Optional[int]] = [None] * L1.n
    used = [False] * L2.n

    def extend(k: int) -> bool:
        if k == L1.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = image[i2]
                if (L1.leq[i, i2] != L2.leq[j, j2]
                        or L1.leq[i2, i] != L2.leq[j2, j]):
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                image[i] = None
                used[j] = False
        return False

    if extend(0):
        return [int(j) for j in image]  # type: ignore[arg-type]
    return None
