"""Permutations on {0..d-1} and finite permutation groups.

A permutation is its image bytes: ``Perm`` is a ``bytes`` subclass whose byte
x is the image of x (0-based), so it equals, hashes and sorts as those bytes,
and composition is a single ``bytes.translate`` call.  A group is its element
set: ``PermGroup`` is a ``frozenset`` subclass holding the full closure, so it
equals and hashes as that set and ``H <= G`` is the subgroup order (elements
of different degrees differ in length, so such groups are never nested); it
iterates its elements in a canonical order (lexicographic on images).  Orbits
are walked from their least points over the generators' images, with no
union-find.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator, Sequence, Set

MAX_DEGREE = 256  # points the bytes encoding can hold
_PAD = bytes(range(MAX_DEGREE))

DEFAULT_ORDER_BOUND = 5040


def _table(img: bytes) -> bytes:
    # bytes.translate wants a 256-entry table
    return img + _PAD[len(img):]


def _compose(p: bytes, q: bytes) -> bytes:
    # (p . q)(x) = p(q(x))
    return q.translate(_table(p))


def _inverse(p: bytes) -> bytes:
    inv = bytearray(len(p))
    for i, j in enumerate(p):
        inv[j] = i
    return bytes(inv)


def _cycles(p: bytes) -> list[tuple[int, ...]]:
    """The nontrivial cycles of p, each starting at its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i] and p[i] != i:
            cyc = [i]
            seen[i] = True
            j = p[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = p[j]
            out.append(tuple(cyc))
    return out


def _order_of(p: bytes) -> int:
    return math.lcm(*map(len, _cycles(p)))


def mulclose(degree: int, gens: Iterable[bytes], *, seed: Iterable[bytes] = (),
             stop_above: int | None = None) -> set[bytes] | None:
    """Close ``gens`` (image bytes) under composition; returns the element set.

    ``seed``, if given, is the element set of a subgroup K generated by those
    of ``gens`` that lie in it, such as the group of a prefix of ``gens``.
    Dimino's method (Butler, Fundamental Algorithms for Permutation Groups,
    1991): each generator g outside the group K built so far is added by
    closing the left cosets y.K under left multiplication by K's generators
    and g, each new coset taken whole.  If ``stop_above`` is given and the
    closure exceeds that many elements, returns None (the caller knows which
    full group that forces).
    """
    ident = bytes(range(degree))
    elems = list(seed) or [ident]  # K, then its cosets in the group so far
    seen = set(elems)
    gens = [g for g in dict.fromkeys(gens) if g != ident]
    tables = [_table(g) for g in gens if g in seen]  # they generate the seed
    for g in gens:
        if g in seen:
            continue
        tables.append(_table(g))
        group, reps = elems[:], [ident]
        for y in reps:  # each coset y.K's images under the generators
            for t in tables:
                z = y.translate(t)
                if z not in seen:
                    tz = _table(z)
                    coset = [k.translate(tz) for k in group]
                    seen.update(coset)
                    elems += coset
                    reps.append(z)
                    if stop_above is not None and len(seen) > stop_above:
                        return None
    return seen if stop_above is None or len(seen) <= stop_above else None


class Perm(bytes):
    """A permutation of {0..d-1}: the bytes of its images, so p[x] = p(x)."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        images = tuple(images)
        if len(images) > MAX_DEGREE:
            raise ValueError(f"degree {len(images)} exceeds bound {MAX_DEGREE}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images!r}")
        return super().__new__(cls, images)

    @classmethod
    def _raw(cls, b: bytes) -> "Perm":
        # unchecked: b is known to be a bijection; a Perm is kept, not copied
        return b if type(b) is cls else bytes.__new__(cls, b)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(bytes(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, x: int) -> int:
        return self[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        return Perm._raw(_compose(self, other))

    def __invert__(self) -> "Perm":
        return Perm._raw(_inverse(self))

    def order(self) -> int:
        return _order_of(self)

    def is_identity(self) -> bool:
        return self == _PAD[:len(self)]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        return _cycles(self)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"


class PermGroup(frozenset):
    """A finite permutation group: the frozenset of its elements, plus its
    degree, generators and sorted elements.

    It equals and hashes as its element set, ``p in G`` takes a ``Perm`` or
    raw image bytes, and ``H <= G`` is the subgroup order (``<`` proper).
    Iteration follows ``elements``, sorted lexicographically on images with
    the identity first, never the set's hash order.  The constructor takes
    the elements in any order, as ``Perm``s, which it keeps, or image bytes,
    and checks neither them nor the generators.
    """

    __slots__ = ("degree", "generators", "elements")

    def __new__(cls, degree: int, generators: Iterable[bytes],
                elements: Iterable[bytes]) -> "PermGroup":
        elements = tuple(map(Perm._raw, sorted(elements)))
        self = super().__new__(cls, elements)
        self.degree = degree
        self.generators = tuple(map(Perm._raw, generators))
        self.elements = elements
        return self

    def __reduce__(self):
        return PermGroup, (self.degree, self.generators, self.elements)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (), [bytes(range(degree))])

    @property
    def order(self) -> int:
        return len(self)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _orbits(degree: int, gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Orbits on {0..degree-1} of the group generated by ``gens`` (image
    bytes or lists), each sorted, in order of least point: each walked from
    its least point over the images of its points under ``gens``."""
    orbit_of: list[list[int] | None] = [None] * degree
    out = []
    for x in range(degree):
        if orbit_of[x] is None:
            orbit = orbit_of[x] = [x]
            for y in orbit:
                for g in gens:
                    z = g[y]
                    if orbit_of[z] is None:
                        orbit_of[z] = orbit
                        orbit.append(z)
            out.append(tuple(sorted(orbit)))
    return out


def _small_genset(degree: int, eset: Iterable[bytes]) -> tuple[bytes, ...]:
    """Greedy small generating set for a closed element set."""
    ident = bytes(range(degree))
    gens: list[bytes] = []
    got = {ident}
    for b in sorted(eset):
        if b not in got:
            gens.append(b)
            got = mulclose(degree, gens)
    return tuple(gens)


def group_closure(degree: int, gens: Iterable[Perm]) -> PermGroup:
    """The group generated by ``gens``: smallest closed superset plus identity."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"degree mismatch: generator {g!r} has degree "
                             f"{g.degree}, expected {degree}")
    return PermGroup(degree, gens, mulclose(degree, gens))


def _require_subgroup(G: PermGroup, H: PermGroup) -> None:
    if not H <= G:
        raise ValueError(f"H (order {H.order}, degree {H.degree}) is not a "
                         f"subgroup of G (order {G.order}, degree {G.degree})")


def _prime_power(n: int) -> int | None:
    """The prime q with n = q**k for some k >= 1, or None.  So n is prime
    exactly when ``_prime_power(n) == n``."""
    if n < 2:
        return None
    q = 2
    while q * q <= n:
        if n % q == 0:
            while n % q == 0:
                n //= q
            return q if n == 1 else None
        q += 1
    return n


def _solvable_residual(G: PermGroup) -> Set[bytes]:
    """The element set of the last term of the derived series of G.  The
    series starts at G's elements; each term is the normal closure, in the
    term before, of the commutators of that term's generators, and the
    series stops when a term does not shrink."""
    degree, elems, gens = G.degree, G, [bytes(g) for g in G.generators]
    ident = bytes(range(degree))
    while True:
        ginv = [(g, _inverse(g)) for g in gens]
        todo = [_compose(_compose(a, b), _compose(ai, bi))
                for i, (a, ai) in enumerate(ginv) for b, bi in ginv[:i]]
        derived, dgens = {ident}, []
        while todo:  # each generator added is conjugated by every generator
            c = todo.pop()
            if c not in derived:
                dgens.append(c)
                derived = mulclose(degree, dgens, seed=derived)
                todo.extend(_compose(_compose(g, c), gi) for g, gi in ginv)
        if len(derived) == len(elems):
            return elems
        elems, gens = derived, dgens


def subgroup_records(G: PermGroup) -> dict[frozenset, tuple[bytes, ...]]:
    """Every subgroup of G as {element set: generators (image bytes)}.

    Neubüser's cyclic extension method (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005).  One representative H per conjugacy
    class is queued, starting from the trivial group, and each class is
    filled in by conjugating breadth-first under G's generators.  That walk
    also gives N_G(H), the stabilizer of H under conjugation (ibid., 4.1).
    It keeps a transversal t_K with K = t_K.H.t_K^-1 for each K in the
    class; by Schreier's lemma the elements t_L^-1.c.t_K, one per edge
    K -> L = c.K.c^-1 of the walk, self-loops included, generate N_G(H).
    They are made in walk order, each added to H's generators unless already
    generated, until the closure reaches |N_G(H)| = |G|/|class|; a class of
    size 1 means H is normal and N_G(H) = G, and none is made.  Each H then
    takes two steps:

    1. Prime-index step.  For each x in N_G(H) \\ H outside every U already
       built from H, let k be least with x^k in H.  If k is prime, U = H, xH,
       ..., x^(k-1)H is a subgroup with H normal of index k; it is built
       coset by coset, with no closure.  Any other x' in U \\ H gives this U.
    2. Join step, only when H lies in R, the solvable residual of G (the
       last term of its derived series), and is not normal in G.  H is
       joined by closure with <g> for one unit g (least generator) of each
       orbit of the prime-power cyclic subgroups of R under conjugation by
       N_G(H), if g is outside N_G(H); <H, n.g.n^-1> = n.<H, g>.n^-1 for n
       in N_G(H).  The orbits are taken under the generators of N_G(H).
       H and g lie in R, so a closure past |R|/5 is R: it stops there.  R
       is perfect, so it has no proper subgroup of index n < 5: R would act
       on its cosets as a transitive, so nontrivial and perfect, subgroup
       of S_n, which is solvable.  A4 in A5 shows 5 is tight.

    This finds every subgroup U, by induction on |U|.  If U > 1 is not
    perfect, U/U' is a nontrivial abelian group, so U has a normal subgroup
    M of prime index, and step 1 reaches a conjugate of U from the
    representative of M's class.  If U > 1 is perfect, U lies in R, and so
    does a maximal subgroup M of U.  U is generated by its elements of
    prime-power order, so one of them, u, lies outside M and U = <M, u>.
    M is not normal in U, or U/M would have prime order, so u is outside
    N_G(M) and M is not normal in G: step 2 reaches U from M's class.
    Every group of order below 60 is solvable, so there R = 1 and no joins
    are made.
    """
    if G.order > DEFAULT_ORDER_BOUND:
        raise ValueError(f"group order {G.order} exceeds bound {DEFAULT_ORDER_BOUND}")
    degree = G.degree
    ident = bytes(range(degree))
    elems = [bytes(p) for p in G.elements]  # exact bytes keep the hot loops fast
    full_key = frozenset(elems)
    # one shared bytes object per element keeps the element sets small
    intern = {b: b for b in elems}
    pad = _PAD[degree:]
    table = {b: b + pad for b in elems}  # _table(b), for translate
    # per generator c of G: its table, and {y: c.y.c^-1} over G, interned
    conj_by = []
    for c in G.generators:
        tc, cinv = table[c], _inverse(c)
        conj_by.append((tc, cinv, {y: intern[cinv.translate(y.translate(tc) + pad)]
                                   for y in elems}))

    subs: dict[frozenset, tuple[bytes, ...]] = {}
    # (H, its generators, generators and elements of N_G(H)) per class
    reps: deque[tuple[frozenset, tuple, list, Set]] = deque()

    def add_class(eset: frozenset, gens: tuple[bytes, ...]) -> None:
        """Insert eset and its conjugacy class; queue eset as the class rep,
        with generators and elements of its normalizer."""
        subs[eset] = gens
        trans = {eset: (ident, table[ident])}  # K: (t_K, table of t_K^-1)
        edges = []  # (t_K, table of c, L) per edge K -> L off the tree
        frontier = [(eset, gens)]
        while frontier:
            new = []
            for kset, kgens in frontier:
                tk, tkinv = trans[kset]
                for tc, cinv, conj in conj_by:
                    cgens = tuple(map(conj.__getitem__, kgens))
                    lset = kset
                    if not kset.issuperset(cgens):  # c does not normalize K
                        lset = frozenset(map(conj.__getitem__, kset))
                        if lset not in trans:
                            subs[lset] = cgens
                            # t_L = c.t_K, so t_L^-1 = t_K^-1.c^-1
                            trans[lset] = (tk.translate(tc),
                                           cinv.translate(tkinv) + pad)
                            new.append((lset, cgens))
                            continue
                    edges.append((tk, tc, lset))
            frontier = new
        order = G.order // len(trans)  # |N_G(H)| = |G| / |class|
        ngens, nset = list(gens), full_key if order == G.order else eset
        for tk, tc, lset in edges:  # Schreier generators, made as needed
            if len(nset) == order:
                break
            s = tk.translate(tc).translate(trans[lset][1])
            if s not in nset:
                ngens.append(s)
                nset = mulclose(degree, ngens, seed=nset)
        reps.append((eset, gens, ngens, nset))

    residual = frozenset(map(intern.__getitem__, _solvable_residual(G)))
    # a join step stays in R, and R's proper subgroups have index 5 or more
    r_proper = len(residual) // 5
    unit_of: dict[bytes, bytes] = {}  # x -> the least generator of <x>
    units = []  # the b with <b> of prime-power order, ascending
    for b in sorted(residual)[1:]:  # identity is first
        if b in unit_of:
            continue
        powers, tb = [b], table[b]
        while powers[-1] != ident:
            powers.append(powers[-1].translate(tb))
        for k, y in enumerate(powers, 1):  # b^k generates <b> iff gcd(k, |b|) = 1
            if math.gcd(k, len(powers)) == 1:
                unit_of[y] = b
        if _prime_power(len(powers)) is not None:
            units.append(b)
    index = {u: i for i, u in enumerate(units)}

    def orbit_firsts(conj: list[bytes]) -> list[bytes]:
        """The least unit of each orbit of the units under conjugation."""
        moved = [[index[unit_of[cinv.translate(u.translate(table[c]) + pad)]]
                  for u in units] for c, cinv in ((c, _inverse(c)) for c in conj)]
        return [units[orbit[0]] for orbit in _orbits(len(units), moved)]

    add_class(frozenset({ident}), ())
    while reps:
        eset, gens, ngens, nset = reps.popleft()
        normal = len(nset) == G.order
        built: set[bytes] = set()  # elements of the U built from H so far
        for x in elems if normal else sorted(nset):
            if x in eset or x in built:
                continue
            tx = table[x]
            k, y = 1, x
            while y not in eset:  # y = x^k
                y = y.translate(tx)
                k += 1
            if _prime_power(k) != k:
                continue
            coset, members = eset, list(eset)
            for _ in range(k - 1):  # the coset x^i H is x times x^(i-1) H
                coset = [intern[h.translate(tx)] for h in coset]
                members += coset
            built.update(members)
            key = frozenset(members)
            if key not in subs:
                add_class(key, gens + (intern[x],))
        if normal or not eset <= residual:
            continue
        for g in orbit_firsts(ngens):
            if g in nset:
                continue
            res = mulclose(degree, gens + (g,), seed=eset, stop_above=r_proper)
            key = residual if res is None else frozenset(intern[x] for x in res)
            if key not in subs:
                add_class(key, gens + (g,))
    return subs


def all_subgroups(G: PermGroup) -> tuple[PermGroup, ...]:
    """Every subgroup of G (see subgroup_records), ordered by order, then by
    sorted element images."""
    own = {p: p for p in G.elements}.__getitem__  # the subgroups share G's Perms
    groups = [PermGroup(G.degree, map(own, gens), map(own, eset))
              for eset, gens in subgroup_records(G).items()]
    groups.sort(key=lambda K: (K.order, K.elements))
    return tuple(groups)


def interval(G: PermGroup, H: PermGroup) -> tuple[PermGroup, ...]:
    """All subgroups K with H <= K <= G, as a sublist of all_subgroups(G)."""
    _require_subgroup(G, H)
    return tuple(K for K in all_subgroups(G) if H <= K)


def _on_cosets(G: PermGroup, H: PermGroup, xs: Iterable[Perm]) -> list[Perm]:
    """Each x of G acting on the left cosets of H by left multiplication, the
    cosets numbered in order of their least members."""
    number: dict[bytes, int] = {}
    reps: list[bytes] = []
    for p in G.elements:  # ascending, so the first hit in a coset is its min
        if p not in number:
            t = _table(p)
            for h in H.elements:
                number[h.translate(t)] = len(reps)
            reps.append(p)
    return [Perm([number[r.translate(tx)] for r in reps]) for tx in map(_table, xs)]


def coset_action(G: PermGroup, H: PermGroup) -> PermGroup:
    """G acting on the left cosets of H (see _on_cosets), generated by the
    images of G's generators.  The kernel is the core of H, the largest normal
    subgroup of G inside H, so the order is [G:H] exactly when H is normal.
    Raises ValueError if [G:H] > 256, the points a ``Perm`` can hold."""
    _require_subgroup(G, H)
    return group_closure(G.order // H.order, _on_cosets(G, H, G.generators))


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    """True iff gHg^-1 = H for every generator g of G."""
    _require_subgroup(G, H)
    for g in G.generators:
        gi = _inverse(g)
        conj = {_compose(_compose(g, h), gi) for h in H.elements}
        if conj != H:
            return False
    return True


def quotient(G: PermGroup, N: PermGroup) -> PermGroup | None:
    """G/N as G acting on the cosets of N (see coset_action); None if N is not
    normal in G, which the action's order tells.  Raises ValueError if
    [G:N] > 256, the points a ``Perm`` can hold, normal or not."""
    Q = coset_action(G, N)
    return Q if Q.order == G.order // N.order else None


def is_dihedral(G: PermGroup) -> int | None:
    """m >= 2 with |G| = 2m if G has a cyclic subgroup of index 2 and is
    generated by two involutions; None otherwise.

    m = 2 admits the Klein four-group; the 2-element group is rejected.
    """
    n = G.order
    if n < 4 or n % 2:
        return None
    m = n // 2
    if not any(_order_of(b) == m for b in G.elements):
        return None
    ident = bytes(range(G.degree))
    invs = [b for b in G.elements if b != ident and _compose(b, b) == ident]
    for i, a in enumerate(invs):
        for b in invs[i + 1:]:
            if len(mulclose(G.degree, (a, b))) == n:
                return m
    return None

