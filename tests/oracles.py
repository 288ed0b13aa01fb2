"""Independent test oracles, kept deliberately separate from the library code.

``subgroups_bounded_gen`` enumerates subgroups by closing unions of at most
three cyclic subgroups.  For groups of order <= 24 this is complete: any
proper subgroup has order <= 12, and every group of order <= 12 is generated
by at most three elements (the extreme case is the rank-3 elementary abelian
2-group of order 8).  The full group is seeded explicitly since it may need
more generators.  ``subgroups_join_closure`` has no order bound: it closes
the cyclic subgroups under joins with a cyclic subgroup.  Both close with
``closure``, which multiplies every element by every generator breadth-first
from the identity, with no cosets and no seed.

``is_lattice`` is the all-pairs reference check of a finite relation: a
partial order by ``is_reflexive``, ``is_antisymmetric`` and
``is_transitive`` (the boolean square of the matrix), unique bottom and top,
and a greatest lower and a least upper bound for every pair, each found by
numpy masks over the whole order.  ``is_join_irreducible``
lists an element's lower covers straight from the order.

``core`` intersects all conjugates of H, the definition of the kernel of G
acting on the cosets of H.  ``is_simple`` looks for a proper nontrivial
subgroup of ``subgroups_join_closure`` that equals its own core.
``atom_systems`` filters every k-set of proper partitions with
``itertools.combinations``, with no partition index and no clique search.
``system_orbits`` relabels partition systems by all n! permutations from
``itertools.permutations``, with no generators and no search.

``all_partitions`` grows every RGS one element at a time, each element
joining a block so far or opening the next one.  ``rgs_meet`` numbers each
point by its pair of blocks.  ``preserves`` checks a map
on every related pair.  ``m_n`` writes down the up-sets of M_n.

``closure_by_intersection`` is the definition of the least equivalence
relation that contains some pairs and is compatible with some maps: the
intersection of the related-pair sets of every partition that qualifies,
with no union-find.  ``orbits_bfs`` walks each orbit breadth-first from its
least point.

``derived_series_oracle`` takes each derived subgroup as the closure of
every commutator [a, b] over all pairs a, b of the term before, multiplied
by every commutator until nothing new appears, with no generators and no
normal closure; it is meant for orders up to 120.  ``is_even`` reads a
permutation's parity off its cycle count.

``point_blocks`` is the block system a subgroup K above the stabilizer of
point 0 gives a transitive group G: the images g(K(0)) of the orbit of 0
under K, found by applying every element of G, with no closure.
"""

import collections
import functools
import itertools

import numpy as np
from mnlab import FinLattice, Partition
from mnlab.partition import all_rgs, rgs_canonical, rgs_join
from mnlab.perm import PermGroup, _compose, _inverse


def closure(degree, gens):
    """The element set generated by ``gens`` (image bytes), breadth-first."""
    ident = bytes(range(degree))
    pad = bytes(range(degree, 256))
    tables = [g + pad for g in gens]  # x.translate(g + pad) is g . x
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for t in tables:
            for x in frontier:
                y = x.translate(t)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def cyclic_subgroups(G):
    seen = {}
    ident = bytes(range(G.degree))
    for p in G.elements:
        if p == ident:
            continue
        key = closure(G.degree, (p,))
        seen.setdefault(key, p)
    return seen


def subgroups_bounded_gen(G, max_gens=3):
    """All subgroups of G via joins of up to ``max_gens`` cyclic subgroups.

    Complete for |G| <= 24 (see module docstring); asserts the bound.
    """
    assert G.order <= 24, "bounded-generation oracle is only valid up to order 24"
    cyc = cyclic_subgroups(G)
    gens_list = list(cyc.values())
    found = {frozenset({bytes(range(G.degree))}), G}
    for k in range(1, max_gens + 1):
        for combo in itertools.combinations(gens_list, k):
            found.add(closure(G.degree, combo))
    groups = [PermGroup(G.degree, (), eset) for eset in found]
    groups.sort(key=lambda K: (K.order, K.elements))
    return tuple(groups)


def subgroups_join_closure(G):
    """All subgroups of G: the cyclic subgroups closed under joins with a
    cyclic subgroup, until nothing new appears.  Complete for every order,
    since each subgroup is the join of the cyclic subgroups it contains; no
    conjugacy, normalizer or prime-power reduction."""
    cyc = cyclic_subgroups(G)
    found = {frozenset({bytes(range(G.degree))}): ()}
    found.update((eset, (g,)) for eset, g in cyc.items())
    work = list(found.items())
    while work:
        eset, gens = work.pop()
        for cset, g in cyc.items():
            if not cset <= eset:
                ext = gens + (g,)
                join = closure(G.degree, ext)
                if join not in found:
                    found[join] = ext
                    work.append((join, ext))
    groups = [PermGroup(G.degree, (), eset) for eset in found]
    groups.sort(key=lambda K: (K.order, K.elements))
    return tuple(groups)


def maximal_descent_closure(subgroup_list):
    """Regenerate the family from the top by repeatedly taking, for each
    member, its maximal proper members (co-atoms of each interval); a correct
    full enumeration is a fixed point of this descent."""
    top = max(subgroup_list, key=lambda K: K.order)
    reached = {top}
    work = [top]
    while work:
        K = work.pop()
        proper = [H for H in subgroup_list if H < K]
        maximal = [H for H in proper if not any(H < M for M in proper)]
        for M in maximal:
            if M not in reached:
                reached.add(M)
                work.append(M)
    return reached


def pair_has_meet(leq, i, j):
    lows = leq[:, i] & leq[:, j]
    return bool((lows & leq[lows].all(axis=0)).any())


def pair_has_join(leq, i, j):
    ups = leq[i, :] & leq[j, :]
    return bool((ups & leq[:, ups].all(axis=1)).any())


def is_join_irreducible(leq, j):
    """True iff j has exactly one lower cover: one i < j with no element
    strictly between i and j."""
    below = [i for i in range(leq.shape[0]) if i != j and leq[i, j]]
    covers = [i for i in below if not any(leq[i, k] for k in below if k != i)]
    return len(covers) == 1


def is_reflexive(leq):
    return bool(leq.diagonal().all())


def is_antisymmetric(leq):
    """No i != j with i <= j and j <= i."""
    both = leq & leq.T
    return not (both & ~np.eye(leq.shape[0], dtype=bool)).any()


def is_transitive(leq):
    """i <= k whenever i <= j and j <= k for some j: the boolean square of
    ``leq`` adds nothing to it."""
    square = leq.astype(np.int64) @ leq.astype(np.int64) > 0
    return not (square & ~leq).any()


def is_lattice(leq):
    """True iff the relation ``leq`` (a boolean matrix) is a lattice order:
    a partial order with unique bottom and top and a meet and a join for
    every pair."""
    n = leq.shape[0]
    if not (is_reflexive(leq) and is_antisymmetric(leq) and is_transitive(leq)):
        return False
    if n == 0 or leq.all(axis=1).sum() != 1 or leq.all(axis=0).sum() != 1:
        return False
    return all(pair_has_meet(leq, i, j) and pair_has_join(leq, i, j)
               for i in range(n) for j in range(i + 1, n))


def core(G, H):
    """Largest normal subgroup of G inside H: the intersection of H's
    conjugates gHg^-1 over every element g of G."""
    cur = set(H)
    for g in G.elements:
        gi = _inverse(g)
        cur &= {_compose(_compose(g, h), gi) for h in H}
    return PermGroup(G.degree, (), cur)


def is_simple(G):
    """True iff the only normal subgroups of G are the trivial group and G."""
    if G.order == 1:
        raise ValueError("simplicity is undefined for the trivial group")
    return not any(1 < H.order < G.order and core(G, H) == H
                   for H in subgroups_join_closure(G))


@functools.lru_cache(maxsize=None)
def atom_systems(size, k):
    """Every k-set of proper partitions of a size-set with pairwise meet
    bottom and joint join top, in lexicographic order, each as a pair
    (system, pairwise_top): pairwise_top says every pairwise join is top."""
    bottom, top = tuple(range(size)), (0,) * size
    parts = [r for r in all_rgs(size) if r != bottom and r != top]
    disjoint = [[rgs_meet(a, b) == bottom for b in parts] for a in parts]
    out = []
    for ids in itertools.combinations(range(len(parts)), k):
        if not all(disjoint[i][j] for i, j in itertools.combinations(ids, 2)):
            continue
        system = tuple(parts[i] for i in ids)
        if functools.reduce(rgs_join, system) == top:
            out.append((system, all(rgs_join(a, b) == top for a, b
                                    in itertools.combinations(system, 2))))
    return tuple(out)


def system_orbits(systems, n):
    """The orbits of S_n, relabelling the carrier, on a list of partition
    systems (tuples of RGS), as sets of frozensets in order of first member.
    Each orbit holds the images of one system under all n! permutations."""

    def relabel(rgs, perm):
        first = {}
        return tuple(first.setdefault(rgs[x], len(first)) for x in perm)

    left = set(map(frozenset, systems))
    orbits = []
    for system in map(frozenset, systems):
        if system in left:
            orbit = {frozenset(relabel(r, perm) for r in system)
                     for perm in itertools.permutations(range(n))}
            assert orbit <= left, "the systems are not closed under S_n"
            left -= orbit
            orbits.append(orbit)
    return orbits


def all_partitions(n):
    """Every partition of {0..n-1} as a Partition, in lexicographic RGS
    order."""
    rgss = [()]
    for _ in range(n):
        rgss = [r + (b,) for r in rgss for b in range(max(r, default=-1) + 2)]
    return [Partition(r) for r in rgss]


def rgs_meet(a, b):
    """The common refinement of two RGS: x ~ y iff x ~ y in both."""
    return rgs_canonical(zip(a, b))


def preserves(op, part):
    """True iff x ~ y (part) implies op(x) ~ op(y) (part), for an RGS part."""
    if len(op) != len(part):
        raise ValueError(f"size mismatch: op has {len(op)}, partition {len(part)}")
    return all(part[op[x]] == part[op[y]]
               for x, y in itertools.combinations(range(len(part)), 2)
               if part[x] == part[y])


def m_n(n):
    """The reference M_n: bottom, n pairwise-incomparable middles, top."""
    if n < 1:
        raise ValueError("n must be >= 1")
    top = 1 << (n + 1)
    up = [(top << 1) - 1] + [1 << i | top for i in range(1, n + 1)] + [top]
    return FinLattice(up, ["0"] + [f"a{i}" for i in range(1, n + 1)] + ["1"])


def closure_by_intersection(n, pairs, ops):
    """The finest partition of {0..n-1} relating every pair in ``pairs`` and
    preserved by every op, as a Partition: the pairs x < y related in every
    partition of ``all_partitions(n)`` that contains ``pairs`` and that each
    op preserves (the top always does)."""
    related = None
    for part in all_partitions(n):
        if (all(part[x] == part[y] for x, y in pairs)
                and all(preserves(op, part) for op in ops)):
            rel = {(x, y) for x, y in itertools.combinations(range(n), 2)
                   if part[x] == part[y]}
            related = rel if related is None else related & rel
    # number each block by first appearance, reading it off its least point
    least = [min([x] + [w for w, v in related if v == x]) for x in range(n)]
    first = sorted(set(least))
    return Partition(first.index(m) for m in least)


def orbits_bfs(degree, gens):
    """The orbits of the group generated by ``gens`` (image sequences), each
    sorted, in order of least point: a breadth-first walk from each point
    not yet reached."""
    reached = set()
    orbits = []
    for start in range(degree):
        if start in reached:
            continue
        orbit, queue = {start}, collections.deque([start])
        while queue:
            x = queue.popleft()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    queue.append(g[x])
        reached |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def point_blocks(G, K):
    """The partition of the points of a transitive G into the blocks
    g(K(0)), g in G, as an RGS.  K must lie between the stabilizer of 0 and
    G, so that K(0), the orbit of 0 under K, is a block."""
    orbit = {k[0] for k in K}
    least = [None] * G.degree  # each point's block, named by its least point
    for g in G:
        if least[g[0]] is None:
            block = [g[x] for x in orbit]
            for y in block:
                least[y] = min(block)
    first = {}
    return tuple(first.setdefault(m, len(first)) for m in least)


def derived_series_oracle(K):
    """The last term of the derived series of K, as a frozenset of image
    bytes: each term is every product of commutators a.b.a^-1.b^-1 over all
    a, b in the term before, until a term does not shrink."""
    assert len(K) <= 120, "the all-pairs derived series oracle is meant for order <= 120"
    term = frozenset(bytes(p) for p in K)
    while True:
        inv = {a: _inverse(a) for a in term}
        comm = {_compose(_compose(a, b), _compose(inv[a], inv[b]))
                for a in term for b in term}
        closed, frontier = set(comm), comm
        while frontier:  # every product of commutators, one factor at a time
            frontier = {_compose(a, c) for a in frontier for c in comm} - closed
            closed |= frontier
        if len(closed) == len(term):
            return term
        term = frozenset(closed)


def is_even(p):
    """True iff the permutation p (image sequence) is even: its degree minus
    its number of cycles, fixed points included, is even."""
    seen, cycles = set(), 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = p[x]
    return (len(p) - cycles) % 2 == 0
