"""Named group constructors, regular actions, and the sweep catalog."""

from __future__ import annotations

from .perm import DEFAULT_ORDER_BOUND, Perm, PermGroup, coset_action, group_closure


def cyclic(n: int) -> PermGroup:
    """Z_n acting naturally: generated by the n-cycle (degree n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PermGroup.trivial(1)
    rot = Perm([(i + 1) % n for i in range(n)])
    return group_closure(n, [rot])


def symmetric(n: int) -> PermGroup:
    """S_n in its natural action, generated by adjacent transpositions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = []
    for i in range(n - 1):
        img = list(range(n))
        img[i], img[i + 1] = img[i + 1], img[i]
        gens.append(Perm(img))
    return group_closure(n, gens)


def alternating(n: int) -> PermGroup:
    """A_n in its natural action, generated by consecutive 3-cycles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [Perm.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return group_closure(n, gens)


def klein() -> PermGroup:
    """The Klein four-group in its regular degree-4 action."""
    return group_closure(4, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))])


def dihedral(m: int) -> PermGroup:
    """The order-2m dihedral group (rotation of order m plus a reflection).

    For m >= 3 this is the natural degree-m action.  The degree-2 action of
    the m = 2 case is unfaithful, so that case returns the regular degree-4
    Klein representation instead.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m == 2:
        return klein()
    rot = Perm([(i + 1) % m for i in range(m)])
    ref = Perm([(-i) % m for i in range(m)])
    return group_closure(m, [rot, ref])


def quaternion() -> PermGroup:
    """The quaternion group Q_8 in its regular degree-8 action."""
    # points ordered 1, -1, i, -i, j, -j, k, -k; generators act by left
    # multiplication with i and j
    gi = Perm((2, 3, 1, 0, 6, 7, 5, 4))
    gj = Perm((4, 5, 7, 6, 1, 0, 2, 3))
    G = group_closure(8, [gi, gj])
    assert G.order == 8
    return G


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """G x H acting on the disjoint union of the two carriers."""
    dg, dh = G.degree, H.degree
    gens = [Perm(tuple(g.images) + tuple(range(dg, dg + dh))) for g in G.generators]
    gens += [Perm(tuple(range(dg)) + tuple(dg + i for i in h.images))
             for h in H.generators]
    P = group_closure(dg + dh, gens)
    assert P.order == G.order * H.order
    return P


def regular_action(G: PermGroup) -> PermGroup:
    """G acting on itself by left translation: the action on the cosets of the
    trivial subgroup, so on the canonical element order.  Faithful and
    transitive with trivial point stabilizers, degree |G|."""
    if G.order > DEFAULT_ORDER_BOUND:
        raise ValueError(f"group order {G.order} exceeds bound {DEFAULT_ORDER_BOUND}")
    return coset_action(G, PermGroup.trivial(G.degree))


CATALOG_ORDER_BOUND = 48


def catalog(max_order: int = 24) -> list[tuple[str, PermGroup]]:
    """Deterministic catalog of regular representations for the sweeps.

    Members: all cyclic groups, the Klein group, all dihedral groups, S_3 and
    S_4, A_4, Q_8 (orders permitting), and the direct products of two base
    members whose order product fits.  Every entry is the regular action and
    entries are deduplicated by canonical element-set key, so e.g. the regular
    D_6 and regular S_3 appear once.
    """
    if max_order > CATALOG_ORDER_BOUND:
        raise ValueError(f"max_order {max_order} exceeds bound {CATALOG_ORDER_BOUND}")
    base: list[tuple[str, PermGroup]] = []
    for n in range(1, max_order + 1):
        base.append((f"Z{n}", cyclic(n)))
    if max_order >= 4:
        base.append(("V4", klein()))
    for m in range(3, max_order // 2 + 1):  # D4 is V4
        base.append((f"D{2 * m}", dihedral(m)))
    if max_order >= 6:
        base.append(("S3", symmetric(3)))
    if max_order >= 24:
        base.append(("S4", symmetric(4)))
    if max_order >= 12:
        base.append(("A4", alternating(4)))
    if max_order >= 8:
        base.append(("Q8", quaternion()))

    out: list[tuple[str, PermGroup]] = []
    seen = set()

    def add(name: str, G: PermGroup) -> None:
        R = regular_action(G)
        if R not in seen:
            seen.add(R)
            out.append((name, R))

    for name, G in base:
        add(name, G)
    for i, (n1, G1) in enumerate(base):
        for n2, G2 in base[i:]:
            if 1 < G1.order and G1.order * G2.order <= max_order:  # Z1 x G acts as G
                add(f"{n1}x{n2}", direct_product(G1, G2))
    return out
