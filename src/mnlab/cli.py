"""Command-line entry point.

Subcommands: ``group make``, ``con``, ``interval``, ``verify``, ``witness``.
Exit codes: 0 for success / PASS reports, 1 for FAIL reports, 2 for usage or
input errors.  Reports are reproducible from the argument list alone (timing
fields aside).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from functools import partial, reduce
from pathlib import Path

from .congruence import ORACLE_SIZE_BOUND, all_congruences, congruences_oracle
from .construct import (cyclic, dihedral, direct_product, klein, regular_action,
                        symmetric)
from .io import load_algebra, load_group, save_algebra, save_group
from .lattice import FinLattice
from .perm import DEFAULT_ORDER_BOUND, MAX_DEGREE, interval as subgroup_interval
from .verify import (check_lemma, check_theorem1, check_theorem2,
                     minimal_representation)


class UsageError(Exception):
    pass


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


# the flags each group kind and each sweep reads; each is required but
# --max-order, whose default is 24
READS = {"cyclic": ("n",), "symmetric": ("n",), "dihedral": ("m",), "klein": (),
         "product": ("left", "right"), "lemma": ("max_order",),
         "theorem1": ("p",), "theorem2": ("p", "max_size")}


def _check_flags(args, choice: str, what: str) -> None:
    """Refuse a flag of READS that `choice` does not read, and one that it
    reads but was not given, save --max-order; `what` names the command."""
    some_read = {flag for reads in READS.values() for flag in reads}
    for flag in filter(some_read.__contains__, vars(args)):
        given, read = getattr(args, flag) is not None, flag in READS[choice]
        if given != read and (given or flag != "max_order"):
            problem = "does not read" if given else "requires"
            raise UsageError(f"{what} {problem} --{flag.replace('_', '-')}")


# each group kind but product, as a function of the one flag it reads: its
# constructor, order and name
KINDS = {"cyclic": lambda n: (partial(cyclic, n), n, f"Z{n}"),
         "dihedral": lambda m: (partial(dihedral, m), 2 * m, f"D{2 * m}"),
         "symmetric": lambda n: (partial(symmetric, n), math.factorial(n), f"S{n}"),
         "klein": lambda: (klein, 4, "V4")}


def _parameter(kind: str, flag: str, n: int) -> int:
    # n is a natural degree, so this also keeps n! cheap to compute
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"parameter {n} must lie in 1..{MAX_DEGREE}")
    if kind == "dihedral" and n < 2:  # construct.dihedral's least m
        raise ValueError(f"--{flag}: dihedral needs at least 2, got {n}")
    return n


def _factor(flag: str, text: str) -> tuple:
    """The constructor, order and name of a product factor written
    kind:param, e.g. "cyclic:3", or a kind that reads no flag, "klein";
    `flag` names the flag it was given to."""
    kind, _, param = text.partition(":")
    if kind in KINDS and READS[kind]:
        try:
            n = _parameter(kind, flag, int(param))
        except ValueError:
            raise UsageError(f"--{flag}: bad factor parameter in {text!r}") from None
        return KINDS[kind](n)
    if text in KINDS:
        return KINDS[text]()
    raise UsageError(f"--{flag}: bad factor {text!r}; use kind:param, e.g."
                     " cyclic:3, or klein")


def _cmd_group(args) -> int:
    _check_flags(args, args.kind, f"group make --kind {args.kind}")
    if args.kind == "product":
        factors = [_factor(flag, getattr(args, flag)) for flag in READS["product"]]
    else:
        factors = [KINDS[args.kind](*(_parameter(args.kind, flag, getattr(args, flag))
                                      for flag in READS[args.kind]))]
    makers, orders, names = zip(*factors)
    order = math.prod(orders)
    if order > DEFAULT_ORDER_BOUND:  # not printed: 256! has 507 digits
        raise UsageError(f"group order exceeds bound {DEFAULT_ORDER_BOUND}")
    G = reduce(direct_product, [make() for make in makers])
    assert G.order == order
    if args.regular:
        G = regular_action(G)
    name = args.name or "x".join(names) + ("-regular" if args.regular else "")
    if args.out:
        save_group(G, args.out, name)
    print(json.dumps({"format": 1, "name": name, "degree": G.degree,
                      "order": G.order, "written": args.out}, sort_keys=True))
    return 0


def _cmd_con(args) -> int:
    A = load_algebra(args.algebra)
    if args.oracle and A.size > ORACLE_SIZE_BOUND:
        raise UsageError(f"{args.algebra}: --oracle is limited to carrier"
                         f" size {ORACLE_SIZE_BOUND}, got {A.size}")
    L = all_congruences(A)  # checks the carrier-size bound first
    payload = {
        "format": 1,
        "algebra": {"size": A.size, "ops": len(A.ops), "name": A.name},
        # each label is an RGS written as comma-separated block numbers
        "congruences": sorted([int(x) for x in lab.split(",")] for lab in L.labels),
        "lattice": L.shape_report(),
    }
    if args.oracle:
        payload["oracle"] = {"checked": True,
                             "match": congruences_oracle(A) == L}
    else:
        payload["oracle"] = {"checked": False}
    if args.dot:
        Path(args.dot).write_text(L.to_dot() + "\n")
    _emit(payload, args.out)
    if args.oracle and not payload["oracle"]["match"]:
        return 1
    return 0


def _cmd_interval(args) -> int:
    G = load_group(args.group)
    H = load_group(args.subgroup)
    if not H <= G:
        raise UsageError(f"{args.subgroup}: not a subgroup of {args.group}"
                         f" (degrees {H.degree}/{G.degree},"
                         f" orders {H.order}/{G.order})")
    members = subgroup_interval(G, H)
    L = FinLattice.from_inclusion(members, [f"o{K.order}" for K in members])
    payload = {"format": 1,
               "interval": {"group_order": G.order, "subgroup_order": H.order,
                            "index": G.order // H.order,
                            "subgroup_orders": [K.order for K in members]},
               "lattice": L.shape_report()}
    if args.dot:
        Path(args.dot).write_text(L.to_dot() + "\n")
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    _check_flags(args, args.what, f"verify {args.what}")
    if args.what == "lemma":
        report = check_lemma(24 if args.max_order is None else args.max_order)
    elif args.what == "theorem1":
        report = check_theorem1(args.p)
    else:
        report = check_theorem2(args.p, args.max_size)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_witness(args) -> int:
    A, L = minimal_representation(args.p)
    if args.out:
        save_algebra(A, args.out)
    print(json.dumps({"format": 1, "name": A.name, "size": A.size,
                      "ops": len(A.ops), "lattice": L.shape_report(),
                      "written": args.out}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mnlab",
        description="Finite group and congruence-lattice laboratory.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="construct groups and write group files")
    g.add_argument("action", choices=["make"])
    g.add_argument("--kind", required=True, choices=[*KINDS, "product"])
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--left", help="product factor, e.g. cyclic:3")
    g.add_argument("--right", help="product factor, e.g. cyclic:2")
    g.add_argument("--regular", action="store_true",
                   help="emit the regular action instead of the natural one")
    g.add_argument("--name")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_group)

    c = sub.add_parser("con", help="congruence lattice of an algebra file")
    c.add_argument("algebra")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force partition filter")
    c.add_argument("--dot", help="write the Hasse diagram in DOT syntax")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_con)

    i = sub.add_parser("interval", help="subgroup interval I[H,G] as a lattice report")
    i.add_argument("group")
    i.add_argument("subgroup")
    i.add_argument("--dot")
    i.add_argument("--out")
    i.set_defaults(func=_cmd_interval)

    v = sub.add_parser("verify", help="run a verification sweep")
    v.add_argument("what", choices=["lemma", "theorem1", "theorem2"])
    v.add_argument("--max-order", type=int, help="lemma only; default 24")
    v.add_argument("--p", type=int)
    v.add_argument("--max-size", type=int)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    w = sub.add_parser("witness", help="write the minimal M_{p+1} witness algebra")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--out")
    w.set_defaults(func=_cmd_witness)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        # FormatError is a ValueError; OSError covers a missing file, a
        # directory and an unreadable file
        print(f"mnlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
