"""Mutation sweep over the sweeps in verify.py, the flag and factor checks in
cli.py, the constructors and catalog in construct.py, the lattice check,
its transpose, height, chain test, M_n detector and shape in lattice.py, the
coset action, cycle walk, closure and orbit walk in perm.py, the union-find,
join, refinement, enumeration and partition index in partition.py, and the
principal congruences, join closure, Galois check, congruence lattice and
preserving maps in congruence.py.

Run from the root of a checkout (pytest does not collect this file; CI runs
the lattice.py, perm.py and partition.py triples):

    python tests/mutants.py                  # every mutant, in a temp dir
    python tests/mutants.py --list           # print the mutants, run nothing
    python tests/mutants.py --module src/mnlab/perm.py   # one module's only
    python tests/mutants.py --workdir DIR    # put the mutated copy in DIR

TARGETS holds (module, functions, tests) triples; a method is named
``Class.method``.  Each mutant is one small edit of one function named in a
triple: a comparison flipped, ``and``/``or`` or ``&``/``|`` swapped, one term
of a boolean dropped, a ``not`` dropped, the two operands of ``//``, ``%`` or
``-`` swapped, or an integer constant 1 or 2 moved by one.  A mutant's label
names the function (``outer.inner`` for one nested in it), the edit, and the
statement it edits before and after (its
``ast.unparse`` text, without the body of a compound statement), so no
edit elsewhere renames it; labels are unique.
The sweep copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
work directory, writes each mutant there in turn and runs the tests of its
triple against it; the checkout itself is never written.  A mutant survives
when every test passes.  Each child process gets a time limit and an
address-space limit, since a mutant can loop or grow a list for ever; either
limit counts as a kill.

Survivors that cannot be killed are listed in EQUIVALENT with the reason.
The exit status is 0 when every survivor is listed there, 1 otherwise, and
2 when a triple names a function its module does not define.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, functions to mutate, tests that must kill the mutants)
TARGETS = (
    (Path("src/mnlab/verify.py"),
     ("check_lemma", "check_theorem1", "_atom_systems", "_orbit_firsts",
      "check_theorem2"),
     ("tests/test_verify.py::TestLemmaSweep",
      "tests/test_verify.py::TestTheorem1",
      "tests/test_verify.py::TestTheorem2",
      "tests/test_partition.py::TestPartitionIndex",
      "tests/test_cli.py",
      "tests/test_acceptance.py")),
    (Path("src/mnlab/cli.py"),
     ("_check_flags", "_parameter", "_factor", "_cmd_group", "_cmd_verify"),
     ("tests/test_cli.py",)),
    (Path("src/mnlab/construct.py"),
     ("catalog", "symmetric", "alternating"),
     ("tests/test_construct.py",)),
    (Path("src/mnlab/lattice.py"),
     ("_mn_of", "FinLattice._validate", "FinLattice.from_inclusion",
      "FinLattice.down", "FinLattice.height", "FinLattice.is_chain",
      "FinLattice.shape"),
     ("tests/test_lattice.py",)),
    (Path("src/mnlab/perm.py"),
     ("coset_action", "_on_cosets", "quotient", "is_normal", "_order_of",
      "_cycles", "mulclose", "_orbits"),
     ("tests/test_perm.py::TestPerm",
      "tests/test_perm.py::TestClosure",
      "tests/test_perm.py::TestRecordedRecords",
      "tests/test_verify.py::TestEnumeration::test_orbit_count",
      "tests/test_verify.py::TestEnumeration::test_transitivity_by_the_orbit_of_0",
      "tests/test_perm.py::TestPredicates",
      "tests/test_perm.py::TestCosets",
      "tests/test_perm.py::TestNormalityAndCore",
      "tests/test_perm.py::TestQuotient",
      "tests/test_construct.py::TestCosetAction",
      "tests/test_verify.py::TestLemmaSweep")),
    (Path("src/mnlab/partition.py"),
     ("rgs_closure", "rgs_join", "rgs_refines", "all_rgs", "partition_index",
      "PartitionIndex.__init__"),
     ("tests/test_partition.py",)),
    (Path("src/mnlab/congruence.py"),
     ("_principals", "_join_closure", "_close", "galois_is_closed",
      "_lattice_from_rgs", "preserving_maps"),
     ("tests/test_congruence.py",)),
)
MEMORY_BYTES = 2 << 30

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAP = {ast.And: ast.Or, ast.Or: ast.And, ast.BitAnd: ast.BitOr,
        ast.BitOr: ast.BitAnd}
NOT_COMMUTING = (ast.FloorDiv, ast.Mod, ast.Sub)

# The lemma counts the intermediates K of index 2 over H.  Each normalizes
# H, so they are the subgroups of order 2 of N_G(H)/H, less G/H itself, and
# a group of even order has an odd number of involutions: the count is 0 or
# odd.
PARITY = ("the index-2 count is 0 or odd, so it is at least 2 exactly when it"
          " is at least 3")
DROP_ONE = ("the slice loses one intermediate: as the index-2 count is 0 or"
            " odd, a count of at least 3 stays at least 2 and a count of 0 or"
            " 1 stays below 2")

# check_lemma's finding, the statement of one entry of EQUIVALENT
FINDING = ("findings.append({'group': name, 'subgroup_key': _subgroup_key(H),"
           " 'subgroup_order': H.order, 'n': n, 'index': index,"
           " 'conclusions': {'h_normal': h_normal, 'quotient_dihedral_m': m,"
           " 'n_eq_p_plus_1': n_eq, 'two_index2_intermediates': two_index2,"
           " 'rotation_simple': m_prime}, 'ok': n_eq and two_index2})")
TWO_INDEX2 = ("two_index2 = sum((1 for K in iv[{}:{}] if len(K) == 2 *"
              " H.order)) {} {}")
GALOIS = "principals {} want and _join_closure(size, principals) == want"

# mutant label -> why no test can kill it
EQUIVALENT = {
    "check_lemma op 0 flipped: if index >= 2 * n: -> if index > 2 * n:":
        "no M_n interval of catalog(48) has index exactly 2n (398 lie below,"
        " 8 above), so the boundary is unreachable on the sweep's domain",
    "check_lemma op 0 flipped: " + TWO_INDEX2.format(1, -1, ">=", 2) + " -> "
    + TWO_INDEX2.format(1, -1, ">", 2): PARITY,
    "check_lemma +1: " + TWO_INDEX2.format(1, -1, ">=", 2) + " -> "
    + TWO_INDEX2.format(1, -1, ">=", 3): PARITY,
    "check_lemma -1: " + TWO_INDEX2.format(1, -1, ">=", 2) + " -> "
    + TWO_INDEX2.format(0, -1, ">=", 2):
        "the slice then takes in H, whose order is not 2 |H|",
    "check_lemma +1: " + TWO_INDEX2.format(1, -1, ">=", 2) + " -> "
    + TWO_INDEX2.format(2, -1, ">=", 2): DROP_ONE,
    "check_lemma +1: " + TWO_INDEX2.format(1, -1, ">=", 2) + " -> "
    + TWO_INDEX2.format(1, -2, ">=", 2): DROP_ONE,
    f"check_lemma term 1 dropped: {FINDING} -> "
    + FINDING.replace("n_eq and two_index2}", "n_eq}"):
        "n_eq holds only when G/H is dihedral of order 2m, m prime, so the"
        " interval is the subgroup lattice of D_2m, whose m reflection"
        " subgroups (all three subgroups of order 2 when m = 2) have index 2"
        " over H: two_index2 follows",
    "catalog op 0 flipped: if max_order >= 6: -> if max_order > 6:":
        "at max_order 6 regular S3 is regular D6, already in the catalog, and"
        " a product with S3 has order at least 12, so S3 in the base changes"
        " nothing at 6",
    "galois_is_closed op 0 flipped: return " + GALOIS.format("<=") + " -> return "
    + GALOIS.format("<"):
        "a principal congruence Cg(a, b) relates a and b, so none is the"
        " bottom, which `want` holds: the principals lie in `want` exactly"
        " when they lie strictly in it",
    "_lattice_from_rgs op 0 flipped: ix = partition_index(n) if n <="
    " INDEX_SIZE_BOUND else None -> ix = partition_index(n) if n <"
    " INDEX_SIZE_BOUND else None":
        "the index builds each rel with _pair_relation, so at 7 points the"
        " mutant computes the same masks the index holds",
    "_atom_systems -1: proper = range(1, ix.bottom) -> proper ="
    " range(0, ix.bottom)":
        "`proper` then takes in the top (id 0), whose pair relation meets every"
        " other partition's but the bottom's: apart[0] is 0 and no proper"
        " apart[j] holds 0, so neither does adj.  The top is the one partition"
        " of its shape, and as that shape's representative it counts 0"
        " candidates; in the listing it opens no branch, as adj[0] is 0",
    "mulclose term 0 dropped: elems = list(seed) or [ident] -> elems ="
    " [ident]":
        "the seed is generated by those of gens that lie in it, so closing all"
        " of gens from the identity builds the same group, in more cosets",
}


def _edits(node: ast.AST):
    """(description, edit) pairs for one node; edit changes it in place."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in FLIP:
                yield (f"op {k} flipped",
                       lambda n, k=k: n.ops.__setitem__(k, FLIP[type(n.ops[k])]()))
    if type(getattr(node, "op", None)) in SWAP:  # BoolOp, BinOp, AugAssign
        yield "op swapped", lambda n: setattr(n, "op", SWAP[type(n.op)]())
    if isinstance(node, ast.BinOp) and type(node.op) in NOT_COMMUTING:
        yield "operands swapped", _swap_operands
    if isinstance(node, ast.BoolOp):
        for k in range(len(node.values)):
            yield f"term {k} dropped", lambda n, k=k: n.values.pop(k)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        # +x has the truth value of x for the ints and bools negated here
        yield "not dropped", lambda n: setattr(n, "op", ast.UAdd())
    if (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in (1, 2)):
        for d in (-1, 1):
            yield f"{d:+d}", lambda n, d=d: setattr(n, "value", n.value + d)


def _swap_operands(node: ast.BinOp) -> None:
    node.left, node.right = node.right, node.left


def _functions(tree: ast.Module, names) -> dict[str, ast.FunctionDef]:
    """The module-level functions and the methods (``Class.method``) of
    `tree` that `names` names."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return {name: f for name, f in found.items() if name in names}


def _header(stmt: ast.stmt) -> str:
    """A statement's source, without the bodies of a compound statement."""
    head = copy.copy(stmt)
    for body in ("body", "orelse", "handlers", "finalbody"):
        if hasattr(head, body):
            setattr(head, body, [])
    return ast.unparse(head)


def mutants(source: str, names):
    """(label, mutated module source) for every mutant of the functions
    `names` of `source`.  The
    label is the innermost function holding the edited node (``outer.inner``
    for a nested one), the edit, and the innermost statement holding the
    node before and after it, so an edit elsewhere in the module does not
    rename a mutant."""
    tree = ast.parse(source)
    labels = set()
    for name, func in _functions(tree, names).items():
        nodes = list(ast.walk(func))
        # annotations, never evaluated under `from __future__ import
        # annotations`, so a mutant of one is equivalent
        inert = {n for a in nodes for ann in (getattr(a, "annotation", None),
                                              getattr(a, "returns", None))
                 if ann is not None for n in ast.walk(ann)}
        owner = {}  # node -> walk index of its innermost statement
        scope = {}  # node -> dotted name of its innermost function
        for i, stmt in enumerate(nodes):  # breadth-first, so inner ones last
            if isinstance(stmt, ast.stmt):
                owner.update(dict.fromkeys(ast.walk(stmt), i))
            if isinstance(stmt, ast.FunctionDef):
                inner = f"{scope[stmt]}.{stmt.name}" if i else name
                scope.update(dict.fromkeys(ast.walk(stmt), inner))
        for index, node in enumerate(nodes):
            for k, (what, _) in enumerate(() if node in inert else _edits(node)):
                mutated = ast.parse(source)
                walked = list(ast.walk(_functions(mutated, names)[name]))
                stmt = walked[owner[node]]
                before = _header(stmt)
                list(_edits(walked[index]))[k][1](walked[index])
                label = f"{scope[node]} {what}: {before} -> {_header(stmt)}"
                assert label not in labels, f"two mutants labelled {label!r}"
                labels.add(label)
                yield label, ast.unparse(mutated)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tests(work: Path, tests, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for `tests` under `work`."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path,
                    help="directory for the mutated copy (default: a temp dir)")
    ap.add_argument("--list", action="store_true",
                    help="print the mutant labels and exit")
    ap.add_argument("--module", type=Path,
                    help="mutate only this module's triple, e.g. src/mnlab/perm.py")
    args = ap.parse_args()
    targets = [t for t in TARGETS if args.module in (None, t[0])]
    if not targets:
        print(f"no target module {args.module}", file=sys.stderr)
        return 2
    plans = []  # (module, source, tests, [(label, mutated source)])
    for module, functions, tests in targets:
        source = (ROOT / module).read_text()
        missing = set(functions) - set(_functions(ast.parse(source), functions))
        if missing:
            print(f"{module} defines no function {', '.join(sorted(missing))}",
                  file=sys.stderr)
            return 2
        plans.append((module, source, tests, list(mutants(source, functions))))
    total = sum(len(found) for *_, found in plans)
    if args.list:
        print("\n".join(label for *_, found in plans for label, _ in found))
        return 0

    survivors = []
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part)
        shutil.copy(ROOT / "pyproject.toml", work)
        n = 0
        for module, source, tests, found in plans:
            target = work / module
            # the unmutated round trip through ast.unparse must pass
            target.write_text(ast.unparse(ast.parse(source)))
            t0 = time.perf_counter()
            if run_tests(work, tests, timeout=600) != "pass":
                print(f"the unmutated {module} fails its tests", file=sys.stderr)
                return 2
            timeout = 5 * (time.perf_counter() - t0) + 10
            for label, text in found:
                n += 1
                target.write_text(text)
                outcome = run_tests(work, tests, timeout)
                print(f"[{n}/{total}] {outcome:7} {label}", flush=True)
                if outcome == "pass":
                    survivors.append(label)
            target.write_text(source)  # the next module's tests see this one intact

    unlisted = [s for s in survivors if s not in EQUIVALENT]
    print(f"\n{total} mutants, {len(survivors)} survived,"
          f" {len(unlisted)} not listed as equivalent")
    for label in survivors:
        print(f"  {label}\n    {EQUIVALENT.get(label, 'NOT LISTED')}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
