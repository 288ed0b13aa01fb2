"""SHA-256 of ``perm.subgroup_records(G)``: its element sets, generators and
dict order, so a change to the enumerator that keeps the subgroups but moves
a generator or an entry shows.

Each entry hashes as ``repr((sorted element bytes, generator bytes))`` in the
order of ``subgroup_records(G).items()``.  Groups are named ``S<n>``,
``A<n>`` or ``catalog48:<name>`` for the members of ``catalog(48)``.

    python tests/records_digest.py [NAME ...]

prints ``<digest>  <name>`` for each name given, or for every group that
``tests/data/subgroup_records.sha256`` lists; compare with that file.
"""

import hashlib
import sys
from pathlib import Path

from mnlab import alternating, catalog, symmetric
from mnlab.perm import subgroup_records

RECORDED = Path(__file__).parent / "data" / "subgroup_records.sha256"


def digest(G) -> str:
    h = hashlib.sha256()
    for eset, gens in subgroup_records(G).items():
        h.update(repr((sorted(map(bytes, eset)), tuple(map(bytes, gens)))).encode())
    return h.hexdigest()


def recorded() -> dict[str, str]:
    """{group name: digest} as the recorded file lists them."""
    lines = RECORDED.read_text().splitlines()
    return {name: d for d, name in (line.split("  ") for line in lines)}


def named(names) -> dict:
    """{name: group} for names of the forms above."""
    cat = dict(catalog(48)) if any(n.startswith("catalog48:") for n in names) else {}
    kinds = {"S": symmetric, "A": alternating}
    return {n: cat[n.split(":", 1)[1]] if n.startswith("catalog48:")
            else kinds[n[0]](int(n[1:])) for n in names}


if __name__ == "__main__":
    for name, G in named(sys.argv[1:] or list(recorded())).items():
        print(f"{digest(G)}  {name}")
