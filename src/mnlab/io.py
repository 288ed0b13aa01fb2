"""File formats: groups as generator lists, algebras as operation tables.

Both formats are JSON with a version tag:

  group:   {"format": 1, "degree": d, "generators": [[images], ...],
            "name": optional}
  algebra: {"format": 1, "size": n, "ops": [[table], ...], "name": optional}

Permutations are serialized as 0-based image arrays only.  A file written by
any command re-parses to an identical canonical object.
"""

from __future__ import annotations

import json
from pathlib import Path

from .congruence import UnaryAlgebra
from .perm import DEFAULT_ORDER_BOUND, MAX_DEGREE, Perm, PermGroup, mulclose

FORMAT_VERSION = 1

Pathish = str | Path


class FormatError(ValueError):
    pass


def _check_format(data: dict, path: Pathish) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    version = data.get("format", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1.0 == 1
        raise FormatError(f"{path}: unsupported format version {version!r}")


def _read_json(path: Pathish):
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or too deep
        raise FormatError(f"{path}: not a JSON file: {exc}") from exc


def _int(x) -> int:
    # json reads 2.7 as a float and true as a bool; int() would truncate them
    if type(x) is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


def group_to_dict(G: PermGroup, name: str | None = None) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "degree": G.degree,
        "generators": [list(g.images) for g in G.generators],
    }
    if name is not None:
        out["name"] = name
    return out


def group_from_dict(data: dict, path: Pathish = "<group>") -> PermGroup:
    _check_format(data, path)
    try:
        degree = _int(data["degree"])
        gens = [Perm(map(_int, img)) for img in data["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad group file: {exc}") from exc
    if not 1 <= degree <= MAX_DEGREE:
        raise FormatError(f"{path}: degree {degree} outside 1..{MAX_DEGREE}")
    for g in gens:
        if len(g) != degree:
            raise FormatError(f"{path}: degree mismatch: generator {list(g)}"
                              f" has degree {len(g)}, expected {degree}")
    # bounded, so a large group is refused before it fills memory
    eset = mulclose(degree, gens, stop_above=DEFAULT_ORDER_BOUND)
    if eset is None:
        raise FormatError(f"{path}: group order exceeds bound {DEFAULT_ORDER_BOUND}")
    return PermGroup(degree, gens, eset)


def save_group(G: PermGroup, path: Pathish, name: str | None = None) -> None:
    Path(path).write_text(json.dumps(group_to_dict(G, name), indent=2) + "\n")


def load_group(path: Pathish) -> PermGroup:
    return group_from_dict(_read_json(path), path)


def algebra_to_dict(A: UnaryAlgebra) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "size": A.size,
        "ops": [list(op) for op in A.ops],
    }
    if A.name is not None:
        out["name"] = A.name
    return out


def algebra_from_dict(data: dict, path: Pathish = "<algebra>") -> UnaryAlgebra:
    _check_format(data, path)
    if not isinstance(data.get("name", ""), str):
        raise FormatError(f"{path}: name must be a string, got {data['name']!r}")
    try:
        return UnaryAlgebra(_int(data["size"]),
                            tuple(tuple(map(_int, op)) for op in data["ops"]),
                            data.get("name"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad algebra file: {exc}") from exc


def save_algebra(A: UnaryAlgebra, path: Pathish) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(A), indent=2) + "\n")


def load_algebra(path: Pathish) -> UnaryAlgebra:
    return algebra_from_dict(_read_json(path), path)
