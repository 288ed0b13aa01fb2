"""Group and algebra file round trips."""

import json

import pytest

from mnlab import UnaryAlgebra, dihedral, gset_algebra, regular_action
from mnlab.io import (FormatError, algebra_from_dict, group_from_dict,
                      load_algebra, load_group, save_algebra, save_group)


def test_group_round_trip(tmp_path):
    G = dihedral(5)
    path = tmp_path / "d10.json"
    save_group(G, path, name="D10")
    H = load_group(path)
    assert H == G and H.generators == G.generators
    data = json.loads(path.read_text())
    assert data["format"] == 1 and data["name"] == "D10"
    assert data["generators"] == [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]


def test_algebra_round_trip(tmp_path):
    A = gset_algebra(regular_action(dihedral(3)), name="witness")
    path = tmp_path / "w.algebra"
    save_algebra(A, path)
    B = load_algebra(path)
    assert B == A and B.name == "witness"
    assert json.loads(path.read_text())["format"] == 1


def test_rejects_unknown_format_version():
    with pytest.raises(FormatError, match="format version"):
        group_from_dict({"format": 2, "degree": 2, "generators": []})


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_rejects_format_version_that_only_equals_one(tmp_path, version):
    # json reads these as True and 1.0, which compare equal to 1
    group = tmp_path / "g.json"
    group.write_text(f'{{"format": {version}, "degree": 2, "generators": []}}')
    algebra = tmp_path / "a.json"
    algebra.write_text(f'{{"format": {version}, "size": 2, "ops": []}}')
    message = f"unsupported format version {version.title()}"  # True, 1.0
    for load, path in ((load_group, group), (load_algebra, algebra)):
        with pytest.raises(FormatError, match=f"{path.name}: {message}"):
            load(path)


def test_rejects_malformed_group():
    with pytest.raises(FormatError, match="bad group file"):
        group_from_dict({"degree": 3})
    with pytest.raises(FormatError):
        group_from_dict({"degree": 3, "generators": [[0, 0, 1]]})


def test_rejects_malformed_algebra():
    with pytest.raises(FormatError, match="bad algebra file"):
        algebra_from_dict({"size": 3, "ops": [[0, 9, 1]]})


@pytest.mark.parametrize("data", [[1, 2], None, "group", 3])
def test_rejects_non_object(data):
    with pytest.raises(FormatError, match="expected a JSON object"):
        group_from_dict(data)
    with pytest.raises(FormatError, match="expected a JSON object"):
        algebra_from_dict(data)


@pytest.mark.parametrize("ops", [[[0, 1.5]], [[1.0, 0]], [[True, 0]]])
def test_rejects_non_integer_op_entry(ops):
    # each passes the range check 0 <= x < size
    with pytest.raises(FormatError, match="bad algebra file: not an integer"):
        algebra_from_dict({"size": 2, "ops": ops})


def test_rejects_non_integer_size_and_degree():
    with pytest.raises(FormatError, match="bad algebra file: not an integer: 2.7"):
        algebra_from_dict({"size": 2.7, "ops": []})
    with pytest.raises(FormatError, match="bad group file: not an integer: 2.7"):
        group_from_dict({"degree": 2.7, "generators": []})
    with pytest.raises(FormatError, match="bad group file: not an integer"):
        group_from_dict({"degree": "3", "generators": []})
    # a bool image passes the bijection check as 0 or 1
    with pytest.raises(FormatError, match="bad group file: not an integer"):
        group_from_dict({"degree": 2, "generators": [[True, False]]})


def test_missing_format_field_accepted():
    A = algebra_from_dict({"size": 2, "ops": [[1, 0]]})
    assert A == UnaryAlgebra(2, ((1, 0),))


@pytest.mark.parametrize("degree", [-1, 0, 257, 300])
def test_rejects_degree_outside_bound(degree):
    with pytest.raises(FormatError, match=r"g\.json: degree .* outside 1\.\.256"):
        group_from_dict({"degree": degree, "generators": []}, "g.json")


def test_rejects_group_above_order_bound():
    # S8: 40,320 elements, refused once the closure passes 5040
    s8 = {"degree": 8, "generators": [[1, 0, 2, 3, 4, 5, 6, 7],
                                      [1, 2, 3, 4, 5, 6, 7, 0]]}
    with pytest.raises(FormatError, match="g.json: group order exceeds bound 5040"):
        group_from_dict(s8, "g.json")
    s7 = {"degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6],
                                      [1, 2, 3, 4, 5, 6, 0]]}
    assert group_from_dict(s7).order == 5040


@pytest.mark.parametrize("name", [5, [1], None, {"a": 1}])
def test_rejects_non_string_algebra_name(name):
    with pytest.raises(FormatError, match="a.json: name must be a string"):
        algebra_from_dict({"size": 2, "ops": [[1, 0]], "name": name}, "a.json")


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000],
                         ids=["open", "closed"])
def test_rejects_json_nested_past_the_recursion_limit(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    for load in (load_algebra, load_group):
        with pytest.raises(FormatError, match="deep.json: not a JSON file"):
            load(path)
