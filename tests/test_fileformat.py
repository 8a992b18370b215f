import json
import re

import pytest

from hopfchrom import (
    FileFormatError,
    HopfAxiomError,
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    save_algebra,
)


def test_roundtrip_all_builtins(corpus, tmp_path):
    for H in corpus:
        path = tmp_path / f"{H.name.replace(':', '_')}.json"
        save_algebra(H, str(path))
        loaded = load_algebra(str(path))
        assert loaded.dim == H.dim
        assert loaded.field == H.field
        assert loaded.basis_names == H.basis_names
        assert loaded.mult == H.mult
        assert loaded.comult == H.comult
        assert loaded.unit == H.unit and loaded.counit == H.counit
        assert loaded.antipode == H.antipode


def test_bad_scalar_is_parse_error(z2):
    data = algebra_to_dict(z2)
    data["unit"][0] = "1/0"
    with pytest.raises(FileFormatError) as err:
        algebra_from_dict(data)
    assert "unit[0]" in str(err.value)


def test_index_out_of_range(z2):
    data = algebra_to_dict(z2)
    data["mult"][0] = [0, 0, 5, "1"]
    with pytest.raises(FileFormatError) as err:
        algebra_from_dict(data)
    assert "out of range" in str(err.value)


@pytest.mark.parametrize("kind, key, value, message", [
    ("algebra", ("mult", 0), [True, 0, 0, "1"], "mult\\[0\\]: index True out of range"),
    ("algebra", ("antipode", 0), [0, False, "1"], "antipode\\[0\\]: index False out of range"),
    ("algebra", ("dim",), True, "dim: expected a positive integer, got True"),
    ("algebra", ("field",), {"kind": "cyclotomic", "n": True},
     "conductor True must be a positive integer"),
    ("module", ("action", 0), [0, True, 0, "1"], "action\\[0\\]: index True out of range"),
    ("module", ("dim",), True, "module dim: expected a count, got True"),
], ids=["mult-index", "antipode-index", "dim", "conductor", "module-index", "module-dim"])
def test_json_booleans_are_not_integers(h4, kind, key, value, message):
    """``isinstance(True, int)`` holds in Python, so the loaders reject a JSON
    boolean where an integer belongs instead of reading it as 1 or 0."""
    from hopfchrom import module_from_dict, module_to_dict, regular_module

    data = algebra_to_dict(h4) if kind == "algebra" else module_to_dict(regular_module(h4))
    *path, last = key
    node = data
    for k in path:
        node = node[k]
    node[last] = value
    with pytest.raises(FileFormatError, match=message):
        if kind == "algebra":
            algebra_from_dict(data)
        else:
            module_from_dict(data, H=h4)


def test_missing_key(z2):
    data = algebra_to_dict(z2)
    del data["antipode"]
    with pytest.raises(FileFormatError) as err:
        algebra_from_dict(data)
    assert "antipode" in str(err.value)


def test_mutated_antipode_entry_fails_axiom_suite(h4):
    data = algebra_to_dict(h4)
    # S(x) = -gx becomes +gx
    data["antipode"] = [[i, j, s if (i, j) != (3, 2) else "1"]
                        for i, j, s in data["antipode"]]
    with pytest.raises(HopfAxiomError) as err:
        algebra_from_dict(data)
    assert err.value.axiom == "antipode-axiom"


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"kind": "rationals"},')
    with pytest.raises(FileFormatError) as err:
        load_algebra(str(path))
    assert "line" in str(err.value)


def test_field_block_errors(z2):
    data = algebra_to_dict(z2)
    data["field"] = {"kind": "prime-field", "p": 6}
    with pytest.raises(FileFormatError):
        algebra_from_dict(data)
    data["field"] = "Q"
    with pytest.raises(FileFormatError):
        algebra_from_dict(data)


def test_cyclotomic_roundtrip(tmp_path):
    from hopfchrom import FieldSpec, field_make, taft

    C3 = field_make(FieldSpec("cyclotomic", n=3))
    H = taft(3, C3)
    path = tmp_path / "taft_c3.json"
    save_algebra(H, str(path))
    loaded = load_algebra(str(path))
    assert loaded.mult == H.mult and loaded.comult == H.comult
    # scalar strings in the file are coefficient lists
    raw = json.loads(path.read_text())
    assert raw["field"] == {"kind": "cyclotomic", "n": 3}
    assert any(s.startswith("[") for _, _, _, s in raw["mult"])


def test_module_roundtrip(h4, tmp_path):
    from hopfchrom import (alpha_module, load_module, module_from_dict,
                           module_to_dict, regular_module, save_module,
                           tensor_module)

    for M in (regular_module(h4),
              tensor_module(regular_module(h4), alpha_module(h4))):
        path = tmp_path / "module.json"
        save_module(M, str(path))
        loaded = load_module(str(path))
        assert loaded.dim == M.dim and loaded.label == M.label
        assert [m.dense() for m in loaded.action] == [m.dense() for m in M.action]
        reused = load_module(str(path), H=h4)
        assert reused.H is h4


def test_module_file_validation(h4):
    from hopfchrom import module_to_dict, module_from_dict, regular_module
    from hopfchrom.hmod import ModuleAxiomError

    data = module_to_dict(regular_module(h4))
    data["action"][0] = [0, 9, 0, "1"]
    with pytest.raises(FileFormatError):
        module_from_dict(data)
    data = module_to_dict(regular_module(h4))
    data["action"] = data["action"][1:]  # drop one entry: action axiom breaks
    with pytest.raises(ModuleAxiomError):
        module_from_dict(data)
    # a non-list action, a malformed or out-of-range entry and a non-string
    # label are input errors, read as the algebra's term lists are
    good = module_to_dict(regular_module(h4))
    for key, value, message in (
            ("action", 5, "action: expected a list of entries"),
            ("action", None, "action: expected a list of entries"),
            ("action", [[0, 0, 0]], "action[0]: expected [index, index, index, scalar]"),
            ("action", [[4, 0, 0, "1"]], "action[0]: index 4 out of range 0..3"),
            ("action", [[0, 0, True, "1"]], "action[0]: index True out of range 0..3"),
            ("action", [[0, 0, 0, 1]], "action[0]: scalar must be a string"),
            ("label", 7, "module label: expected a string, got 7"),
            ("label", ["a"], "module label: expected a string, got ['a']")):
        with pytest.raises(FileFormatError, match=re.escape(message)):
            module_from_dict({**good, key: value}, H=h4)
    assert module_from_dict({**good, "label": "M"}, H=h4).label == "M"


def test_module_action_entries_sum_and_cancel(h4):
    from fractions import Fraction

    from hopfchrom import module_from_dict, module_to_dict, regular_module

    data = module_to_dict(regular_module(h4))
    split = []
    for h, r, c, s in data["action"]:  # s = (s + 1) + (-1)
        split += [[h, r, c, str(Fraction(s) + 1)], [h, r, c, "-1"]]
    assert [0, 0, 1, "1"] not in data["action"]
    cancel = [[0, 0, 1, "2"], [0, 0, 1, "-3/2"], [0, 0, 1, "-1/2"]]
    loaded = module_from_dict({**data, "action": cancel + split}, H=h4)
    # the sums are the original entries, and the cancelled entry is not stored
    assert module_to_dict(loaded)["action"] == data["action"]
