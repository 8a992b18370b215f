import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from hopfchrom import algebra_to_dict, save_algebra
from hopfchrom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_builtin_pass(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "sweedler")
    assert code == 0 and "PASS" in out


def test_verify_file_roundtrip(capsys, tmp_path, t3):
    path = tmp_path / "taft3.json"
    save_algebra(t3, str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


def test_verify_names_broken_axiom(capsys, tmp_path, h4):
    data = algebra_to_dict(h4)
    data["antipode"] = [[i, j, s if (i, j) != (3, 2) else "1"]
                       for i, j, s in data["antipode"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and "antipode-axiom" in out


def test_verify_parse_error_exit_2(capsys, tmp_path, z2):
    data = algebra_to_dict(z2)
    data["unit"][0] = "1/0"
    path = tmp_path / "badscalar.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "unit[0]" in err


def test_integrals_reports(capsys):
    code, out, _ = run(capsys, "integrals", "--builtin", "sweedler", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == ["1", "-1", "0", "0"]
    assert payload["unimodular"] is False and payload["spherical"] is False

    code, out, _ = run(capsys, "integrals", "--builtin", "group:Z3")
    assert code == 0 and "spherical             : yes" in out

    code, out, _ = run(capsys, "integrals", "--builtin", "taft:3",
                       "--field", "GF:7", "--json")
    assert json.loads(out)["unimodular"] is False


def test_chromatic_dump(capsys, tmp_path):
    out_path = tmp_path / "morphism.json"
    code, out, _ = run(capsys, "chromatic", "--builtin", "group:Z2",
                       "--side", "spherical", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["source"] == ["H", "H"]
    # c(a ox b) = delta_ab (b ox b)
    assert sorted(payload["entries"]) == [[0, 0, "1"], [3, 3, "1"]]

    code, out, _ = run(capsys, "chromatic", "--builtin", "sweedler",
                       "--side", "left", "--json")
    payload = json.loads(out)
    assert payload["source_dim"] == 16 and payload["target_dim"] == 16
    assert payload["target"] == ["alpha", "H", "H"]


def test_chromatic_spherical_rejects_nonspherical(capsys):
    code, _, err = run(capsys, "chromatic", "--builtin", "sweedler",
                       "--side", "spherical")
    assert code == 1 and "not spherical" in err


def test_check_grid_all_sides(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "group:Z2", "--side", "all")
    assert code == 0
    assert "spherical" in out and "all identities hold" in out

    code, out, _ = run(capsys, "check", "--builtin", "taft:3", "--field", "GF:7",
                       "--modules", "trivial,alpha", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    sides = {g["side"] for g in payload["grid"]}
    assert sides == {"left", "right"}  # not spherical, so no spherical row


def test_check_spherical_on_nonspherical_fails(capsys):
    code, _, err = run(capsys, "check", "--builtin", "sweedler",
                       "--side", "spherical")
    assert code == 1 and "not spherical" in err


def test_check_inject_fault(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "group:Z2", "--side", "left",
                       "--no-split", "--inject-fault", "0,0")
    assert code == 1
    assert "NOT-EQUAL" in out and "first mismatch at" in out

    # a position outside the matrix is an input error, not a failed check,
    # whether the value is attached with "=" or given as the next argument
    for fault in ("99,99", "-1,0", "0,-1"):
        for spelling in ([f"--inject-fault={fault}"], ["--inject-fault", fault]):
            code, out, err = run(capsys, "check", "--builtin", "group:Z2", "--side",
                                 "left", *spelling)
            assert code == 2, spelling
            assert "input error" in err and "4x4" in err, spelling
            assert "Traceback" not in out + err


def test_check_expr(capsys):
    code, out, _ = run(
        capsys, "check", "--builtin", "group:Z2",
        "--expr", "id(triv)*ev(H)*id(H) ; lamL(triv,ld(H))*id(H,H) ;"
                  " id(triv,ld(H))*cL ; id(triv)*coev(ld(H))*id(H)",
        "--equals", "id(triv,H)")
    assert code == 0 and "equals rhs: True" in out

    code, out, _ = run(capsys, "check", "--builtin", "group:Z2",
                       "--expr", "coev(H) ; ev(H)")
    assert code == 0  # not an endomorphism comparison, just evaluated

    code, _, err = run(capsys, "check", "--builtin", "group:Z2",
                       "--expr", "ev(H) ; nonsense(H)")
    assert code == 2 and "nonsense" in err


def test_unknown_builtin_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "group:Q8")
    assert code == 2 and "unknown group" in err
    code, _, err = run(capsys, "verify", "--builtin", "mystery")
    assert code == 2 and "unknown builtin" in err


def test_field_flag(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "taft:3", "--field", "Cyc:3")
    assert code == 0
    code, _, err = run(capsys, "verify", "--builtin", "taft:3", "--field", "GF:5")
    assert code == 2  # no cube root of unity in GF(5)


def test_chromatic_right_dump_and_integrals_pivot(capsys):
    code, out, _ = run(capsys, "chromatic", "--builtin", "group:Z2",
                       "--side", "right", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["target"] == ["H", "H", "alpha"]
    assert sorted(payload["entries"]) == [[0, 0, "1"], [3, 3, "1"]]

    code, out, _ = run(capsys, "integrals", "--builtin", "group:Z2", "--json")
    payload = json.loads(out)
    assert payload["spherical"] is True
    assert payload["chosen_pivot"] == ["1", "0"]
    assert payload["pivot_candidates"] == [["1", "0"], ["0", "1"]]


def test_check_json_spherical_grid(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "group:Z3", "--json",
                       "--modules", "trivial")
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True
    assert {g["side"] for g in payload["grid"]} == {"left", "right", "spherical"}
    assert {g["P"] for g in payload["grid"]} == {"H", "split(H)"}


def test_check_builds_one_hopf_algebra(capsys, monkeypatch):
    # the right chromatic map comes from H's own coproduct: no H^cop, no
    # second axiom suite and no second set of integrals
    import sys

    import hopfchrom.hopf as hopf_module
    import hopfchrom.integrals as integrals_module

    calls = {"hopf_make": 0, "normalized_pair": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((hopf_module, "hopf_make"), (integrals_module, "normalized_pair")):
        orig = getattr(owner, name)
        wrapper = counted(name, orig)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("hopfchrom") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, wrapper)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("check built H^cop")

    monkeypatch.setattr(hopf_module.HopfAlgebra, "cop", forbidden)
    code, out, _ = run(capsys, "check", "--builtin", "taft:3", "--field", "GF:7")
    assert code == 0 and "all identities hold" in out
    assert calls == {"hopf_make": 1, "normalized_pair": 1}


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_child(*argv):
    """The CLI in a child process limited to 1 GB of address space and 20 s,
    so an input that allocates before it is checked fails fast instead of
    taking the host's memory; returns (exit code, stderr)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run([sys.executable, "-m", "hopfchrom.cli", *argv],
                          capture_output=True, text=True, timeout=20, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("expr", ["(" * 400 + "id(H)" + ")" * 400,
                                  ";".join(["id(H)"] * 1200)])
def test_deep_or_long_expr_is_an_input_error(expr):
    code, err = run_child("check", "--builtin", "group:Z2", "--expr", expr)
    assert code == 2 and "bound of 100 levels" in err and "Traceback" not in err, err


def test_oversized_inputs_exit_2_before_allocating(tmp_path):
    n = 2000
    path = tmp_path / "dim2000.json"
    path.write_text(json.dumps({
        "field": {"kind": "rationals"}, "dim": n, "basis_names": [str(i) for i in range(n)],
        "unit": ["0"] * n, "counit": ["0"] * n, "mult": [], "comult": [], "antipode": []}))
    for argv in (["verify", str(path)],
                 ["verify", "--builtin", "group:Z100000"],
                 ["check", "--builtin", "group:Z2", "--expr", "*".join(["id(H)"] * 40)],
                 # a source of dimension 1 whose words grow to 4^22
                 ["check", "--builtin", "group:Z2", "--expr", "*".join(["coev(H)"] * 22)]):
        code, err = run_child(*argv)
        assert code == 2 and "bound of" in err and "Traceback" not in err, (argv, err)
