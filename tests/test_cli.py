import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from hopfchrom import Matrix, algebra_to_dict, hopf_make, save_algebra
from hopfchrom.cli import _make_builtin, _parse_field, main


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


def test_non_utf8_file_is_an_input_error(capsys, tmp_path):
    """A file that is not UTF-8 text exits 2, not 1 with a UnicodeDecodeError."""
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"dim": \xd0\x00\xff}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "not UTF-8 text" in err


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


def test_integrals_on_the_ground_field(capsys):
    # k[Z1] has no algebra generators: its conditions are stacked over the unit
    code, out, _ = run(capsys, "integrals", "--builtin", "group:Z1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["left_cointegral"] == ["1"]
    assert payload["pivot_search"] == "done"


@pytest.mark.parametrize("key, value, message", [
    ("basis_names", [1, None, True, [2]], "basis_names[0]: name must be a string, got 1"),
    ("name", {"a": 1}, "name: expected a string, got {'a': 1}"),
], ids=["basis_names", "name"])
def test_non_string_names_are_input_errors(capsys, tmp_path, key, value, message):
    docs = pathlib.Path(__file__).resolve().parents[1] / "docs"
    data = json.loads((docs / "sweedler_h4.json").read_text())
    data[key] = value
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 2 and out == "" and f"input error: {message}" in err


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



@pytest.fixture(scope="module")
def undecided_file(tmp_path_factory):
    """dualgroup:Z2 over Q(zeta_3) in the basis b_0 = 2 + zeta chi,
    b_1 = zeta + 2 chi, for the characters 1 and chi = (1, -1): no coordinate
    of either grouplike is rational or a root of unity, so the pivot search
    splits no eigenvalue polynomial and cannot decide."""
    H = _make_builtin("dualgroup:Z2", _parse_field("Cyc:3"))
    f, n = H.field, H.dim
    one, chi, two = H.unit_vector(), H.element([1, -1]), f.from_int(2)
    new = [[f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(one, chi)]
           for a, b in ((two, f.zeta), (f.zeta, two))]
    back = Matrix.from_columns(f, new).inverse()  # old coordinates to new ones
    mult = [(i, j, k, c) for i in range(n) for j in range(n)
            for k, c in enumerate(back.apply(H.multiply(new[i], new[j])))]
    comult = []
    for k in range(n):
        for (p, q), c in H.coproduct(new[k]).items():
            comult += [(k, a, b, f.mul(c, f.mul(x, y)))
                       for a, x in enumerate(back.col_list(p)) if x != f.zero
                       for b, y in enumerate(back.col_list(q)) if y != f.zero]
    antipode = [(i, j, c) for j in range(n)
                for i, c in enumerate(back.apply(H.antipode_apply(new[j])))]
    R = hopf_make(f, H.basis_names, mult, back.apply(H.unit_vector()), comult,
                  [H.counit_apply(v) for v in new], antipode, name="dz2-rot")
    path = tmp_path_factory.mktemp("rot") / "dz2-rot.json"
    save_algebra(R, str(path))
    return str(path)


@pytest.mark.parametrize("args", [
    ["chromatic", "--side", "spherical"],
    ["check", "--side", "spherical"],
    ["check", "--expr", "cSph"],
])
def test_spherical_requests_share_one_pivot_policy(capsys, undecided_file, args):
    # an inconclusive pivot search is an input error with the search's message
    code, _, err = run(capsys, args[0], undecided_file, *args[1:])
    assert code == 2 and "pivot search inconclusive for dz2-rot" in err
    # a decidedly non-spherical algebra is a verification failure
    code, _, err = run(capsys, *args, "--builtin", "taft:3", "--field", "GF:7")
    assert code == 1 and "taft:3 is not spherical" in err


def test_check_all_skips_an_undecided_spherical_row(capsys, undecided_file):
    code, out, _ = run(capsys, "check", undecided_file, "--modules", "trivial",
                       "--no-split")
    assert code == 0 and out.startswith("spherical row skipped: pivot search inconclusive")
    assert "side=spherical" not in out and "all identities hold (2 checks)" in out
    code, out, _ = run(capsys, "check", undecided_file, "--modules", "trivial",
                       "--no-split", "--json")
    payload = json.loads(out)
    assert code == 0 and len(payload["grid"]) == 2
    assert [s.split(":")[0] for s in payload["skipped"]] == ["spherical row skipped"]
    assert "pivot search inconclusive for dz2-rot" in payload["skipped"][0]


def test_check_modules_accept_expression_names(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "group:Z2", "--side", "left",
                       "--modules", "H,triv", "--no-split", "--json")
    assert code == 0
    assert [g["X"] for g in json.loads(out)["grid"]] == ["H", "triv"]
    code, _, err = run(capsys, "check", "--builtin", "group:Z2", "--modules", "bogus")
    assert code == 2 and "unknown module 'bogus'" in err


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

    # a chromatic primitive is based at H and takes no module
    code, out, err = run(capsys, "check", "--builtin", "group:Z2", "--expr", "cL(triv,alpha)")
    assert code == 2 and "cL takes no module" in err and out == ""


README_LEFT_IDENTITY = ("id(triv)*ev(H)*id(H) ; lamL(triv,ld(H))*id(H,H) ; "
                        "id(triv,ld(H))*cL ; id(triv)*coev(ld(H))*id(H)")


@pytest.mark.parametrize("extra,option", [
    (["--inject-fault", "0,0"], "--inject-fault"),
    (["--no-split"], "--no-split"),
    (["--side", "left"], "--side"),
    (["--side", "all"], "--side"),
    (["--modules", "trivial"], "--modules"),
])
def test_check_expr_refuses_grid_options(capsys, extra, option):
    # --expr replaces the grid; a grid option beside it would be silently dropped,
    # and with it the negative control of --inject-fault
    code, out, err = run(capsys, "check", "--builtin", "group:Z2", "--expr",
                         README_LEFT_IDENTITY, "--equals", "id(triv,H)", *extra)
    assert code == 2 and f"input error: {option} applies to the grid" in err
    assert out == ""


def test_check_equals_needs_expr(capsys):
    code, out, err = run(capsys, "check", "--builtin", "group:Z2", "--equals", "id(triv,H)")
    assert code == 2 and "--equals needs --expr" in err and out == ""


@pytest.mark.parametrize("module,argv,message", [
    ("hopfchrom.chromatic", ["chromatic", "--builtin", "group:Z2", "--side", "left"],
     "left chromatic map failed the intertwiner check"),
])
def test_failed_intertwiner_check_is_a_verification_failure(capsys, monkeypatch,
                                                            module, argv, message):
    monkeypatch.setattr(f"{module}.is_h_linear", lambda mor: False)
    code, out, err = run(capsys, *argv)
    assert code == 1 and f"verification failure: {message}" in err
    assert "Traceback" not in out + err


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


def test_integrals_lists_the_pivots_an_undecided_search_found(capsys, undecided_file,
                                                             monkeypatch):
    code, out, _ = run(capsys, "integrals", undecided_file, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["pivot_candidates"] == [] and not payload["spherical"]
    assert payload["pivot_search"].startswith("pivot search inconclusive for dz2-rot")
    assert "Q(zeta_3)" in payload["pivot_search"]
    from hopfchrom import PivotData, PivotSearchInconclusive, cli

    def undecided(H):
        raise PivotSearchInconclusive("undecided", [PivotData(g=H.basis_vector(1))])

    monkeypatch.setattr(cli, "pivot_candidates", undecided)
    code, out, _ = run(capsys, "integrals", "--builtin", "group:Z2", "--json")
    payload = json.loads(out)
    assert payload["pivot_search"] == "undecided" and payload["spherical"] is True
    assert payload["pivot_candidates"] == [["0", "1"]] == [payload["chosen_pivot"]]
    code, out, _ = run(capsys, "integrals", "--builtin", "group:Z2")
    assert "pivot search          : undecided" in out
    assert "pivot candidates      : [['0', '1']]" in out


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

    calls = {"hopf_make": 0, "_check_integral_invariants": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((hopf_module, "hopf_make"),
                        (integrals_module, "_check_integral_invariants")):
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
    assert calls == {"hopf_make": 1, "_check_integral_invariants": 1}
    calls.update(hopf_make=0, _check_integral_invariants=0)
    code, _, _ = run(capsys, "integrals", "--builtin", "taft:3", "--field", "GF:7")
    assert code == 0
    assert calls == {"hopf_make": 1, "_check_integral_invariants": 1}


def test_check_inverts_the_antipode_once(capsys, monkeypatch):
    # the axiom suite's bijectivity check hands S^-1 to the HopfAlgebra
    from hopfchrom.linalg import Matrix

    shapes = []
    inverse = Matrix.inverse

    def counted(self):
        shapes.append(self.shape)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    code, out, _ = run(capsys, "check", "--builtin", "taft:5", "--field", "GF:11")
    assert code == 0 and "all identities hold" in out
    assert shapes == [(25, 25)]


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_child(*argv):
    """The CLI, or the Python snippet after a leading ``"-c"``, in a child
    process limited to 1 GB of address space and 20 s,
    so an input that allocates before it is checked fails fast instead of
    taking the host's memory; returns (exit code, stderr)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    args = list(argv) if argv[0] == "-c" else ["-m", "hopfchrom.cli", *argv]
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=20, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stderr


def test_large_prime_field_needs_no_scan_of_gf_p():
    # the root of order 2 is p - 1, the last residue a scan of GF(p) reaches
    code, err = run_child("verify", "--builtin", "taft:2", "--field", "GF:1000000007")
    assert code == 0, err


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
    cyc = tmp_path / "cyc20000.json"
    cyc.write_text(json.dumps({**json.loads(path.read_text()),
                               "field": {"kind": "cyclotomic", "n": 20000}}))
    for argv in (["verify", str(path)],
                 ["verify", "--builtin", "group:Z100000"],
                 ["verify", "--builtin", "group:Z2", "--field", "Cyc:20000"],
                 ["verify", str(cyc)],
                 ["check", "--builtin", "group:Z2", "--expr", "*".join(["id(H)"] * 40)],
                 # a source of dimension 1 whose words grow to 4^22
                 ["check", "--builtin", "group:Z2", "--expr", "*".join(["coev(H)"] * 22)]):
        code, err = run_child(*argv)
        assert code == 2 and "bound of" in err and "Traceback" not in err, (argv, err)


def test_oversized_module_dim_is_refused_before_allocating():
    code, err = run_child("-c", """if True:
        import sys
        from hopfchrom import FileFormatError, FieldSpec, field_make, sweedler_h4
        from hopfchrom.fileformat import module_from_dict
        H = sweedler_h4(field_make(FieldSpec("rationals")))
        try:
            module_from_dict({"algebra": None, "dim": 10 ** 8,
                              "action": [[0, 0, 0, "1"]]}, H)
        except FileFormatError as exc:
            sys.exit(f"input error: {exc}")
        """)
    assert code == 1 and "bound of 4096" in err and "Traceback" not in err, err
