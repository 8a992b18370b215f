import json
from dataclasses import replace

import pytest
from helpers import cop_transported_right_map, kron_evaluate, left_map_by_direct_expansion

import hopfchrom.chromatic as chromatic_mod
from hopfchrom import (
    ChromaticMap,
    Matrix,
    Morphism,
    MorphismTypeError,
    NotSphericalError,
    PivotData,
    RetractFamily,
    alpha_module,
    chromatic_left_hopf,
    chromatic_retract,
    chromatic_right_hopf,
    chromatic_spherical,
    is_h_linear,
    lambda_transform,
    module_make,
    pivot_candidates,
    regular_module,
    split_idempotent,
    trivial_module,
    verify_chromatic_identity,
)
from hopfchrom.algebras import find_nontrivial_idempotent
from hopfchrom.cli import _make_builtin, _parse_field, main
from hopfchrom.hopf import pairing


def right_mult_idempotent(H):
    a = find_nontrivial_idempotent(H)
    assert a is not None
    G = regular_module(H)
    return Morphism((G,), (G,), H.element_right_mult(a))


def test_left_map_z2_is_delta(z2):
    c = chromatic_left_hopf(z2)
    f = z2.field
    n = 2
    # c(e_a ox b) = delta_{a,b} (1 ox b ox b)
    for a in range(n):
        for b in range(n):
            col = a * n + b
            for h1 in range(n):
                for h2 in range(n):
                    want = f.one if (a == b and h1 == b and h2 == b) else f.zero
                    assert c.matrix.entry(h1 * n + h2, col) == want


def test_left_map_h4_matches_direct_expansion(h4, corpus_data):
    _, d = corpus_data["sweedler"]
    assert chromatic_left_hopf(h4).matrix == left_map_by_direct_expansion(h4, d)


def test_left_map_taft_matches_direct_expansion_and_is_linear(t3, corpus_data):
    _, d = corpus_data["taft:3"]
    c = chromatic_left_hopf(t3)
    assert c.matrix == left_map_by_direct_expansion(t3, d)
    assert is_h_linear(c)


def test_right_map_z2_is_delta(z2):
    c = chromatic_right_hopf(z2)
    f = z2.field
    n = 2
    # c(b ox e_a) = delta_{a,b} (b ox b ox 1)
    for b in range(n):
        for a in range(n):
            col = b * n + a
            for h1 in range(n):
                for h2 in range(n):
                    want = f.one if (a == b and h1 == b and h2 == b) else f.zero
                    assert c.matrix.entry(h1 * n + h2, col) == want


def test_right_map_agrees_with_printed_formula(corpus_data):
    for name, (H, d) in corpus_data.items():
        assert chromatic_right_hopf(H).matrix == cop_transported_right_map(H), name


@pytest.mark.parametrize("name,spec", [("taft:4", "Cyc:8"), ("taft:5", "GF:11")])
def test_right_map_matches_cop_transport_beyond_corpus(name, spec):
    H = _make_builtin(name, _parse_field(spec))
    assert chromatic_right_hopf(H).matrix == cop_transported_right_map(H)


def test_right_map_h_linear_h4(h4):
    assert is_h_linear(chromatic_right_hopf(h4))


def test_spherical_maps_are_delta_for_group_algebras(corpus_data):
    for name in ("group:Z2", "group:Z3"):
        H, d = corpus_data[name]
        pivot = pivot_candidates(H)[0]
        c = chromatic_spherical(H, pivot)
        n = H.dim
        f = H.field
        for a in range(n):
            for b in range(n):
                for h1 in range(n):
                    for h2 in range(n):
                        want = f.one if (a == b and h1 == b and h2 == b) else f.zero
                        assert c.matrix.entry(h1 * n + h2, a * n + b) == want


def test_spherical_rejects_sweedler(h4):
    from hopfchrom import PivotData
    with pytest.raises(NotSphericalError):
        chromatic_spherical(h4, PivotData(h4.unit_vector()))


def test_split_idempotent_identity_and_zero(z2):
    G = regular_module(z2)
    f = z2.field
    e_id = Morphism((G,), (G,), Matrix.identity(f, 2))
    fam = split_idempotent(e_id)
    assert fam.P.dim == 2 and len(fam.maps) == 1
    e_zero = Morphism((G,), (G,), Matrix.zeros(f, 2, 2))
    fam0 = split_idempotent(e_zero)
    assert fam0.P.dim == 0 and fam0.maps == ()


def test_split_idempotent_z2_projector(z2):
    fam = split_idempotent(right_mult_idempotent(z2))  # right mult by (e+g)/2
    assert fam.P.dim == 1
    fam.validate()


def test_split_idempotent_rejects_non_idempotent(z2):
    G = regular_module(z2)
    two = Matrix.identity(z2.field, 2).scale(2)
    with pytest.raises(Exception):
        split_idempotent(Morphism((G,), (G,), two))


def test_retract_identity_family_returns_map_unchanged(h4):
    G = regular_module(h4)
    fam = RetractFamily.make(
        G, [(Morphism((G,), (G,), Matrix.identity(h4.field, 4)),
             Morphism((G,), (G,), Matrix.identity(h4.field, 4)))])
    for side, base in (("left", chromatic_left_hopf(h4)),
                       ("right", chromatic_right_hopf(h4))):
        ext = chromatic_retract(base, fam)
        assert ext.matrix == base.matrix


def test_retract_rejects_module_only_labelled_regular(h4):
    # four copies of triv, labelled "H": a module, but not the regular one
    f = h4.field
    ident = Matrix.identity(f, 4)
    fake = module_make(h4, [ident.scale(e) for e in h4.counit], "H")
    G = regular_module(h4)
    assert not fake.same_as(G) and not G.same_as(fake)
    assert regular_module(h4).same_as(G)
    assert module_make(h4, [m.transpose().transpose() for m in G.action], "H").same_as(G)
    maps = [(Morphism((fake,), (fake,), ident), Morphism((fake,), (fake,), ident))]
    with pytest.raises(MorphismTypeError):
        RetractFamily.make(fake, maps)
    fam = RetractFamily(fake, tuple(maps))
    for side, base in (("left", chromatic_left_hopf(h4)),
                       ("right", chromatic_right_hopf(h4))):
        with pytest.raises(MorphismTypeError, match="cannot compose"):
            chromatic_retract(base, fam)


def _double_regular(H):
    f = H.field
    n = H.dim
    action = []
    for i in range(H.dim):
        rho = H.left_mult_matrix(i)
        entries = {}
        for r, c, v in rho.nonzero_items():
            entries[(r, c)] = v
            entries[(r + n, c + n)] = v
        action.append(Matrix.from_entries(f, 2 * n, 2 * n, entries))
    return module_make(H, action, "H+H")


def test_retract_block_diagonal_on_double_regular(h4):
    f = h4.field
    n = 4
    G = regular_module(h4)
    Q = _double_regular(h4)
    proj = [Morphism((Q,), (G,), Matrix.from_entries(
        f, n, 2 * n, {(r, r + blk * n): f.one for r in range(n)}))
        for blk in range(2)]
    incl = [Morphism((G,), (Q,), Matrix.from_entries(
        f, 2 * n, n, {(r + blk * n, r): f.one for r in range(n)}))
        for blk in range(2)]
    fam = RetractFamily.make(Q, list(zip(proj, incl)))
    c = chromatic_left_hopf(h4)
    ext = chromatic_retract(c, fam)
    # block-diagonal in the P slot: rows (a,h,(s,p)), cols (x,(t,y))
    for (row, col, v) in ext.matrix.nonzero_items():
        ah, sp = divmod(row, 2 * n)
        s, p = divmod(sp, n)
        x, ty = divmod(col, 2 * n)
        t, y = divmod(ty, n)
        assert s == t
        assert v == c.matrix.entry(ah * n + p, x * n + y)
    # and the extended map still satisfies the identity
    rep = verify_chromatic_identity(ext, trivial_module(h4))
    assert rep.equal


def test_verify_identity_full_grid_small(corpus_data):
    for name in ("group:Z2", "sweedler"):
        H, d = corpus_data[name]
        G = regular_module(H)
        cl = chromatic_left_hopf(H)
        cr = chromatic_right_hopf(H)
        fam = split_idempotent(right_mult_idempotent(H))
        clp = chromatic_retract(cl, fam)
        crp = chromatic_retract(cr, fam)
        for X in (trivial_module(H), regular_module(H), alpha_module(H)):
            for c, P, side in ((cl, G, "left"), (cr, G, "right"),
                               (clp, fam.P, "left"), (crp, fam.P, "right")):
                rep = verify_chromatic_identity(c, X)
                assert rep.equal, (name, side, P.label, X.label)


def test_verify_identity_negative_control(z2):
    G = regular_module(z2)
    c = chromatic_left_hopf(z2)
    bumped = c.matrix + Matrix.from_entries(z2.field, 4, 4, {(0, 0): z2.field.one})
    bad = replace(c, matrix=bumped)
    rep = verify_chromatic_identity(bad, trivial_module(z2))
    assert not rep.equal
    assert rep.mismatch is not None and "row" in rep.mismatch


def test_verify_identity_type_mismatch(z2):
    c = replace(chromatic_right_hopf(z2), side="left")
    with pytest.raises(MorphismTypeError):
        verify_chromatic_identity(c, trivial_module(z2))


def test_spherical_identity_with_nonunit_pivot(z2):
    # both Z/2 pivots are valid; the non-unit one exercises the g-twists
    pivots = pivot_candidates(z2)
    assert len(pivots) == 2
    G = regular_module(z2)
    for p in pivots:
        c = chromatic_spherical(z2, p)
        for X in (trivial_module(z2), regular_module(z2)):
            rep = verify_chromatic_identity(c, X)
            assert rep.equal, z2.format_vector(p.g)


def test_spherical_rows_hold_for_every_corpus_pivot_given_g_alone(corpus):
    # a pivot is its grouplike g; the pivotal coevaluation takes g^-1 = S(g)
    from hopfchrom import PivotData, is_unimodular

    checked = 0
    for H in corpus:
        if not is_unimodular(H):
            continue
        G = regular_module(H)
        for p in pivot_candidates(H):
            pivot = PivotData(p.g)
            c = chromatic_spherical(H, pivot)
            for X in (trivial_module(H), regular_module(H)):
                rep = verify_chromatic_identity(c, X)
                assert rep.equal, (H.name, H.format_vector(p.g), X.label)
                checked += 1
    assert checked == 12  # six pivots of four unimodular algebras, two X each


def test_lambda_left_equals_right_on_projectives_unimodular(corpus_data):
    # on projectives of a unimodular pivotal algebra the two transformations agree
    for name in ("group:Z2", "group:Z3", "group:S3", "dualgroup:Z2"):
        H, d = corpus_data[name]
        G = regular_module(H)
        fam = split_idempotent(right_mult_idempotent(H))
        for P in (G, fam.P):
            ll = lambda_transform(H, (P,), "left")
            rr = lambda_transform(H, (P,), "right")
            assert ll.matrix == rr.matrix, (name, P.label)


def test_right_verification_matches_left_in_cop(corpus_data):
    for name, (H, d) in corpus_data.items():
        Hc = H.cop()
        cr = chromatic_right_hopf(H)
        cl_cop = chromatic_left_hopf(Hc)
        G, Gc = regular_module(H), regular_module(Hc)
        for Xmk, Xmk_c in ((trivial_module, trivial_module),
                           (regular_module, regular_module)):
            r1 = verify_chromatic_identity(cr, Xmk(H))
            r2 = verify_chromatic_identity(cl_cop, Xmk_c(Hc))
            assert r1.equal and r2.equal and r1.equal == r2.equal, name


def test_full_pipeline_over_cyclotomic_field():
    from hopfchrom import FieldSpec, field_make, taft

    C3 = field_make(FieldSpec("cyclotomic", n=3))
    H = taft(3, C3)
    assert chromatic_right_hopf(H).matrix == cop_transported_right_map(H)
    G = regular_module(H)
    cl = chromatic_left_hopf(H)
    cr = chromatic_right_hopf(H)
    for X in (trivial_module(H), alpha_module(H), regular_module(H)):
        assert verify_chromatic_identity(cl, X).equal
        assert verify_chromatic_identity(cr, X).equal


def test_larger_taft_instances_out_of_corpus():
    from hopfchrom import FieldSpec, field_make, taft

    # dim 16 over Q(i): exact cyclotomic arithmetic through the whole pipeline
    C4 = field_make(FieldSpec("cyclotomic", n=4))
    H = taft(4, C4)
    G = regular_module(H)
    cl = chromatic_left_hopf(H)
    for X in (trivial_module(H), alpha_module(H)):
        assert verify_chromatic_identity(cl, X).equal

    # dim 25 over GF(11), X = regular: 25^4-dimensional intermediate words
    F11 = field_make(FieldSpec("prime-field", p=11))
    H = taft(5, F11)
    G = regular_module(H)
    cr = chromatic_right_hopf(H)
    rep = verify_chromatic_identity(cr, regular_module(H))
    assert rep.equal


@pytest.mark.parametrize("argv, sides", [
    (["--builtin", "sweedler", "--inject-fault", "0,15"], {"left", "right"}),
    (["--builtin", "taft:3", "--field", "GF:7"], {"left", "right"}),
    (["--builtin", "group:S3"], {"left", "right", "spherical"}),
])
def test_check_composites_match_kronecker_reference(argv, sides, capsys, monkeypatch):
    """Every composite that ``check`` evaluates, in the grid and in the
    retracts, equals the Kronecker-product reference exactly, and so does
    every block of generator columns that decides an X = H row."""
    evaluate, evaluate_rows = chromatic_mod.evaluate, chromatic_mod.evaluate_rows
    seen = []

    def compared(expr):
        got, want = evaluate(expr), kron_evaluate(expr)
        assert got.source == want.source and got.target == want.target
        assert got.matrix == want.matrix
        seen.append(expr)
        return got

    def compared_rows(expr, vectors):
        got = evaluate_rows(expr, vectors)
        assert got == (kron_evaluate(expr).matrix @ vectors.transpose()).transpose()
        seen.append(expr)
        return got

    monkeypatch.setattr(chromatic_mod, "evaluate", compared)
    monkeypatch.setattr(chromatic_mod, "evaluate_rows", compared_rows)
    main(["check", *argv, "--json"])
    grid = json.loads(capsys.readouterr().out)["grid"]
    assert {row["side"] for row in grid} == sides
    assert {row["P"] for row in grid} == {"H", "split(H)"}
    assert {row["X"] for row in grid} == {"triv", "H", "alpha"}
    assert len(seen) > len(grid)  # the grid rows plus the retract terms


def test_evaluate_builds_no_kronecker_product(t3, monkeypatch):
    G = regular_module(t3)
    fam = split_idempotent(right_mult_idempotent(t3))
    maps = {"left": chromatic_left_hopf(t3), "right": chromatic_right_hopf(t3)}
    kron = Matrix.kron
    inside = []
    calls = {"inside": 0, "outside": 0, "evaluate": 0}

    def tracked(evaluator):
        def run(*args):
            calls["evaluate"] += 1
            inside.append(True)
            try:
                return evaluator(*args)
            finally:
                inside.pop()
        return run

    def tracked_kron(self, other):
        calls["inside" if inside else "outside"] += 1
        return kron(self, other)

    # the full composite and the generator columns at X = H alike
    for name in ("evaluate", "evaluate_rows"):
        monkeypatch.setattr(chromatic_mod, name, tracked(getattr(chromatic_mod, name)))
    monkeypatch.setattr(Matrix, "kron", tracked_kron)
    for side, c in maps.items():
        for c_P in (c, chromatic_retract(c, fam)):
            assert verify_chromatic_identity(c_P, G).equal
    assert calls["evaluate"] > 4 and calls["outside"] == 0
    G.action[0].kron(G.action[0])  # the tracker is installed
    assert calls["outside"] == 1
    assert calls["inside"] == 0


def test_chromatic_api_takes_only_the_map():
    import inspect

    for fn, params in ((verify_chromatic_identity, ["c", "X"]),
                       (chromatic_retract, ["c", "fam"]),
                       (split_idempotent, ["e"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


@pytest.mark.parametrize("argv, checks", [
    # two constructors, the idempotent, the family's two maps and two retracts
    (["--builtin", "taft:5", "--field", "GF:11"], 7),
    # no X = H row, so the retracts never decide theirs
    (["--builtin", "taft:4", "--field", "Cyc:8", "--modules", "trivial,alpha"], 5),
    # the grid's X modules run no intertwiner check, so one X gives the same count
    (["--builtin", "uqsl2:3", "--field", "GF:7", "--modules", "trivial"], 6),
    # each faulted base map decides its own, once, in check's fault note
    (["--builtin", "sweedler", "--inject-fault", "0,15"], 9),
    # k[Z1] is the ground field, so its faulted 1 x 1 maps stay H-linear
    (["--builtin", "group:Z1", "--inject-fault", "0,0"], 6),
])
def test_check_runs_each_intertwiner_check_once(argv, checks, capsys, monkeypatch):
    """Each ``ChromaticMap`` decides its H-linearity once, on first use: a
    constructor's map in the constructor, a faulted map in ``check``'s fault
    note, a retract at its first X = H row.  The idempotent and the retract
    family are checked once each, and no other map is."""
    import sys

    import hopfchrom.hmod as hmod_module

    calls = []
    orig = hmod_module.is_h_linear

    def counted(mor):
        calls.append(mor)
        return orig(mor)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("hopfchrom") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    main(["check", *argv])
    capsys.readouterr()
    assert len(calls) == checks


def test_retracted_spherical_map_keeps_side_and_pivot(z2):
    c = chromatic_spherical(z2, pivot_candidates(z2)[1])
    ext = chromatic_retract(c, split_idempotent(right_mult_idempotent(z2)))
    assert isinstance(ext, ChromaticMap)
    assert ext.side == "spherical" and ext.pivot is c.pivot
    for X in (trivial_module(z2), regular_module(z2)):
        rep = verify_chromatic_identity(ext, X).as_dict()
        assert rep["P"] == "split(H)" and rep["side"] == "spherical" and rep["equal"]


def test_chromatic_map_rejects_bad_side_or_pivot(z2, z3):
    c = chromatic_left_hopf(z2)
    pivot = pivot_candidates(z2)[0]
    with pytest.raises(ValueError, match="side must be"):
        replace(c, side="middle")
    with pytest.raises(ValueError, match="spherical chromatic map needs a pivot"):
        replace(chromatic_spherical(z2, pivot), pivot=None)
    with pytest.raises(ValueError, match="left chromatic map takes no pivot"):
        replace(c, pivot=pivot)
    # g of Z/3 is grouplike and conjugates S^2 = id, but g^2 != a = 1
    with pytest.raises(NotSphericalError, match="not a pivot of group:Z3: fails unibalanced$"):
        replace(chromatic_spherical(z3, pivot_candidates(z3)[0]),
                pivot=PivotData(z3.basis_vector(1)))


@pytest.mark.parametrize("argv, kron_reference", [
    (["--builtin", "taft:3", "--field", "GF:7"], True),
    (["--builtin", "group:S3"], True),
    # a Kronecker reference at 27^4 would hold about 12 million entries, so the
    # block is compared with the columns of the full evaluation instead
    (["--builtin", "uqsl2:3", "--field", "GF:7"], False),
])
def test_generator_columns_decide_each_regular_row_as_all_columns_do(
        argv, kron_reference, capsys, monkeypatch):
    """Every X = H row of ``check`` is decided on dim P generator columns, which
    give the same verdict as every column and the same block as the
    composite's own columns there."""
    evaluate, evaluate_rows = chromatic_mod.evaluate, chromatic_mod.evaluate_rows
    decided = []

    def compared_rows(expr, vectors):
        got = evaluate_rows(expr, vectors)
        full = (kron_evaluate(expr) if kron_reference else evaluate(expr)).matrix
        assert got == (full @ vectors.transpose()).transpose()
        assert (got == vectors) == (full == Matrix.identity(full.field, full.ncols))
        decided.append(vectors.nrows)
        return got

    monkeypatch.setattr(chromatic_mod, "evaluate_rows", compared_rows)
    assert main(["check", *argv, "--json"]) == 0
    rows = [r for r in json.loads(capsys.readouterr().out)["grid"] if r["X"] == "H"]
    assert decided == [r["columns"] for r in rows]
    n = max(decided)  # dim H, the columns of the P = H rows
    for r in rows:
        assert r["equal"] and r["identity_dim"] == n * r["columns"]


def test_regular_rows_check_only_their_chromatic_map(t3, z2, monkeypatch):
    """An X = H row reads its chromatic map's ``h_linear`` and checks no other
    factor of its composite: those are structure morphisms, H-linear by
    identities checked once per algebra.  A constructor's map was decided in
    the constructor, so verifying it checks nothing; a retract decides its own
    at its first X = H row, and not again.  A row at any other X checks
    nothing."""
    built = [chromatic_left_hopf(t3), chromatic_right_hopf(t3),
             chromatic_spherical(z2, pivot_candidates(z2)[1])]
    retract = chromatic_retract(built[0], split_idempotent(right_mult_idempotent(t3)))
    checked = []
    orig = chromatic_mod.is_h_linear
    monkeypatch.setattr(chromatic_mod, "is_h_linear",
                        lambda mor: checked.append(mor) or orig(mor))
    for c in built + [retract]:
        per_row = []
        for X in (trivial_module(c.H), regular_module(c.H), regular_module(c.H)):
            checked.clear()
            assert verify_chromatic_identity(c, X).equal
            per_row.append([m is c for m in checked])
        assert per_row == ([[], [True], []] if c is retract else [[], [], []])


def test_bumped_map_fails_h_linearity_and_is_decided_on_every_column(t3, monkeypatch):
    G = regular_module(t3)
    c = chromatic_left_hopf(t3)
    assert verify_chromatic_identity(c, G).columns == 9
    bumped = replace(c, matrix=c.matrix + Matrix.from_entries(
        t3.field, 81, 81, {(0, 40): t3.field.one}))
    assert not is_h_linear(bumped)
    assert c.h_linear and not bumped.h_linear
    reduced = []
    monkeypatch.setattr(chromatic_mod, "evaluate_rows",
                        lambda expr, vectors: reduced.append(expr))
    rep = verify_chromatic_identity(bumped, G)
    assert reduced == []
    assert rep.columns == rep.identity_dim == 81
    assert not rep.equal and rep.mismatch is not None


def test_h_linear_map_with_a_wrong_composite_falls_back_to_every_column(t3, monkeypatch):
    """2c is H-linear, but its composite is 2 id.  Its kept ``h_linear`` sends
    the X = H row to the generator columns, which find the mismatch, and the
    fallback to every column reports the mismatch of the full composite."""
    f, G = t3.field, regular_module(t3)
    c = chromatic_left_hopf(t3)
    c2 = replace(c, matrix=c.matrix.scale(2))
    checked, tried, full = [], [], []
    orig = chromatic_mod.is_h_linear
    monkeypatch.setattr(chromatic_mod, "is_h_linear",
                        lambda mor: checked.append(mor) or orig(mor))
    assert c2.h_linear and len(checked) == 1
    evaluate, evaluate_rows = chromatic_mod.evaluate, chromatic_mod.evaluate_rows

    def rows_tried(expr, vectors):
        got = evaluate_rows(expr, vectors)
        tried.append((vectors.nrows, got == vectors))
        return got

    def evaluated(expr):
        full.append(expr)
        return evaluate(expr)

    monkeypatch.setattr(chromatic_mod, "evaluate_rows", rows_tried)
    monkeypatch.setattr(chromatic_mod, "evaluate", evaluated)
    rep = verify_chromatic_identity(c2, G)
    assert len(checked) == 1
    assert tried == [(9, False)] and len(full) == 1
    assert rep.columns == rep.identity_dim == 81 and not rep.equal
    ref = kron_evaluate(full[0]).matrix
    assert ref == Matrix.identity(f, 81).scale(2)
    i, j, a, b = ref.first_difference(Matrix.identity(f, 81))
    assert rep.mismatch == {"row": i, "col": j, "got": f.format(a), "expected": f.format(b)}


def test_regular_row_memory_follows_generator_columns():
    """One X = H row of taft:5 over GF(11), whose four-leg words have 25^4
    rows, peaked at 62.7 MB of traced allocations when the composite was
    applied to all 625 columns with one dict per word row, and at 1.3 MB on
    the 25 generator columns with one sparse row per column."""
    import tracemalloc

    H = _make_builtin("taft:5", _parse_field("GF:11"))
    c, G = chromatic_right_hopf(H), regular_module(H)
    verify_chromatic_identity(c, G)  # the duals, generators and Lambda once
    tracemalloc.start()
    try:
        rep = verify_chromatic_identity(c, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.equal and rep.columns == 25
    assert peak < 8 * 2 ** 20
