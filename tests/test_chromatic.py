import json

import pytest
from helpers import cop_transported_right_map, kron_evaluate, left_map_by_direct_expansion

import hopfchrom.chromatic as chromatic_mod
from hopfchrom import (
    Matrix,
    Morphism,
    MorphismTypeError,
    NotSphericalError,
    RetractFamily,
    alpha_module,
    chromatic_left_hopf,
    chromatic_retract,
    chromatic_right_hopf,
    chromatic_spherical,
    is_h_linear,
    lambda_transform,
    module_make,
    normalized_pair,
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


def test_left_map_z2_is_delta(z2, corpus_data):
    _, d = corpus_data["group:Z2"]
    c = chromatic_left_hopf(z2, d)
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
    assert chromatic_left_hopf(h4, d).matrix == left_map_by_direct_expansion(h4, d)


def test_left_map_taft_matches_direct_expansion_and_is_linear(t3, corpus_data):
    _, d = corpus_data["taft:3"]
    c = chromatic_left_hopf(t3, d)
    assert c.matrix == left_map_by_direct_expansion(t3, d)
    assert is_h_linear(c)


def test_right_map_z2_is_delta(z2, corpus_data):
    _, d = corpus_data["group:Z2"]
    c = chromatic_right_hopf(z2, d)
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
        assert chromatic_right_hopf(H, d).matrix == cop_transported_right_map(H), name


@pytest.mark.parametrize("name,spec", [("taft:4", "Cyc:8"), ("taft:5", "GF:11")])
def test_right_map_matches_cop_transport_beyond_corpus(name, spec):
    H = _make_builtin(name, _parse_field(spec))
    d = normalized_pair(H)
    assert chromatic_right_hopf(H, d, check=False).matrix == cop_transported_right_map(H)


def test_right_map_h_linear_h4(h4, corpus_data):
    _, d = corpus_data["sweedler"]
    assert is_h_linear(chromatic_right_hopf(h4, d))


def test_spherical_maps_are_delta_for_group_algebras(corpus_data):
    for name in ("group:Z2", "group:Z3"):
        H, d = corpus_data[name]
        pivot = pivot_candidates(H, d)[0]
        c = chromatic_spherical(H, d, pivot)
        n = H.dim
        f = H.field
        for a in range(n):
            for b in range(n):
                for h1 in range(n):
                    for h2 in range(n):
                        want = f.one if (a == b and h1 == b and h2 == b) else f.zero
                        assert c.matrix.entry(h1 * n + h2, a * n + b) == want


def test_spherical_rejects_sweedler(h4, corpus_data):
    _, d = corpus_data["sweedler"]
    from hopfchrom import PivotData
    with pytest.raises(NotSphericalError):
        chromatic_spherical(h4, d, PivotData(h4.unit_vector(), h4.unit_vector()))


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


def test_retract_identity_family_returns_map_unchanged(h4, corpus_data):
    _, d = corpus_data["sweedler"]
    G = regular_module(h4)
    fam = RetractFamily.make(
        G, [(Morphism((G,), (G,), Matrix.identity(h4.field, 4)),
             Morphism((G,), (G,), Matrix.identity(h4.field, 4)))])
    for side, base in (("left", chromatic_left_hopf(h4, d)),
                       ("right", chromatic_right_hopf(h4, d))):
        ext = chromatic_retract(h4, base, fam, side)
        assert ext.matrix == base.matrix


def test_retract_rejects_module_only_labelled_regular(h4, corpus_data):
    # four copies of triv, labelled "H": a module, but not the regular one
    _, d = corpus_data["sweedler"]
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
    fam = RetractFamily.make(fake, maps, check=False)
    for side, base in (("left", chromatic_left_hopf(h4, d)),
                       ("right", chromatic_right_hopf(h4, d))):
        with pytest.raises(MorphismTypeError, match="cannot compose"):
            chromatic_retract(h4, base, fam, side, check=False)


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


def test_retract_block_diagonal_on_double_regular(h4, corpus_data):
    _, d = corpus_data["sweedler"]
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
    c = chromatic_left_hopf(h4, d)
    ext = chromatic_retract(h4, c, fam, "left")
    # block-diagonal in the P slot: rows (a,h,(s,p)), cols (x,(t,y))
    for (row, col, v) in ext.matrix.nonzero_items():
        ah, sp = divmod(row, 2 * n)
        s, p = divmod(sp, n)
        x, ty = divmod(col, 2 * n)
        t, y = divmod(ty, n)
        assert s == t
        assert v == c.matrix.entry(ah * n + p, x * n + y)
    # and the extended map still satisfies the identity
    rep = verify_chromatic_identity(h4, d, ext, Q, trivial_module(h4), "left")
    assert rep.equal


def test_verify_identity_full_grid_small(corpus_data):
    for name in ("group:Z2", "sweedler"):
        H, d = corpus_data[name]
        G = regular_module(H)
        cl = chromatic_left_hopf(H, d)
        cr = chromatic_right_hopf(H, d)
        fam = split_idempotent(right_mult_idempotent(H))
        clp = chromatic_retract(H, cl, fam, "left")
        crp = chromatic_retract(H, cr, fam, "right")
        for X in (trivial_module(H), regular_module(H), alpha_module(H, d)):
            for c, P, side in ((cl, G, "left"), (cr, G, "right"),
                               (clp, fam.P, "left"), (crp, fam.P, "right")):
                rep = verify_chromatic_identity(H, d, c, P, X, side)
                assert rep.equal, (name, side, P.label, X.label)


def test_verify_identity_negative_control(z2, corpus_data):
    _, d = corpus_data["group:Z2"]
    G = regular_module(z2)
    c = chromatic_left_hopf(z2, d)
    bumped = c.matrix + Matrix.from_entries(z2.field, 4, 4, {(0, 0): z2.field.one})
    bad = Morphism(c.source, c.target, bumped)
    rep = verify_chromatic_identity(z2, d, bad, G, trivial_module(z2), "left")
    assert not rep.equal
    assert rep.mismatch is not None and "row" in rep.mismatch


def test_verify_identity_type_mismatch(z2, corpus_data):
    _, d = corpus_data["group:Z2"]
    G = regular_module(z2)
    c = chromatic_right_hopf(z2, d)
    with pytest.raises(MorphismTypeError):
        verify_chromatic_identity(z2, d, c, G, trivial_module(z2), "left")


def test_spherical_identity_with_nonunit_pivot(z2, corpus_data):
    # both Z/2 pivots are valid; the non-unit one exercises the g-twists
    _, d = corpus_data["group:Z2"]
    pivots = pivot_candidates(z2, d)
    assert len(pivots) == 2
    G = regular_module(z2)
    for p in pivots:
        c = chromatic_spherical(z2, d, p)
        for X in (trivial_module(z2), regular_module(z2)):
            rep = verify_chromatic_identity(z2, d, c, G, X, "spherical", pivot=p)
            assert rep.equal, z2.format_vector(p.g)


def test_lambda_left_equals_right_on_projectives_unimodular(corpus_data):
    # on projectives of a unimodular pivotal algebra the two transformations agree
    for name in ("group:Z2", "group:Z3", "group:S3", "dualgroup:Z2"):
        H, d = corpus_data[name]
        G = regular_module(H)
        fam = split_idempotent(right_mult_idempotent(H))
        for P in (G, fam.P):
            ll = lambda_transform(H, d, (P,), "left", check=False)
            rr = lambda_transform(H, d, (P,), "right", check=False)
            assert ll.matrix == rr.matrix, (name, P.label)


def test_right_verification_matches_left_in_cop(corpus_data):
    for name, (H, d) in corpus_data.items():
        Hc = H.cop()
        dc = normalized_pair(Hc)
        cr = chromatic_right_hopf(H, d)
        cl_cop = chromatic_left_hopf(Hc, dc)
        G, Gc = regular_module(H), regular_module(Hc)
        for Xmk, Xmk_c in ((trivial_module, trivial_module),
                           (regular_module, regular_module)):
            r1 = verify_chromatic_identity(H, d, cr, G, Xmk(H), "right")
            r2 = verify_chromatic_identity(Hc, dc, cl_cop, Gc, Xmk_c(Hc), "left")
            assert r1.equal and r2.equal and r1.equal == r2.equal, name


def test_full_pipeline_over_cyclotomic_field():
    from hopfchrom import FieldSpec, field_make, taft

    C3 = field_make(FieldSpec("cyclotomic", n=3))
    H = taft(3, C3)
    d = normalized_pair(H)
    assert chromatic_right_hopf(H, d).matrix == cop_transported_right_map(H)
    G = regular_module(H)
    cl = chromatic_left_hopf(H, d)
    cr = chromatic_right_hopf(H, d)
    for X in (trivial_module(H), alpha_module(H, d), regular_module(H)):
        assert verify_chromatic_identity(H, d, cl, G, X, "left").equal
        assert verify_chromatic_identity(H, d, cr, G, X, "right").equal


def test_larger_taft_instances_out_of_corpus():
    from hopfchrom import FieldSpec, field_make, taft

    # dim 16 over Q(i): exact cyclotomic arithmetic through the whole pipeline
    C4 = field_make(FieldSpec("cyclotomic", n=4))
    H = taft(4, C4)
    d = normalized_pair(H)
    G = regular_module(H)
    cl = chromatic_left_hopf(H, d)
    for X in (trivial_module(H), alpha_module(H, d)):
        assert verify_chromatic_identity(H, d, cl, G, X, "left").equal

    # dim 25 over GF(11), X = regular: 25^4-dimensional intermediate words
    F11 = field_make(FieldSpec("prime-field", p=11))
    H = taft(5, F11)
    d = normalized_pair(H)
    G = regular_module(H)
    cr = chromatic_right_hopf(H, d)
    rep = verify_chromatic_identity(H, d, cr, G, regular_module(H), "right")
    assert rep.equal


@pytest.mark.parametrize("argv, sides", [
    (["--builtin", "sweedler", "--inject-fault", "0,15"], {"left", "right"}),
    (["--builtin", "taft:3", "--field", "GF:7"], {"left", "right"}),
    (["--builtin", "group:S3"], {"left", "right", "spherical"}),
])
def test_check_composites_match_kronecker_reference(argv, sides, capsys, monkeypatch):
    """Every composite that ``check`` evaluates, in the grid and in the
    retracts, equals the Kronecker-product reference exactly."""
    evaluate = chromatic_mod.evaluate
    seen = []

    def compared(expr):
        got, want = evaluate(expr), kron_evaluate(expr)
        assert got.source == want.source and got.target == want.target
        assert got.matrix == want.matrix
        seen.append(expr)
        return got

    monkeypatch.setattr(chromatic_mod, "evaluate", compared)
    main(["check", *argv, "--json"])
    grid = json.loads(capsys.readouterr().out)["grid"]
    assert {row["side"] for row in grid} == sides
    assert {row["P"] for row in grid} == {"H", "split(H)"}
    assert {row["X"] for row in grid} == {"triv", "H", "alpha"}
    assert len(seen) > len(grid)  # the grid rows plus the retract terms


def test_evaluate_builds_no_kronecker_product(t3, corpus_data, monkeypatch):
    _, d = corpus_data["taft:3"]
    G = regular_module(t3)
    fam = split_idempotent(right_mult_idempotent(t3))
    maps = {"left": chromatic_left_hopf(t3, d), "right": chromatic_right_hopf(t3, d)}
    evaluate, kron = chromatic_mod.evaluate, Matrix.kron
    inside = []
    calls = {"inside": 0, "outside": 0, "evaluate": 0}

    def tracked_evaluate(expr):
        calls["evaluate"] += 1
        inside.append(True)
        try:
            return evaluate(expr)
        finally:
            inside.pop()

    def tracked_kron(self, other):
        calls["inside" if inside else "outside"] += 1
        return kron(self, other)

    monkeypatch.setattr(chromatic_mod, "evaluate", tracked_evaluate)
    monkeypatch.setattr(Matrix, "kron", tracked_kron)
    for side, c in maps.items():
        for P, c_P in ((G, c), (fam.P, chromatic_retract(t3, c, fam, side))):
            assert verify_chromatic_identity(t3, d, c_P, P, G, side).equal
    assert calls["evaluate"] > 4 and calls["outside"] > 0
    assert calls["inside"] == 0
