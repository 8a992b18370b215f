import random

import pytest
from helpers import kron_evaluate
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchrom import (
    ExprEnv,
    ExprSyntaxError,
    FieldSpec,
    Matrix,
    Morphism,
    MorphismTypeError,
    evaluate,
    field_make,
    morphisms_equal,
    parse_expr,
    regular_module,
    taft,
    trivial_module,
)
from hopfchrom.calculus import Compose, Ident, Prim, Tensor, compose, identity, tensor
from hopfchrom.chromatic import chromatic_left_hopf
from hopfchrom.hmod import dual_module, evaluation_morphisms, word_dim


def test_zigzag_composite_is_identity(h4):
    reg = regular_module(h4)
    ev, coev = evaluation_morphisms(reg, "left")
    idm = identity((reg,))
    expr = compose(tensor(idm, Prim(ev)), tensor(Prim(coev), idm))
    got = evaluate(expr)
    assert got.matrix == Matrix.identity(h4.field, reg.dim)
    assert got.source == (reg,) and got.target == (reg,)


def test_tensor_of_identities(h4):
    reg = regular_module(h4)
    triv = trivial_module(h4)
    got = evaluate(tensor(identity((reg,)), identity((triv, reg))))
    assert got.matrix == Matrix.identity(h4.field, 16)


def test_type_mismatch_reports_words(h4, monkeypatch):
    reg = regular_module(h4)
    triv = trivial_module(h4)
    expr = compose(identity((triv,)), identity((reg,)))
    with pytest.raises(MorphismTypeError) as err:
        evaluate(expr)
    assert "triv" in str(err.value) and "H" in str(err.value)

    def no_arithmetic(*args):
        raise AssertionError("arithmetic before the tree was typed")

    # the well-typed right factor would be applied first if typing were lazy
    monkeypatch.setattr(Matrix, "kron_apply", no_arithmetic)
    ev, coev = evaluation_morphisms(reg, "left")
    expr = compose(tensor(identity((triv,)), Prim(ev)),
                   tensor(Prim(coev), identity((reg,))))
    with pytest.raises(MorphismTypeError) as err:
        evaluate(expr)
    assert "triv*ld(H)*H" in str(err.value) and "H*ld(H)*H" in str(err.value)


def test_morphisms_equal(h4):
    reg = regular_module(h4)
    f = Morphism((reg,), (reg,), Matrix.identity(h4.field, 4))
    z = Morphism((reg,), (reg,), Matrix.zeros(h4.field, 4, 4))
    assert morphisms_equal(f, f)
    assert not morphisms_equal(f, z)
    triv = trivial_module(h4)
    g = Morphism((triv,), (triv,), Matrix.identity(h4.field, 1))
    with pytest.raises(MorphismTypeError):
        morphisms_equal(f, g)


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_interchange_law(h4, data):
    reg = regular_module(h4)

    def rand_endo(draw):
        rows = draw(st.lists(st.lists(small, min_size=4, max_size=4),
                             min_size=4, max_size=4))
        return Prim(Morphism((reg,), (reg,), Matrix.from_rows(h4.field, rows)))

    a, b, c, d = (rand_endo(data.draw) for _ in range(4))
    lhs = evaluate(tensor(compose(a, b), compose(c, d)))
    rhs = evaluate(compose(tensor(a, c), tensor(b, d)))
    assert lhs.matrix == rhs.matrix


def test_parse_expr_builds_zigzag(z2):
    env = ExprEnv(z2)
    got = evaluate(parse_expr("id(H) * ev(H) ; coev(H) * id(H)", env))
    assert got.matrix == Matrix.identity(z2.field, 2)


def test_parse_expr_chromatic_identity(z2):
    env = ExprEnv(z2)
    lhs = parse_expr(
        "id(triv)*ev(H)*id(H) ; lamL(triv,ld(H))*id(H,H) ;"
        " id(triv,ld(H))*cL ; id(triv)*coev(ld(H))*id(H)", env)
    rhs = parse_expr("id(triv,H)", env)
    assert morphisms_equal(evaluate(lhs), evaluate(rhs))


def test_parse_expr_primitive_matches_direct(h4):
    env = ExprEnv(h4)
    got = evaluate(parse_expr("cL", env))
    want = chromatic_left_hopf(h4)
    assert got.matrix == want.matrix


def test_parse_expr_errors(z2):
    env = ExprEnv(z2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", env)
    with pytest.raises(ExprSyntaxError):
        parse_expr("ev(H", env)
    with pytest.raises(ExprSyntaxError):
        parse_expr("frob(H)", env)
    with pytest.raises(ExprSyntaxError):
        parse_expr("ev(H) @ id(H)", env)
    with pytest.raises(ExprSyntaxError):
        parse_expr("ev(H, H)", env)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("cL(", env)
    assert "wanted a module name or ')'" in str(err.value)
    for text, name in (("cL(triv,alpha)", "cL"), ("cR(H)", "cR"), ("cSph(triv)", "cSph")):
        with pytest.raises(ExprSyntaxError, match=f"{name} takes no module"):
            parse_expr(text, env)
    assert evaluate(parse_expr("cL()", env)).matrix == evaluate(parse_expr("cL", env)).matrix


def test_env_pivot_searches_once_and_an_inconclusive_search_raises_each_time(
        z2, monkeypatch):
    from hopfchrom import integrals
    from hopfchrom.integrals import PivotSearchInconclusive

    calls = []
    real = integrals.is_spherical_hmod

    def counted(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(integrals, "is_spherical_hmod", counted)
    env = ExprEnv(z2)
    assert env.pivot is env.pivot is not None and len(calls) == 1

    def inconclusive(H):
        calls.append(H)
        raise PivotSearchInconclusive("undecided")

    monkeypatch.setattr(integrals, "is_spherical_hmod", inconclusive)
    env = ExprEnv(z2)
    for _ in range(2):
        with pytest.raises(PivotSearchInconclusive):
            env.pivot
    assert len(calls) == 3


def test_evaluate_functoriality(h4):
    reg = regular_module(h4)
    rows = [[1, 0, 2, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 1]]
    f = Morphism((reg,), (reg,), Matrix.from_rows(h4.field, rows))
    g = Morphism((reg,), (reg,), Matrix.from_rows(h4.field, rows).transpose())
    comp = evaluate(compose(Prim(f), Prim(g)))
    assert comp.matrix == f.matrix @ g.matrix
    ten = evaluate(tensor(Prim(f), Prim(g)))
    assert ten.matrix == f.matrix.kron(g.matrix)


def test_parse_expr_right_identity_and_spherical(z2):
    env = ExprEnv(z2)
    lhs = parse_expr(
        "id(H)*evt(H)*id(triv) ; id(H,H)*lamR(rd(H),triv) ;"
        " cR*id(rd(H),triv) ; id(H)*coevt(rd(H))*id(triv)", env)
    rhs = parse_expr("id(H,triv)", env)
    assert morphisms_equal(evaluate(lhs), evaluate(rhs))
    from hopfchrom.chromatic import chromatic_spherical
    got = evaluate(parse_expr("cSph", env))
    want = chromatic_spherical(z2, env.pivot)
    assert got.matrix == want.matrix
    # the right identity at X = H over Q(zeta_3), Lambda-transformation included,
    # decided on every column
    t3 = taft(3, field_make(FieldSpec("cyclotomic", n=3)))
    env = ExprEnv(t3)
    lhs = parse_expr(
        "id(H)*evt(H)*id(H) ; id(H,H)*lamR(rd(H),H) ;"
        " cR*id(rd(H),H) ; id(H)*coevt(rd(H))*id(H)", env)
    assert morphisms_equal(evaluate(lhs), evaluate(parse_expr("id(H,H)", env)))


@pytest.mark.parametrize("side", ["Left", "", "both", "all", None])
def test_expr_env_rejects_an_unknown_side(z2, side):
    """Only left, right and spherical name a chromatic map; any other side is
    an error, not the spherical map."""
    env = ExprEnv(z2)
    with pytest.raises(ValueError, match="side must be left, right or spherical"):
        env.chromatic(side)
    assert env.chromatic("spherical").side == "spherical"


def _random_tree(draw, mods, source, depth):
    """A well-typed random tree on ``source``; primitives get seeded random
    sparse matrices, so the evaluators see cancellation and zero rows."""
    kinds = ["prim"] + (["ident"] if source else []) + \
        (["compose", "tensor"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ident":
        return Ident(source)
    if kind == "compose":
        g = _random_tree(draw, mods, source, depth - 1)
        return Compose(_random_tree(draw, mods, g.target_word(), depth - 1), g)
    if kind == "tensor":
        cut = draw(st.integers(min_value=0, max_value=len(source)))
        return Tensor(_random_tree(draw, mods, source[:cut], depth - 1),
                      _random_tree(draw, mods, source[cut:], depth - 1))
    target = tuple(draw(st.lists(st.sampled_from(mods), max_size=2)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    field = mods[0].H.field
    entries = {(i, j): rng.randint(-2, 2)
               for i in range(word_dim(target)) for j in range(word_dim(source))
               if rng.random() < 0.4}
    return Prim(Morphism(source, target, Matrix.from_entries(
        field, word_dim(target), word_dim(source), entries)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_matches_kronecker_reference_on_random_trees(h4, data):
    reg = regular_module(h4)
    mods = [reg, trivial_module(h4), dual_module(reg, "left")]
    source = tuple(data.draw(st.lists(st.sampled_from(mods), max_size=2)))
    expr = _random_tree(data.draw, mods, source, depth=3)
    got, want = evaluate(expr), kron_evaluate(expr)
    assert got.source == want.source and got.target == want.target
    assert got.matrix == want.matrix


def test_expr_builds_each_dual_once(monkeypatch, capsys):
    """ev, coev and ld(H) in one expression share the single dual kept on H."""
    from hopfchrom import HModule
    from hopfchrom.cli import main

    labels = []
    init = HModule.__init__

    def recorded(self, H, dim, action, label):
        labels.append(label)
        init(self, H, dim, action, label)

    monkeypatch.setattr(HModule, "__init__", recorded)
    code = main(["check", "--builtin", "sweedler",
                 "--expr", "ev(H)*id(ld(H));id(ld(H))*coev(H)"])
    assert code == 0 and "equals identity: True" in capsys.readouterr().out
    assert labels.count("ld(H)") == 1


def test_dual_module_is_built_once_per_module_and_side(h4, monkeypatch, capsys):
    from collections import Counter

    from hopfchrom import HModule
    from hopfchrom.cli import main

    built = Counter()
    init = HModule.__init__

    def counted(self, H, dim, action, label):
        built[label] += 1
        init(self, H, dim, action, label)

    monkeypatch.setattr(HModule, "__init__", counted)
    # a module of its own: regular_module(h4) is kept on h4, and an earlier
    # test may already have built its duals
    G = HModule(h4, h4.dim, regular_module(h4).action, "H")
    for side in ("left", "right"):
        assert dual_module(G, side) is dual_module(G, side)
    assert dual_module(G, "left") is not dual_module(G, "right")
    dual_module(dual_module(G, "left"), "left")
    dual_module(dual_module(G, "left"), "left")  # no caller kept the first one
    assert built == {"H": 1, "ld(H)": 1, "rd(H)": 1, "ld(ld(H))": 1}
    assert dual_module(G, "left").same_as(dual_module(regular_module(h4), "left"))

    # a whole grid builds each dual of the regular module once
    built.clear()
    assert main(["check", "--builtin", "taft:3", "--field", "GF:7"]) == 0
    capsys.readouterr()
    for label in ("ld(H)", "ld(ld(H))", "rd(H)", "rd(rd(H))"):
        assert built[label] == 1, (label, built)
