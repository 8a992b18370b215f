import pytest
from helpers import kron_word_element_action

from hopfchrom import (
    Matrix,
    ModuleAxiomError,
    Morphism,
    alpha_module,
    dual_module,
    evaluation_morphisms,
    hom_basis,
    hom_space,
    is_h_linear,
    is_spherical_hmod,
    lambda_transform,
    module_make,
    normalized_pair,
    pivot_candidates,
    pivotal_evaluation_morphisms,
    regular_module,
    tensor_module,
    trivial_module,
    word_action,
    word_element_action,
)
from hopfchrom import hmod as hmod_module
from hopfchrom.calculus import Prim, compose, evaluate, identity, tensor
from hopfchrom.cli import _make_builtin, _parse_field, main


def test_module_make_regular_and_trivial(z2):
    reg = module_make(z2, [z2.left_mult_matrix(i) for i in range(2)], "H")
    assert reg.dim == 2
    triv = module_make(z2, [Matrix.from_rows(z2.field, [[c]]) for c in z2.counit],
                       "triv")
    assert triv.dim == 1


def test_module_make_rejects_corrupted_action(h4):
    mats = [h4.left_mult_matrix(i) for i in range(4)]
    bad = mats[2] + Matrix.from_entries(h4.field, 4, 4, {(0, 0): h4.field.one})
    with pytest.raises(ModuleAxiomError):
        module_make(h4, mats[:2] + [bad] + mats[3:], "broken")


def test_special_modules(z2, h4):
    assert regular_module(h4).dim == 4
    # alpha of a unimodular algebra is the trivial module
    assert [m.dense() for m in alpha_module(z2).action] == \
        [m.dense() for m in trivial_module(z2).action]
    a4 = alpha_module(h4)
    assert a4.action[1].entry(0, 0) == h4.field.neg(h4.field.one)  # g acts by -1


def test_tensor_module(h4, corpus_data):
    reg = regular_module(h4)
    triv = trivial_module(h4)
    t = tensor_module(triv, reg)
    # trivial ox M isomorphic to M with the identity matrix as H-linear iso
    iso = Morphism((t,), (reg,), Matrix.identity(h4.field, 4))
    assert is_h_linear(iso)
    big = tensor_module(reg, reg)
    assert big.dim == 16
    # action axiom re-validated via module_make
    module_make(h4, big.action, "H*H")


def test_dual_modules(h4, t3):
    reg = regular_module(h4)
    triv = trivial_module(h4)
    ld_triv = dual_module(triv, "left")
    assert [m.dense() for m in ld_triv.action] == [m.dense() for m in triv.action]
    # right dual of left dual is M on the nose
    rl = dual_module(dual_module(reg, "left"), "right")
    assert [m.dense() for m in rl.action] == [m.dense() for m in reg.action]
    # double left dual acts through S^2
    ll = dual_module(dual_module(reg, "left"), "left")
    S2 = h4.antipode @ h4.antipode
    for i in range(4):
        assert ll.action[i] == reg.act(S2.col_list(i))


def test_evaluation_zigzags(corpus_data):
    # the grid coevaluates into ld(H) and rd(H) and checks only its chromatic
    # map, so the H-linearity of these unchecked morphisms is asserted here
    for name, (H, d) in corpus_data.items():
        reg = regular_module(H)
        for M in (reg, dual_module(reg, "left"), dual_module(reg, "right")):
            ev, coev = evaluation_morphisms(M, "left")
            evt, coevt = evaluation_morphisms(M, "right")
            assert all(is_h_linear(m) for m in (ev, coev, evt, coevt)), name
            idm = identity((M,))
            ld = ev.source[0]
            idl = identity((ld,))
            z1 = evaluate(compose(tensor(idm, Prim(ev)), tensor(Prim(coev), idm)))
            assert z1.matrix == Matrix.identity(H.field, M.dim), name
            z2_ = evaluate(compose(tensor(Prim(ev), idl), tensor(idl, Prim(coev))))
            assert z2_.matrix == Matrix.identity(H.field, M.dim), name
            rd = evt.source[1]
            idr = identity((rd,))
            z3 = evaluate(compose(tensor(Prim(evt), idm), tensor(idm, Prim(coevt))))
            assert z3.matrix == Matrix.identity(H.field, M.dim), name
            z4 = evaluate(compose(tensor(idr, Prim(evt)), tensor(Prim(coevt), idr)))
            assert z4.matrix == Matrix.identity(H.field, M.dim), name


def test_evaluation_morphisms_trivial(z2):
    triv = trivial_module(z2)
    ev, _ = evaluation_morphisms(triv, "left")
    assert ev.matrix.dense() == [[z2.field.one]]


def test_hom_spaces(h4, z2):
    triv = trivial_module(h4)
    assert hom_space(triv, triv).ncols == 1
    reg = regular_module(h4)
    basis = hom_basis(reg, reg)
    assert len(basis) == 4  # right multiplications
    for F in basis:
        assert is_h_linear(Morphism((reg,), (reg,), F))
    assert hom_space(triv, reg).ncols == 1  # the cointegral line


def test_lambda_transform_examples(corpus_data):
    z2, dz2 = corpus_data["group:Z2"]
    reg = regular_module(z2)
    lam_l = lambda_transform(z2, (reg,), "left")
    one = z2.field.one
    assert lam_l.matrix.dense() == [[one, one], [one, one]]  # action of e + g
    # on the trivial module: the scalar eps(Lambda) = 2
    triv = trivial_module(z2)
    lam_t = lambda_transform(z2, (triv,), "left")
    assert lam_t.matrix.dense() == [[z2.field.from_int(2)]]

    h4, dh4 = corpus_data["sweedler"]
    reg4 = regular_module(h4)
    lam4 = lambda_transform(h4, (reg4,), "left")
    want = reg4.act(h4.antipode_inverse_apply(dh4.left_cointegral))
    assert lam4.matrix == want
    lam4r = lambda_transform(h4, (reg4,), "right")
    assert lam4r.matrix == reg4.act(h4.antipode_apply(dh4.left_cointegral))


def test_lambda_transform_is_h_linear(corpus_data):
    # built unchecked, so its H-linearity is asserted here, on both sides
    for name, (H, d) in corpus_data.items():
        reg = regular_module(H)
        for word in ((reg,), (trivial_module(H),), (reg, dual_module(reg, "left")),
                     (dual_module(reg, "right"), reg)):
            for side in ("left", "right"):
                assert is_h_linear(lambda_transform(H, word, side)), (name, side, word)


def test_lambda_transform_kept_per_word_and_side(z2, t3):
    reg = regular_module(z2)
    word = (reg, dual_module(reg, "left"))
    left = lambda_transform(z2, word, "left")
    assert lambda_transform(z2, word, "left") is left
    assert lambda_transform(z2, list(word), "right") is lambda_transform(z2, word, "right")
    # the spherical rows read the left matrix as an endomorphism of the word
    sph = lambda_transform(z2, word, "spherical")
    assert sph.source == sph.target == word and sph.matrix is left.matrix
    with pytest.raises(ValueError, match="not unimodular"):
        lambda_transform(t3, (regular_module(t3),), "spherical")
    with pytest.raises(ValueError, match="side must be"):
        lambda_transform(z2, word, "up")


@pytest.mark.parametrize("builtin,field", [("taft:5", "GF:11"), ("uqsl2:3", "GF:7")])
def test_check_builds_each_lambda_transform_once(builtin, field, monkeypatch):
    # six components, (X ox ld(H), left) and (rd(H) ox X, right) for X = triv,
    # H, alpha, serve the P = H and P = split(H) rows and, on the unimodular
    # uqsl2:3, the spherical ones
    builds = []
    real = hmod_module.word_element_action

    def recording(H, word, a):
        lam = normalized_pair(H).left_cointegral
        if a in (H.antipode_apply(lam), H.antipode_inverse_apply(lam)):
            builds.append(tuple(m.label for m in word))
        return real(H, word, a)

    monkeypatch.setattr(hmod_module, "word_element_action", recording)
    assert main(["check", "--builtin", builtin, "--field", field, "--json"]) == 0
    assert len(builds) == len(set(builds)) == 6


def test_pivotal_coevaluation_of_uqsl2_is_h_linear():
    """The spherical grid's coev~ twisted by the pivot of uqsl2:3 is H-linear
    by the pivot conditions; twisted by the unit, which fails them, it is not."""
    H = _make_builtin("uqsl2:3", _parse_field("GF:7"))
    reg = regular_module(H)
    g = is_spherical_hmod(H)[1].g
    evt, coevt = pivotal_evaluation_morphisms(reg, g)
    assert is_h_linear(evt) and is_h_linear(coevt)
    assert not is_h_linear(pivotal_evaluation_morphisms(reg, H.unit_vector())[1])


def test_lambda_naturality(corpus_data):
    # F o Lambda^l_M = Lambda^l_N o (F ox id_alpha) over a hom basis
    for name, (H, d) in corpus_data.items():
        reg = regular_module(H)
        triv = trivial_module(H)
        for M, N in ((reg, reg), (triv, reg), (reg, triv)):
            lam_m = lambda_transform(H, (M,), "left")
            lam_n = lambda_transform(H, (N,), "left")
            lam_m_r = lambda_transform(H, (M,), "right")
            lam_n_r = lambda_transform(H, (N,), "right")
            for F in hom_basis(M, N):
                assert F @ lam_m.matrix == lam_n.matrix @ F, name
                assert F @ lam_m_r.matrix == lam_n_r.matrix @ F, name


def test_word_actions(h4, corpus_data):
    _, d = corpus_data["sweedler"]
    reg = regular_module(h4)
    triv = trivial_module(h4)
    f = h4.field
    # empty word acts by the counit
    assert word_action(h4, (), 1).dense() == [[h4.counit[1]]]
    # tensor word action equals the tensor module action
    t = tensor_module(reg, reg)
    for k in range(4):
        assert word_action(h4, (reg, reg), k) == t.action[k]
    v = h4.element({0: 2, 2: 5})
    assert word_element_action(h4, (reg, triv), v) == \
        tensor_module(reg, triv).act(v)


def test_word_element_action_matches_the_kronecker_sum(corpus_data):
    """The one-pass kernel equals the sum of one Kronecker product per
    Sweedler term, entry for entry, on every word of at most three legs.
    Every word is acted on by S^{-+1}(Lambda) (the Lambda-transformations)
    and a random element; words of at most two legs also by every basis
    vector and a second random element, three-leg words by the algebra
    generators (what ``is_h_linear`` applies)."""
    import itertools
    import random

    rng = random.Random(19)
    for name, (H, d) in corpus_data.items():
        G = regular_module(H)
        mods = [G, trivial_module(H), alpha_module(H), dual_module(G, "left"),
                dual_module(G, "right")]
        f = H.field
        lams = [H.antipode_inverse_apply(d.left_cointegral),
                H.antipode_apply(d.left_cointegral)]
        randoms = [[f.from_int(rng.randrange(-3, 4)) for _ in range(H.dim)]
                   for _ in range(2)]
        for r in range(4):
            if r < 3:
                elements = [H.basis_vector(k) for k in range(H.dim)] + randoms
            else:
                elements = [H.basis_vector(k) for k in H.algebra_generators()] + randoms[:1]
            for word in itertools.product(mods, repeat=r):
                for a in elements + lams:
                    assert word_element_action(H, word, a) == \
                        kron_word_element_action(H, word, a), (name, word, a)


def test_check_builds_no_kronecker_product(monkeypatch, capsys):
    calls = []
    kron = Matrix.kron

    def tracked(self, other):
        calls.append((self.shape, other.shape))
        return kron(self, other)

    monkeypatch.setattr(Matrix, "kron", tracked)
    assert main(["check", "--builtin", "taft:3", "--field", "GF:7"]) == 0
    capsys.readouterr()
    assert calls == []
    f = _parse_field("GF:7")
    Matrix.identity(f, 2).kron(Matrix.identity(f, 2))  # the tracker is installed
    assert calls == [((2, 2), (2, 2))]


def test_pivotal_evaluations_with_both_z2_pivots(corpus_data):
    z2, d = corpus_data["group:Z2"]
    reg = regular_module(z2)
    f = z2.field
    for p in pivot_candidates(z2):
        evt, coevt = pivotal_evaluation_morphisms(reg, p.g)
        assert is_h_linear(evt) and is_h_linear(coevt)
        idm = identity((reg,))
        idl = identity((evt.source[1],))
        z = evaluate(compose(tensor(Prim(evt), idm), tensor(idm, Prim(coevt))))
        assert z.matrix == Matrix.identity(f, reg.dim)
        z = evaluate(compose(tensor(idl, Prim(evt)), tensor(Prim(coevt), idl)))
        assert z.matrix == Matrix.identity(f, reg.dim)


def test_lambda_naturality_word_typed(h4):
    # the typed form F o Lambda^l_M = Lambda^l_N o (F ox id_alpha), with the
    # alpha leg carried explicitly through the morphism calculus
    reg = regular_module(h4)
    triv = trivial_module(h4)
    alpha = alpha_module(h4)
    for M, N in ((reg, reg), (triv, reg)):
        lam_m = lambda_transform(h4, (M,), "left")
        lam_n = lambda_transform(h4, (N,), "left")
        for F in hom_basis(M, N):
            Fmor = Prim(Morphism((M,), (N,), F))
            lhs = evaluate(compose(Fmor, Prim(lam_m)))
            rhs = evaluate(compose(Prim(lam_n), tensor(Fmor, identity((alpha,)))))
            assert lhs.matrix == rhs.matrix
        lam_m_r = lambda_transform(h4, (M,), "right")
        lam_n_r = lambda_transform(h4, (N,), "right")
        for F in hom_basis(M, N):
            Fmor = Prim(Morphism((M,), (N,), F))
            lhs = evaluate(compose(Fmor, Prim(lam_m_r)))
            rhs = evaluate(compose(Prim(lam_n_r), tensor(identity((alpha,)), Fmor)))
            assert lhs.matrix == rhs.matrix


def test_hom_space_on_generators_matches_the_all_basis_stack(corpus):
    """The generator blocks alone leave the same kernel, so the canonical
    nullspace basis is byte-identical to the one from every basis element."""
    from hopfchrom.linalg import stacked_nullspace

    for H in corpus:
        G, T = regular_module(H), trivial_module(H)
        mods = [G, T, alpha_module(H), dual_module(G, "left"), tensor_module(T, G)]
        for M in mods:
            for N in mods:
                f = H.field
                id_m, id_n = Matrix.identity(f, M.dim), Matrix.identity(f, N.dim)
                full = stacked_nullspace([rn.kron(id_m) - id_n.kron(rm.transpose())
                                          for rn, rm in zip(N.action, M.action)])
                assert hom_space(M, N) == full, (H.name, M.label, N.label)
                assert len(hom_basis(M, N)) == full.ncols
