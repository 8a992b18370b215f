"""The monoidal category H-mod at desk scale.

Modules are one action matrix per basis element of H; tensor words are flat
tuples of modules (Mac Lane coherence: no explicit associators) acting
through iterated coproducts, flattened row-major.  A ``Morphism`` records its
source and target words plus one exact matrix; the empty word is the monoidal
unit.

Left duals act by ``transpose(rho(S(h)))``, right duals by
``transpose(rho(S^{-1}(h)))``.  The Lambda-transformations are the actions of
``S^{-1}(Lambda)`` (left) and ``S(Lambda)`` (right).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .hopf import HopfAlgebra, HopfDataError
from .integrals import IntegralData
from .linalg import Matrix, stacked_nullspace

__all__ = [
    "HModule",
    "Morphism",
    "ModuleAxiomError",
    "MorphismTypeError",
    "module_make",
    "regular_module",
    "trivial_module",
    "alpha_module",
    "tensor_module",
    "dual_module",
    "word_dim",
    "word_label",
    "word_action",
    "word_element_action",
    "words_match",
    "is_h_linear",
    "evaluation_morphisms",
    "pivotal_evaluation_morphisms",
    "hom_space",
    "hom_basis",
    "lambda_transform",
    "lambda_endomorphism",
]


class ModuleAxiomError(ValueError):
    """The action matrices do not define an H-module."""


class MorphismTypeError(ValueError):
    """Tensor-word mismatch when building or combining morphisms."""


class HModule:
    """A finite-dimensional left H-module given by action matrices."""

    __slots__ = ("H", "dim", "action", "label")

    def __init__(self, H: HopfAlgebra, dim: int, action, label: str):
        self.H = H
        self.dim = dim
        self.action = tuple(action)  # one dim x dim Matrix per basis element
        self.label = label

    def act(self, a: list) -> Matrix:
        """Action matrix of an arbitrary element of H."""
        zero = self.H.field.zero
        return Matrix.combination(self.H.field, self.dim, self.dim,
                                  ((c, m) for c, m in zip(a, self.action) if c != zero))

    def same_as(self, other: "HModule") -> bool:
        """Same algebra, dimension, label and action matrices."""
        return (
            self.H is other.H and self.dim == other.dim and self.label == other.label
            and self.action == other.action
        )

    def __repr__(self) -> str:
        return f"HModule({self.label!r}, dim={self.dim})"


def module_make(H: HopfAlgebra, action, label: str, check: bool = True) -> HModule:
    """Validate and wrap action matrices: rho(1) = id, rho an algebra map."""
    action = list(action)
    if len(action) != H.dim:
        raise ModuleAxiomError("need one action matrix per basis element of H")
    dims = {m.shape for m in action}
    if len(dims) > 1 or any(m.nrows != m.ncols for m in action):
        raise ModuleAxiomError("action matrices must be square of equal size")
    dim = action[0].nrows if action else 0
    mod = HModule(H, dim, action, label)
    if check:
        _validate_module(mod)
    return mod


def _validate_module(M: HModule):
    H, f = M.H, M.H.field
    ident = Matrix.identity(f, M.dim)
    if M.act(H.unit_vector()) != ident:
        raise ModuleAxiomError(f"rho(1) != id on module {M.label!r}")
    for i in range(H.dim):
        for j in range(H.dim):
            rhs = Matrix.combination(f, M.dim, M.dim,
                                     ((c, M.action[k]) for k, c in H.mult[i][j].items()))
            if M.action[i] @ M.action[j] != rhs:
                raise ModuleAxiomError(
                    f"action axiom fails on {M.label!r} at basis pair ({i},{j})"
                )


def regular_module(H: HopfAlgebra) -> HModule:
    """H acting on itself by left multiplication (projective generator)."""
    return HModule(H, H.dim, [H.left_mult_matrix(i) for i in range(H.dim)], "H")


def trivial_module(H: HopfAlgebra) -> HModule:
    """The monoidal unit: k with action through the counit."""
    f = H.field
    action = [Matrix.from_rows(f, [[H.counit[i]]]) for i in range(H.dim)]
    return HModule(H, 1, action, "triv")


def alpha_module(H: HopfAlgebra, data: IntegralData) -> HModule:
    """The distinguished invertible object: k with h acting by alpha_H(h)."""
    f = H.field
    action = [Matrix.from_rows(f, [[data.alpha[i]]]) for i in range(H.dim)]
    return HModule(H, 1, action, "alpha")


def tensor_module(M: HModule, N: HModule) -> HModule:
    """M ox N with action through the coproduct."""
    if M.H is not N.H:
        raise MorphismTypeError("tensor of modules over different algebras")
    action = [word_action(M.H, (M, N), k) for k in range(M.H.dim)]
    return HModule(M.H, M.dim * N.dim, action, f"({M.label}*{N.label})")


def dual_module(M: HModule, side: str) -> HModule:
    """Left dual (via S) or right dual (via S^{-1}) of M."""
    H = M.H
    if side == "left":
        smat, tag = H.antipode, "ld"
    elif side == "right":
        smat, tag = H.antipode_inverse(), "rd"
    else:
        raise ValueError(f"side must be left or right, got {side!r}")
    action = [M.act(smat.col_list(i)).transpose() for i in range(H.dim)]
    return HModule(H, M.dim, action, f"{tag}({M.label})")


# -- tensor words --------------------------------------------------------------

def _as_word(word) -> tuple:
    if isinstance(word, HModule):
        return (word,)
    return tuple(word)


def word_dim(word) -> int:
    out = 1
    for m in _as_word(word):
        out *= m.dim
    return out


def word_label(word) -> str:
    w = _as_word(word)
    return "1" if not w else "*".join(m.label for m in w)


def words_match(a, b) -> bool:
    a, b = _as_word(a), _as_word(b)
    return len(a) == len(b) and all(x.same_as(y) for x, y in zip(a, b))


def word_action(H: HopfAlgebra, word, k: int) -> Matrix:
    """Action of basis element ``e_k`` on a tensor word: ``word_element_action``
    at ``e_k``, reading a single module's stored action matrix directly."""
    word = _as_word(word)
    if len(word) == 1:
        return word[0].action[k]
    return word_element_action(H, word, H.basis_vector(k))


def word_element_action(H: HopfAlgebra, word, a: list) -> Matrix:
    """Action of an arbitrary element of H on a tensor word.

    Each Sweedler term ``c a_(1) ox ... ox a_(k)`` is one Kronecker product
    with ``c`` folded into the first leg's (smaller) action matrix.
    """
    word = _as_word(word)
    f = H.field
    if not word:
        return Matrix.from_rows(f, [[H.counit_apply(a)]])
    if len(word) == 1:
        return word[0].act(a)
    head, tail = word[0], word[1:]
    dim = word_dim(word)
    return Matrix.combination(f, dim, dim, (
        (f.one, reduce(Matrix.kron, (m.action[i] for m, i in zip(tail, key[1:])),
                       head.action[key[0]].scale(c)))
        for key, c in H.coproduct_iter(len(word) - 1, a).items()))


@dataclass
class Morphism:
    """A linear map between tensor words of H-modules."""

    source: tuple
    target: tuple
    matrix: Matrix

    def __post_init__(self):
        self.source = _as_word(self.source)
        self.target = _as_word(self.target)
        if self.matrix.shape != (word_dim(self.target), word_dim(self.source)):
            raise MorphismTypeError(
                f"matrix {self.matrix.shape} does not map "
                f"{word_label(self.source)} (dim {word_dim(self.source)}) to "
                f"{word_label(self.target)} (dim {word_dim(self.target)})"
            )

    @property
    def H(self) -> HopfAlgebra:
        word = self.source or self.target
        if not word:
            raise MorphismTypeError("morphism between empty words has no algebra")
        return word[0].H

    def __repr__(self) -> str:
        return (
            f"Morphism({word_label(self.source)} -> {word_label(self.target)}, "
            f"{self.matrix.nrows}x{self.matrix.ncols})"
        )


def is_h_linear(mor: Morphism) -> bool:
    """Exact intertwiner check over every basis element of H."""
    if not mor.source and not mor.target:
        return True
    H = mor.H
    for k in range(H.dim):
        lhs = mor.matrix @ word_action(H, mor.source, k)
        rhs = word_action(H, mor.target, k) @ mor.matrix
        if lhs != rhs:
            return False
    return True


def _require_h_linear(mor: Morphism, what: str):
    if not is_h_linear(mor):
        raise ModuleAxiomError(f"{what} is not H-linear")


def evaluation_morphisms(M: HModule, check: bool = True):
    """(ev, coev, ev~, coev~) for M with its left and right duals.

    ev : ldM ox M -> 1,  coev : 1 -> M ox ldM,
    ev~: M ox rdM -> 1,  coev~: 1 -> rdM ox M;  all pairings are the
    canonical ones ev(phi ox m) = phi(m) = ev~(m ox phi).
    """
    f = M.H.field
    d = M.dim
    ld = dual_module(M, "left")
    rd = dual_module(M, "right")
    pair_row = Matrix.from_entries(f, 1, d * d, {(0, i * d + i): f.one for i in range(d)})
    pair_col = pair_row.transpose()
    ev = Morphism((ld, M), (), pair_row)
    coev = Morphism((), (M, ld), pair_col)
    evt = Morphism((M, rd), (), pair_row)
    coevt = Morphism((), (rd, M), pair_col)
    if check:
        for mor, what in ((ev, "ev"), (coev, "coev"), (evt, "ev~"), (coevt, "coev~")):
            _require_h_linear(mor, f"{what} on {M.label!r}")
    return ev, coev, evt, coevt


def pivotal_evaluation_morphisms(M: HModule, g: list, g_inv: list, check: bool = True):
    """Pivot-twisted right (co)evaluations against the left dual.

    For a pivot g (S^2 = conj by g) the left dual also right-dualizes M via
    ev~(m ox phi) = phi(g.m) and coev~ = sum_i e^i ox g^{-1} e_i.
    """
    f = M.H.field
    d = M.dim
    ld = dual_module(M, "left")
    rho_g = M.act(g)
    rho_ginv = M.act(g_inv)
    # ev~(e_i ox e^j) = e^j(g e_i) = rho(g)[j][i]
    evt_entries = {(0, i * d + j): v for j, i, v in rho_g.nonzero_items()}
    # coev~ = sum_j e^j ox g^{-1} e_j
    coevt_entries = {(j * d + i, 0): v for i, j, v in rho_ginv.nonzero_items()}
    evt = Morphism((M, ld), (), Matrix.from_entries(f, 1, d * d, evt_entries))
    coevt = Morphism((), (ld, M), Matrix.from_entries(f, d * d, 1, coevt_entries))
    if check:
        _require_h_linear(evt, f"pivotal ev~ on {M.label!r}")
        _require_h_linear(coevt, f"pivotal coev~ on {M.label!r}")
    return evt, coevt


def hom_space(M: HModule, N: HModule) -> Matrix:
    """Basis of H-linear maps M -> N, flattened row-major (N.dim x M.dim)."""
    if M.H is not N.H:
        raise MorphismTypeError("hom between modules over different algebras")
    f = M.H.field
    id_m, id_n = Matrix.identity(f, M.dim), Matrix.identity(f, N.dim)
    # rho_N(e_k) F - F rho_M(e_k) = 0 on F flattened row-major:
    # (rho_N(e_k) ox I - I ox rho_M(e_k)^T) vec(F) = 0
    return stacked_nullspace([rn.kron(id_m) - id_n.kron(rm.transpose())
                              for rn, rm in zip(N.action, M.action)])


def hom_basis(M: HModule, N: HModule) -> list[Matrix]:
    """The hom_space basis reshaped into N.dim x M.dim matrices."""
    basis = hom_space(M, N)
    out = []
    for c in range(basis.ncols):
        col = basis.col_list(c)
        entries = {}
        for flat, v in enumerate(col):
            if v != M.H.field.zero:
                entries[divmod(flat, M.dim)] = v
        out.append(Matrix.from_entries(M.H.field, N.dim, M.dim, entries))
    return out


def lambda_transform(H: HopfAlgebra, data: IntegralData, word, side: str,
                     check: bool = True) -> Morphism:
    """The natural transformation component at a tensor word.

    left : word ox alpha -> word, acting by S^{-1}(Lambda);
    right: alpha ox word -> word, acting by S(Lambda).
    """
    word = _as_word(word)
    alpha = alpha_module(H, data)
    if side == "left":
        mat = word_element_action(H, word, H.antipode_inverse_apply(data.left_cointegral))
        mor = Morphism(word + (alpha,), word, mat)
    elif side == "right":
        mat = word_element_action(H, word, H.antipode_apply(data.left_cointegral))
        mor = Morphism((alpha,) + word, word, mat)
    else:
        raise ValueError(f"side must be left or right, got {side!r}")
    if check:
        _require_h_linear(mor, f"Lambda^{side[0]} at {word_label(word)}")
    return mor


def lambda_endomorphism(H: HopfAlgebra, data: IntegralData, word,
                        check: bool = True) -> Morphism:
    """Endomorphism form of the Lambda-transformation (alpha leg absorbed).

    Meaningful when H is unimodular, where alpha is the trivial module and
    the left and right transformations agree on projectives.
    """
    word = _as_word(word)
    mat = word_element_action(H, word, H.antipode_inverse_apply(data.left_cointegral))
    mor = Morphism(word, word, mat)
    if check:
        _require_h_linear(mor, f"Lambda endomorphism at {word_label(word)}")
    return mor
