"""The monoidal category H-mod at desk scale.

Modules are one action matrix per basis element of H; tensor words are flat
tuples of modules (Mac Lane coherence: no explicit associators) acting
through iterated coproducts, flattened row-major.  An element acts on a word
in one pass over its Sweedler terms, multiplying the legs' nonzero entries
straight into the flat matrix (``word_element_action``); no Kronecker product
is formed.  A ``Morphism`` records its source and target words plus one exact
matrix; the empty word is the monoidal unit.

Left duals act by ``transpose(rho(S(h)))``, right duals by
``transpose(rho(S^{-1}(h)))``.  The Lambda-transformations are the actions of
``S^{-1}(Lambda)`` (left) and ``S(Lambda)`` (right).

The regular, trivial and alpha modules are built once per algebra and kept on
it, and each module keeps its duals, built once per side, so every caller
shares them: ld(H), ld(ld(H)), rd(H) and rd(rd(H)) live as long as H.  So do
the Lambda-transformations, built once per (word, side).

Verification policy (here and in ``chromatic``): a morphism built here from
H's verified data is H-linear by an identity of H checked once per algebra:
ev and coev by the antipode axiom (``hopf_make``), the pivot-twisted coev~ by
the pivot conditions (a ``ChromaticMap`` rejects a pivot that fails them), the
Lambda-transformations by the certificate of ``normalized_pair``.  So these are
built unchecked, and ``is_h_linear`` runs only on maps made from data:
``module_make`` checks the action axioms, ``split_idempotent`` and
``RetractFamily.make`` H-linearity, and a ``ChromaticMap`` decides its own
H-linearity once, on first use (``h_linear``: in a chromatic constructor, or
at a retract's first X = H row).  ``chromatic_retract`` builds from checked
parts, and no function has a switch that turns a check off.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import HopfAlgebra
from .integrals import is_unimodular, normalized_pair
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
]


class ModuleAxiomError(ValueError):
    """The action matrices do not define an H-module."""


class MorphismTypeError(ValueError):
    """Tensor-word mismatch when building or combining morphisms."""


class HModule:
    """A finite-dimensional left H-module given by action matrices."""

    __slots__ = ("H", "dim", "action", "label", "_duals")

    def __init__(self, H: HopfAlgebra, dim: int, action, label: str):
        self.H = H
        self.dim = dim
        self.action = tuple(action)  # one dim x dim Matrix per basis element
        self.label = label
        self._duals = {}  # side -> dual, built on first use and kept with the module

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


def module_make(H: HopfAlgebra, action, label: str) -> HModule:
    """Validate and wrap action matrices: rho(1) = id, rho an algebra map."""
    action = list(action)
    if len(action) != H.dim:
        raise ModuleAxiomError("need one action matrix per basis element of H")
    dims = {m.shape for m in action}
    if len(dims) > 1 or any(m.nrows != m.ncols for m in action):
        raise ModuleAxiomError("action matrices must be square of equal size")
    dim = action[0].nrows if action else 0
    mod = HModule(H, dim, action, label)
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


def _standard(H: HopfAlgebra, label: str, dim: int, action) -> HModule:
    """The standard module ``label`` of H, built on first use and kept on H."""
    if label not in H._modules:
        H._modules[label] = HModule(H, dim, action(), label)
    return H._modules[label]


def regular_module(H: HopfAlgebra) -> HModule:
    """H acting on itself by left multiplication (projective generator)."""
    return _standard(H, "H", H.dim, lambda: [H.left_mult_matrix(i) for i in range(H.dim)])


def trivial_module(H: HopfAlgebra) -> HModule:
    """The monoidal unit: k with action through the counit."""
    return _standard(H, "triv", 1, lambda: [Matrix.from_rows(H.field, [[c]])
                                            for c in H.counit])


def alpha_module(H: HopfAlgebra) -> HModule:
    """The distinguished invertible object: k with h acting by alpha_H(h)."""
    return _standard(H, "alpha", 1, lambda: [Matrix.from_rows(H.field, [[a]])
                                             for a in normalized_pair(H).alpha])


def tensor_module(M: HModule, N: HModule) -> HModule:
    """M ox N with action through the coproduct."""
    if M.H is not N.H:
        raise MorphismTypeError("tensor of modules over different algebras")
    action = [word_action(M.H, (M, N), k) for k in range(M.H.dim)]
    return HModule(M.H, M.dim * N.dim, action, f"({M.label}*{N.label})")


def dual_module(M: HModule, side: str) -> HModule:
    """Left dual (via S) or right dual (via S^{-1}) of M, built once per side
    and kept with M, so every call for it returns the same module."""
    D = M._duals.get(side)
    if D is None:
        H = M.H
        if side == "left":
            smat, tag = H.antipode, "ld"
        elif side == "right":
            smat, tag = H.antipode_inverse(), "rd"
        else:
            raise ValueError(f"side must be left or right, got {side!r}")
        action = [M.act(smat.col_list(i)).transpose() for i in range(H.dim)]
        D = M._duals[side] = HModule(H, M.dim, action, f"{tag}({M.label})")
    return D


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
    """Action of an arbitrary element of H on a tensor word, built in one pass.

    Each Sweedler term ``c a_(1) ox ... ox a_(k)`` contributes the products
    ``c * rho_1(a_(1))[r_1, s_1] * ... * rho_k(a_(k))[r_k, s_k]`` of the legs'
    nonzero entries at the row-major flat position ``((r_1, ..., r_k),
    (s_1, ..., s_k))``.  They are added straight into the rows of the result
    and zero sums are dropped once, at the end, so no Kronecker product or
    scaled copy of a leg is formed.
    """
    word = _as_word(word)
    f = H.field
    if not word:
        return Matrix.from_rows(f, [[H.counit_apply(a)]])
    if len(word) == 1:
        return word[0].act(a)
    mul, add, zero, one = f.mul, f.add, f.zero, f.one
    entries = {}  # (leg, basis index) -> nonzero entries of that action matrix

    def leg(pos: int, i: int) -> list:
        if (pos, i) not in entries:
            entries[pos, i] = list(word[pos].action[i].nonzero_items())
        return entries[pos, i]

    dim = word_dim(word)
    rows = [{} for _ in range(dim)]
    for key, c in H.coproduct_iter(len(word) - 1, a).items():
        # every leg but the last widens the flat (row, col, product) entries;
        # the last one adds its products straight into the rows
        part = [(r, s, v if c == one else mul(c, v)) for r, s, v in leg(0, key[0])]
        for pos in range(1, len(word) - 1):
            d, nxt = word[pos].dim, leg(pos, key[pos])
            part = [(r * d + r2, s * d + s2, mul(v, w))
                    for r, s, v in part for r2, s2, w in nxt]
        d, last = word[-1].dim, leg(len(word) - 1, key[-1])
        for r, s, v in part:
            r, s = r * d, s * d
            for r2, s2, w in last:
                row, j, x = rows[r + r2], s + s2, mul(v, w)
                row[j] = add(row[j], x) if j in row else x
    return Matrix(f, dim, dim, [{s: v for s, v in row.items() if v != zero} for row in rows])


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
    """Exact intertwiner check on the algebra generators of H: the elements
    that a map commutes with form a subalgebra, so these decide it."""
    if not mor.source and not mor.target:
        return True
    H = mor.H
    for k in H.algebra_generators():
        lhs = mor.matrix @ word_action(H, mor.source, k)
        rhs = word_action(H, mor.target, k) @ mor.matrix
        if lhs != rhs:
            return False
    return True


def evaluation_morphisms(M: HModule, side: str):
    """(ev, coev) for M with its left dual, or (ev~, coev~) with its right dual.

    left : ev : ldM ox M -> 1,  coev : 1 -> M ox ldM;
    right: ev~: M ox rdM -> 1,  coev~: 1 -> rdM ox M;  all pairings are the
    canonical ones ev(phi ox m) = phi(m) = ev~(m ox phi).
    """
    f = M.H.field
    d = M.dim
    D = dual_module(M, side)
    pair_row = Matrix.from_entries(f, 1, d * d, {(0, i * d + i): f.one for i in range(d)})
    pair_col = pair_row.transpose()
    if side == "left":
        return Morphism((D, M), (), pair_row), Morphism((), (M, D), pair_col)
    return Morphism((M, D), (), pair_row), Morphism((), (D, M), pair_col)


def pivotal_evaluation_morphisms(M: HModule, g: list):
    """Pivot-twisted right (co)evaluations against the left dual.

    For a pivot g (S^2 = conj by g) the left dual also right-dualizes M via
    ev~(m ox phi) = phi(g.m) and coev~ = sum_i e^i ox g^{-1} e_i, where
    g^{-1} = S(g) because g is grouplike.
    """
    f = M.H.field
    d = M.dim
    ld = dual_module(M, "left")
    rho_g = M.act(g)
    rho_ginv = M.act(M.H.antipode_apply(g))
    # ev~(e_i ox e^j) = e^j(g e_i) = rho(g)[j][i]
    evt_entries = {(0, i * d + j): v for j, i, v in rho_g.nonzero_items()}
    # coev~ = sum_j e^j ox g^{-1} e_j
    coevt_entries = {(j * d + i, 0): v for i, j, v in rho_ginv.nonzero_items()}
    evt = Morphism((M, ld), (), Matrix.from_entries(f, 1, d * d, evt_entries))
    coevt = Morphism((), (ld, M), Matrix.from_entries(f, d * d, 1, coevt_entries))
    return evt, coevt


def hom_space(M: HModule, N: HModule) -> Matrix:
    """Basis of H-linear maps M -> N, flattened row-major (N.dim x M.dim)."""
    if M.H is not N.H:
        raise MorphismTypeError("hom between modules over different algebras")
    f = M.H.field
    id_m, id_n = Matrix.identity(f, M.dim), Matrix.identity(f, N.dim)
    # rho_N(e_k) F - F rho_M(e_k) = 0 on F flattened row-major, for the
    # generators e_k of H (the kernel, hence its canonical basis, is the same
    # as over all of H): (rho_N(e_k) ox I - I ox rho_M(e_k)^T) vec(F) = 0
    return stacked_nullspace([N.action[k].kron(id_m) - id_n.kron(M.action[k].transpose())
                              for k in M.H.algebra_generators() or (0,)])


def hom_basis(M: HModule, N: HModule) -> list[Matrix]:
    """The hom_space basis reshaped into N.dim x M.dim matrices."""
    basis = hom_space(M, N)
    entries = [{} for _ in range(basis.ncols)]
    for flat, c, v in basis.nonzero_items():
        entries[c][divmod(flat, M.dim)] = v
    return [Matrix.from_entries(M.H.field, N.dim, M.dim, e) for e in entries]


def lambda_transform(H: HopfAlgebra, word, side: str) -> Morphism:
    """The natural transformation component at a tensor word, built once per
    (word, side) and kept on H, so every call for it returns the same morphism.

    left     : word ox alpha -> word, acting by S^{-1}(Lambda);
    right    : alpha ox word -> word, acting by S(Lambda);
    spherical: word -> word, the left one's matrix, for a unimodular H (alpha
               is then trivial), as the spherical identity uses it.
    """
    word = _as_word(word)
    mor = H._lambda_transforms.get((word, side))
    if mor is None:
        alpha = alpha_module(H)
        Lam = normalized_pair(H).left_cointegral
        if side == "left":
            mat = word_element_action(H, word, H.antipode_inverse_apply(Lam))
            mor = Morphism(word + (alpha,), word, mat)
        elif side == "right":
            mat = word_element_action(H, word, H.antipode_apply(Lam))
            mor = Morphism((alpha,) + word, word, mat)
        elif side == "spherical":
            if not is_unimodular(H):
                raise ValueError(f"{H.name} is not unimodular: Lambda^l maps "
                                 "word ox alpha, not word, to word")
            mor = Morphism(word, word, lambda_transform(H, word, "left").matrix)
        else:
            raise ValueError(f"side must be left, right or spherical, got {side!r}")
        H._lambda_transforms[word, side] = mor
    return mor
