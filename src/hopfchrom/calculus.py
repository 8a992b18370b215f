"""Typed expression trees over morphisms: compose, tensor, evaluate.

Evaluation is functorial and exact.  A tree is typed node by node first, then
applied from right to left to a block of vectors of its source word, held as
rows (``evaluate_rows``; ``evaluate`` takes every basis vector and transposes
the result once): a primitive sends each row through itself on its own tensor
legs (``Matrix.kron_apply``), an identity passes the block through, and a
tensor applies its left factor on the leading legs and then its right factor
on the trailing ones.  No Kronecker product is formed: every intermediate
block has one sparse row per vector it started from, whatever the dimension
of the word it has reached.  Tensor words are flat (left-nested) so both sides
of a diagrammatic equation can be built verbatim and compared entry by
entry.  A small textual syntax for the CLI names the standard primitives
(ev, coev, evt, coevt, id, lamL, lamR, cL, cR, cSph); ``;`` composes in the
written operator order (the leftmost factor is applied last) and ``*``
tensors, binding tighter than ``;``.

Trees and parentheses nest at most ``MAX_EXPR_DEPTH`` levels, well inside
Python's recursion limit, and no word that a block or primitive reaches has
dimension above ``MAX_WORD_DIM`` (the builtin grids reach 27^4 for uqsl2:3 at
X = H).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .hmod import (
    HModule,
    Morphism,
    MorphismTypeError,
    dual_module,
    word_dim,
    word_label,
    words_match,
)
from .linalg import Matrix

__all__ = [
    "MorphismExpr",
    "Prim",
    "Ident",
    "Compose",
    "Tensor",
    "identity",
    "compose",
    "tensor",
    "evaluate",
    "evaluate_rows",
    "morphisms_equal",
    "ExprSyntaxError",
    "ExprEnv",
    "parse_expr",
]

MAX_EXPR_DEPTH = 100
MAX_WORD_DIM = 2 ** 20


class MorphismExpr:
    def source_word(self) -> tuple:
        raise NotImplementedError

    def target_word(self) -> tuple:
        raise NotImplementedError


@dataclass
class Prim(MorphismExpr):
    morphism: Morphism

    def source_word(self):
        return self.morphism.source

    def target_word(self):
        return self.morphism.target

    def __repr__(self):
        return f"prim({word_label(self.morphism.source)}->{word_label(self.morphism.target)})"


@dataclass
class Ident(MorphismExpr):
    word: tuple

    def __post_init__(self):
        if isinstance(self.word, HModule):
            self.word = (self.word,)
        self.word = tuple(self.word)

    def source_word(self):
        return self.word

    def target_word(self):
        return self.word

    def __repr__(self):
        return f"id({word_label(self.word)})"


@dataclass
class Compose(MorphismExpr):
    """f after g: evaluates to matrix(f) @ matrix(g)."""

    f: MorphismExpr
    g: MorphismExpr

    def source_word(self):
        return self.g.source_word()

    def target_word(self):
        return self.f.target_word()

    def __repr__(self):
        return f"({self.f!r} ; {self.g!r})"


@dataclass
class Tensor(MorphismExpr):
    f: MorphismExpr
    g: MorphismExpr

    def source_word(self):
        return self.f.source_word() + self.g.source_word()

    def target_word(self):
        return self.f.target_word() + self.g.target_word()

    def __repr__(self):
        return f"({self.f!r} * {self.g!r})"


def identity(word) -> Ident:
    return Ident(word)


def compose(*exprs: MorphismExpr) -> MorphismExpr:
    """compose(f, g, h) = f after g after h."""
    if not exprs:
        raise MorphismTypeError("compose needs at least one factor")
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Compose(e, out)
    return out


def tensor(*exprs: MorphismExpr) -> MorphismExpr:
    if not exprs:
        raise MorphismTypeError("tensor needs at least one factor")
    out = exprs[0]
    for e in exprs[1:]:
        out = Tensor(out, e)
    return out


def _field_of(expr: MorphismExpr):
    if isinstance(expr, Prim):
        return expr.morphism.matrix.field
    if isinstance(expr, Ident):
        return expr.word[0].H.field
    return _field_of(expr.f)


def _check_types(expr: MorphismExpr):
    """Type every node before any arithmetic."""
    if isinstance(expr, Prim):
        return
    if isinstance(expr, Ident):
        if not expr.word:
            raise MorphismTypeError("identity on the empty word needs context")
        return
    if not isinstance(expr, (Compose, Tensor)):
        raise MorphismTypeError(f"unknown expression node {expr!r}")
    _check_types(expr.f)
    _check_types(expr.g)
    if isinstance(expr, Compose) and \
            not words_match(expr.f.source_word(), expr.g.target_word()):
        raise MorphismTypeError(
            f"cannot compose: {expr.f!r} expects {word_label(expr.f.source_word())} "
            f"but {expr.g!r} produces {word_label(expr.g.target_word())}"
        )


def _check_depth(expr: MorphismExpr):
    """Bound the tree's depth without recursing, before the recursive passes."""
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_EXPR_DEPTH:
            raise MorphismTypeError(
                f"expression nests deeper than the bound of {MAX_EXPR_DEPTH} levels")
        if isinstance(node, (Compose, Tensor)):
            stack += [(node.f, depth + 1), (node.g, depth + 1)]


def _check_word_dim(dim: int, what: str):
    if dim > MAX_WORD_DIM:
        raise MorphismTypeError(
            f"{what} has dimension {dim}, above the bound of {MAX_WORD_DIM}")


def _apply(expr: MorphismExpr, block: Matrix, outer: int, inner: int) -> Matrix:
    """The rows of ``block``, vectors of ``outer ox source ox inner``, sent
    through ``I_outer ox matrix(expr) ox I_inner``, for a typed tree."""
    if isinstance(expr, Prim):
        _check_word_dim(outer * expr.morphism.matrix.nrows * inner,
                        f"the word reached by {expr!r}")
        return expr.morphism.matrix.kron_apply(block, outer, inner)
    if isinstance(expr, Ident):
        return block
    if isinstance(expr, Compose):
        return _apply(expr.f, _apply(expr.g, block, outer, inner), outer, inner)
    block = _apply(expr.f, block, outer, word_dim(expr.g.source_word()) * inner)
    return _apply(expr.g, block, outer * word_dim(expr.f.target_word()), inner)


def evaluate_rows(expr: MorphismExpr, vectors: Matrix | None = None) -> Matrix:
    """The images under an expression tree of the rows of ``vectors``, vectors
    of its source word, one row each; by default every basis vector, so the
    result is the transposed matrix of the composite.  Types are checked
    before any arithmetic."""
    _check_depth(expr)
    _check_types(expr)
    source = expr.source_word()
    _check_word_dim(word_dim(source), f"source word {word_label(source)}")
    if vectors is None:
        vectors = Matrix.identity(_field_of(expr), word_dim(source))
    return _apply(expr, vectors, 1, 1)


def evaluate(expr: MorphismExpr) -> Morphism:
    """Evaluate an expression tree to a single Morphism, checking types.

    The result is the exact matrix of the composite, decided on every column
    of its source word.
    """
    images = evaluate_rows(expr)
    return Morphism(expr.source_word(), expr.target_word(), images.transpose())


def morphisms_equal(f: Morphism, g: Morphism) -> bool:
    """Exact equality; requires identical source and target words."""
    if not words_match(f.source, g.source) or not words_match(f.target, g.target):
        raise MorphismTypeError(
            f"word mismatch: {word_label(f.source)}->{word_label(f.target)} vs "
            f"{word_label(g.source)}->{word_label(g.target)}"
        )
    return f.matrix == g.matrix


# -- textual expression syntax for the CLI -------------------------------------

class ExprSyntaxError(ValueError):
    pass


_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_]+|[();,*])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"bad character at position {pos}: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class ExprEnv:
    """Resolves module names, chromatic maps and named primitives for one
    algebra; the CLI resolves ``--modules`` and ``--side`` here too.

    Chromatic primitives (cL, cR, cSph) and lamL/lamR/alpha need the integral
    data of H, which is computed here first so its errors surface at
    construction; cSph additionally needs a pivot.
    """

    def __init__(self, H):
        from . import chromatic as _chromatic
        from . import hmod as _hmod
        from .integrals import normalized_pair

        normalized_pair(H)
        self.H = H
        self._hmod = _hmod
        self._chromatic = _chromatic

    @functools.cached_property
    def pivot(self):
        """The chosen pivot, or None when H is not spherical; an undecided
        search that found a pivot still chooses it, and one that found none
        propagates PivotSearchInconclusive, on every access."""
        from .integrals import is_spherical_hmod

        return is_spherical_hmod(self.H)[1]

    def chromatic(self, side: str) -> Morphism:
        """The ``left``, ``right`` or ``spherical`` chromatic map based at H;
        NotSphericalError when a spherical one is asked of a non-spherical H."""
        ch = self._chromatic
        if side == "left":
            return ch.chromatic_left_hopf(self.H)
        if side == "right":
            return ch.chromatic_right_hopf(self.H)
        if self.pivot is None:
            raise ch.NotSphericalError(f"{self.H.name} is not spherical")
        return ch.chromatic_spherical(self.H, self.pivot)

    def module(self, name: str) -> HModule:
        hm = self._hmod
        if name in ("H", "regular"):
            return hm.regular_module(self.H)
        if name in ("triv", "trivial", "1", "unit"):
            return hm.trivial_module(self.H)
        if name == "alpha":
            return hm.alpha_module(self.H)
        raise ExprSyntaxError(f"unknown module {name!r}")

    def primitive(self, name: str, mods: list[HModule]) -> MorphismExpr:
        """The named primitive.  A chromatic map is checked H-linear where it
        is built; an evaluation or Lambda-transformation is not checked, being
        a structure morphism, H-linear by the rule stated in ``hmod``."""
        hm = self._hmod
        if name == "id":
            return Ident(tuple(mods))
        sides = {"cL": "left", "cR": "right", "cSph": "spherical"}
        if name in sides:
            if mods:
                raise ExprSyntaxError(f"{name} takes no module")
            return Prim(self.chromatic(sides[name]))
        evaluations = {"ev": ("left", 0), "coev": ("left", 1),
                       "evt": ("right", 0), "coevt": ("right", 1)}
        if name in evaluations:
            if len(mods) != 1:
                raise ExprSyntaxError(f"{name} takes exactly one module")
            side, which = evaluations[name]
            mor = hm.evaluation_morphisms(mods[0], side)[which]
        elif name in ("lamL", "lamR"):
            _check_word_dim(word_dim(mods), f"{name} word {word_label(tuple(mods))}")
            side = "left" if name == "lamL" else "right"
            mor = hm.lambda_transform(self.H, tuple(mods), side)
        else:
            raise ExprSyntaxError(f"unknown primitive {name!r}")
        return Prim(mor)


class _Parser:
    def __init__(self, tokens: list[str], env: ExprEnv):
        self.tokens = tokens
        self.pos = 0
        self.env = env

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def eat(self, tok: str | None = None, what: str | None = None) -> str:
        """Consume ``tok`` (or any token, described by ``what``)."""
        if self.pos >= len(self.tokens):
            raise ExprSyntaxError(
                f"unexpected end of expression, wanted {what or repr(tok)}")
        cur = self.tokens[self.pos]
        if tok is not None and cur != tok:
            raise ExprSyntaxError(f"expected {tok!r}, got {cur!r}")
        self.pos += 1
        return cur

    def parse(self) -> MorphismExpr:
        expr = self.expr()
        if self.pos != len(self.tokens):
            raise ExprSyntaxError(f"trailing tokens: {self.tokens[self.pos:]}")
        return expr

    def expr(self) -> MorphismExpr:
        factors = [self.term()]
        while self.peek() == ";":
            self.eat(";")
            factors.append(self.term())
        return compose(*factors)

    def term(self) -> MorphismExpr:
        out = self.atom()
        while self.peek() == "*":
            self.eat("*")
            out = Tensor(out, self.atom())
        return out

    def atom(self) -> MorphismExpr:
        tok = self.peek()
        if tok == "(":
            self.eat("(")
            inner = self.expr()
            self.eat(")")
            return inner
        name = self.eat(what="a primitive name or '('")
        mods: list[HModule] = []
        if self.peek() == "(":
            self.eat("(")
            if self.peek() != ")":
                mods.append(self.module_expr("a module name or ')'"))
                while self.peek() == ",":
                    self.eat(",")
                    mods.append(self.module_expr())
            self.eat(")")
        return self.env.primitive(name, mods)

    def module_expr(self, what: str = "a module name") -> HModule:
        name = self.eat(what=what)
        if name in ("ld", "rd"):
            self.eat("(")
            inner = self.module_expr()
            self.eat(")")
            return dual_module(inner, "left" if name == "ld" else "right")
        return self.env.module(name)


def parse_expr(text: str, env: ExprEnv) -> MorphismExpr:
    """Parse the CLI expression syntax into a MorphismExpr."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    depth = 0
    for tok in tokens:  # the parser recurses once per open parenthesis
        depth += {"(": 1, ")": -1}.get(tok, 0)
        if depth > MAX_EXPR_DEPTH:
            raise ExprSyntaxError(
                f"parentheses nest deeper than the bound of {MAX_EXPR_DEPTH} levels")
    return _Parser(tokens, env).parse()
