"""Exact dense linear algebra over a Field: RREF, nullspace, solve, Kronecker.

``Matrix.kron`` builds a Kronecker product; ``Matrix.kron_apply`` applies one
without building it, as ``I kron A kron I`` on each row of a block ``B``
(``B @ (I kron A kron I)^T``).  Both use the same row-major flat indexing of
tensor legs.

Matrices have dense semantics (every entry addressable, shapes fixed) but are
held sparsely as one ``{col: payload}`` dict per row; only nonzero payloads
are stored.  All algorithms are field-exact and deterministic.  Elimination
inserts rows one at a time into a reduced echelon basis (``_Echelon``): a
row is reduced only at the pivot columns it holds, and empty rows cost
nothing.  The reduced row echelon form of a row space is unique, so R, the
rank and the pivot columns are those of column-by-column Gauss-Jordan
elimination, and nullspace bases are the canonical free-variable unit
vectors with back-substituted pivot coordinates: results are reproducible
byte for byte.
"""

from __future__ import annotations

from .fields import Field, FieldMismatchError

__all__ = [
    "Matrix",
    "LinAlgError",
    "ShapeError",
    "SingularMatrixError",
    "NoSolutionError",
    "sparse_sum",
    "stacked_nullspace",
]


class LinAlgError(ValueError):
    pass


class ShapeError(LinAlgError):
    pass


class SingularMatrixError(LinAlgError):
    pass


class NoSolutionError(LinAlgError):
    """The linear system has no solution."""


class Matrix:
    """Immutable exact matrix; rows stored as ``{col: nonzero payload}``."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows=None):
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative shape {nrows}x{ncols}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows if rows is not None else [dict() for _ in range(nrows)]

    # -- constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one
        return cls(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        """Dense nested sequences; entries are ints or canonical payloads."""
        data = []
        ncols = None
        for row in rows:
            row = [field.coerce(v) for v in row]
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ShapeError("ragged rows")
            data.append({j: v for j, v in enumerate(row) if v != field.zero})
        return cls(field, len(data), ncols if ncols is not None else 0, data)

    @classmethod
    def from_entries(cls, field: Field, nrows: int, ncols: int, entries) -> "Matrix":
        """Sparse dict ``{(i, j): value}``; zeros are dropped."""
        rows = [dict() for _ in range(nrows)]
        zero = field.zero
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ShapeError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            v = field.coerce(v)
            if v != zero:
                rows[i][j] = v
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        return cls.from_rows(field, columns).transpose()

    @classmethod
    def combination(cls, field: Field, nrows: int, ncols: int, terms) -> "Matrix":
        """``sum c * A`` over ``(c, A)`` terms, accumulated in one pass.

        Zero sums are dropped once, at the end, so the rows are canonical;
        a coefficient equal to one adds ``A`` without multiplying.
        """
        mul, add, zero, one = field.mul, field.add, field.zero, field.one
        rows = [{} for _ in range(nrows)]
        for c, a in terms:
            if a.field != field:
                raise FieldMismatchError(f"mixed fields {field.spec} and {a.field.spec}")
            if a.shape != (nrows, ncols):
                raise ShapeError(f"combination of {a.shape} into {nrows}x{ncols}")
            unit = c == one
            for acc, arow in zip(rows, a._rows):
                for j, v in arow.items():
                    if not unit:
                        v = mul(c, v)
                    acc[j] = add(acc[j], v) if j in acc else v
        return cls(field, nrows, ncols,
                   [{j: v for j, v in r.items() if v != zero} for r in rows])

    # -- accessors -----------------------------------------------------------
    def entry(self, i: int, j: int):
        return self._rows[i].get(j, self.field.zero)

    def row_list(self, i: int) -> list:
        zero = self.field.zero
        row = self._rows[i]
        return [row.get(j, zero) for j in range(self.ncols)]

    def col_list(self, j: int) -> list:
        zero = self.field.zero
        return [row.get(j, zero) for row in self._rows]

    def dense(self) -> list[list]:
        return [self.row_list(i) for i in range(self.nrows)]

    def nonzero_items(self):
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                yield i, j, v

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    __hash__ = None  # mutable-style container: unhashable

    def __repr__(self) -> str:
        return f"Matrix({self.field.spec}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"

    def first_difference(self, other: "Matrix"):
        """Coordinates and values of the first differing entry, or None."""
        self._check_peer(other)
        if self.shape != other.shape:
            raise ShapeError(f"shape {self.shape} vs {other.shape}")
        for i in range(self.nrows):
            a, b = self._rows[i], other._rows[i]
            if a == b:
                continue
            for j in sorted(set(a) | set(b)):
                if a.get(j, self.field.zero) != b.get(j, self.field.zero):
                    return i, j, self.entry(i, j), other.entry(i, j)
        return None

    # -- arithmetic ----------------------------------------------------------
    def _check_peer(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"mixed fields {self.field.spec} and {other.field.spec}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        one = self.field.one
        return Matrix.combination(self.field, self.nrows, self.ncols,
                                  ((one, self), (one, other)))

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        rows = [{j: neg(v) for j, v in row.items()} for row in self._rows]
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix.combination(f, self.nrows, self.ncols,
                                  ((f.one, self), (f.neg(f.one), other)))

    def scale(self, s) -> "Matrix":
        f = self.field
        s = f.coerce(s)
        if s == f.zero:
            return Matrix.zeros(f, self.nrows, self.ncols)
        mul = f.mul
        rows = [{j: mul(s, v) for j, v in row.items()} for row in self._rows]
        return Matrix(f, self.nrows, self.ncols, rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_peer(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"matmul {self.shape} by {other.shape}")
        f = self.field
        mul, add, zero = f.mul, f.add, f.zero
        orows = other._rows
        rows = []
        for arow in self._rows:
            acc: dict = {}
            for k, a in arow.items():
                brow = orows[k]
                for j, b in brow.items():
                    v = mul(a, b)
                    if j in acc:
                        s = add(acc[j], v)
                        if s == zero:
                            del acc[j]
                        else:
                            acc[j] = s
                    elif v != zero:
                        acc[j] = v
            rows.append(acc)
        return Matrix(f, self.nrows, other.ncols, rows)

    def apply(self, vector: list) -> list:
        """Matrix-vector product on a dense payload list."""
        if len(vector) != self.ncols:
            raise ShapeError(f"apply {self.shape} to vector of length {len(vector)}")
        f = self.field
        out = []
        for row in self._rows:
            acc = f.zero
            for j, v in row.items():
                x = vector[j]
                if x != f.zero:
                    acc = f.add(acc, f.mul(v, x))
            out.append(acc)
        return out

    def transpose(self) -> "Matrix":
        rows = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                rows[j][i] = v
        return Matrix(self.field, self.ncols, self.nrows, rows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product with row-major flat indexing.

        ``(A kron B)[i*rB + k, j*cB + l] = A[i,j] * B[k,l]``; associative up
        to the flat index identification.
        """
        self._check_peer(other)
        f = self.field
        mul = f.mul
        rb, cb = other.nrows, other.ncols
        rows = [dict() for _ in range(self.nrows * rb)]
        for i, arow in enumerate(self._rows):
            if not arow:
                continue
            base_i = i * rb
            for k, brow in enumerate(other._rows):
                if not brow:
                    continue
                out = rows[base_i + k]
                for j, a in arow.items():
                    base_j = j * cb
                    for l, b in brow.items():
                        out[base_j + l] = mul(a, b)
        return Matrix(f, self.nrows * rb, self.ncols * cb, rows)

    def kron_apply(self, block: "Matrix", outer: int, inner: int) -> "Matrix":
        """Each row of ``block`` sent through ``I_outer kron self kron I_inner``,
        never forming the product: ``block @ (I_outer kron self kron I_inner)^T``.

        Entry ``(o*ncols + k)*inner + t`` of a row adds ``self[i, k]`` times
        itself to entry ``(o*nrows + i)*inner + t`` of its image: the same
        row-major flat indexing as :meth:`kron`.  A block holds one sparse row
        per vector, so time and memory follow nnz(block), not the side of the
        Kronecker product.
        """
        self._check_peer(block)
        ra, ca = self.nrows, self.ncols
        if block.ncols != outer * ca * inner:
            raise ShapeError(
                f"kron_apply of {self.shape} between I_{outer} and I_{inner} "
                f"to the rows of {block.shape}")
        f = self.field
        mul, add, zero = f.mul, f.add, f.zero
        by_col = [[] for _ in range(ca)]  # k -> [(i * inner, self[i, k])]
        for i, arow in enumerate(self._rows):
            for k, a in arow.items():
                by_col[k].append((i * inner, a))
        src_stride, dst_stride = ca * inner, ra * inner
        rows = []
        for brow in block._rows:
            acc: dict = {}
            for r, b in brow.items():
                o, rest = divmod(r, src_stride)
                k, t = divmod(rest, inner)
                base = o * dst_stride + t
                for di, a in by_col[k]:
                    j, v = base + di, mul(a, b)
                    acc[j] = add(acc[j], v) if j in acc else v
            rows.append({j: v for j, v in acc.items() if v != zero})
        return Matrix(f, block.nrows, outer * dst_stride, rows)

    # -- elimination ---------------------------------------------------------
    def rref(self):
        """Reduced row echelon form: ``(R, rank, pivot_columns)``, the rows
        inserted one by one into an :class:`_Echelon`."""
        ech = _Echelon(self.field, self.ncols)
        for row in self._rows:
            ech.insert(row)
        pivots = sorted(ech.rows)
        rows = [ech.rows[c] for c in pivots] + [{} for _ in range(self.nrows - len(pivots))]
        return Matrix(self.field, self.nrows, self.ncols, rows), len(pivots), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> "Matrix":
        """Columns form the canonical basis of ``{v : Av = 0}``: one per free
        column j, 1 at j and minus column j of R at the pivots."""
        f = self.field
        R, _, pivots = self.rref()
        pivot_set = set(pivots)
        slot = {j: t for t, j in enumerate(j for j in range(self.ncols) if j not in pivot_set)}
        rows = [{} for _ in range(self.ncols)]
        for j, t in slot.items():
            rows[j][t] = f.one
        for pc, prow in zip(pivots, R._rows):
            for j, v in prow.items():
                if j != pc:
                    rows[pc][slot[j]] = f.neg(v)
        return Matrix(f, self.ncols, len(slot), rows)

    def solve(self, b: list) -> list:
        """One exact solution of ``Ax = b`` with free variables set to zero."""
        return self.solve_matrix(Matrix.from_columns(self.field, [b])).col_list(0)

    def solve_matrix(self, Bmat: "Matrix") -> "Matrix":
        """Exact X with ``A X = B`` (free variables zero, per column)."""
        self._check_peer(Bmat)
        if Bmat.nrows != self.nrows:
            raise ShapeError(f"solve {self.shape} against {Bmat.shape}")
        f = self.field
        aug_rows = [dict(r) for r in self._rows]
        for i, row in enumerate(Bmat._rows):
            for j, v in row.items():
                aug_rows[i][self.ncols + j] = v
        aug = Matrix(f, self.nrows, self.ncols + Bmat.ncols, aug_rows)
        R, rank, pivots = aug.rref()
        if any(pc >= self.ncols for pc in pivots):
            raise NoSolutionError("no solution")
        out = [dict() for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for j, v in R._rows[r].items():
                if j >= self.ncols:
                    out[pc][j - self.ncols] = v
        return Matrix(f, self.ncols, Bmat.ncols, out)

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrixError when rank deficient.

        ``[A | I]`` has rank n, so a pivot lands in the ``I`` block, and
        ``A X = I`` has no solution, exactly when ``A`` is singular.
        """
        if self.nrows != self.ncols:
            raise ShapeError(f"inverse of non-square {self.shape}")
        try:
            return self.solve_matrix(Matrix.identity(self.field, self.nrows))
        except NoSolutionError:
            raise SingularMatrixError("singular matrix") from None


def _subtract(field: Field, r: dict, factor, row: dict):
    """``r -= factor * row`` in place, dropping the entries that vanish."""
    sub, mul, zero = field.sub, field.mul, field.zero
    for j, v in row.items():
        t = sub(r.get(j, zero), mul(factor, v))
        if t == zero:
            r.pop(j, None)
        else:
            r[j] = t


class _Echelon:
    """A row space kept in reduced echelon form as rows are inserted.

    ``rows`` maps each pivot column to its row, which holds 1 there and 0 at
    every other pivot.  A new row is reduced only at the pivots it holds; if
    it is left nonzero, it is scaled to 1 at its first column, which becomes
    a pivot cleared from the kept rows.  Each kept row then leads with its
    pivot, so sorted by pivot they are the reduced row echelon form of the
    rows inserted, in any order: that form is unique.  The rows a caller
    passes in are never modified.
    """

    def __init__(self, field: Field, ncols: int):
        self.field, self.ncols, self.rows = field, ncols, {}

    def full(self) -> bool:
        return len(self.rows) == self.ncols

    def reduce(self, row: dict) -> dict:
        """``row`` minus its multiples of the kept rows, zero at every pivot;
        ``row`` itself when it holds no pivot."""
        hits = [c for c in row if c in self.rows]
        r = dict(row) if hits else row
        for c in hits:  # the kept rows are 0 at each other's pivots
            _subtract(self.field, r, r[c], self.rows[c])
        return r

    def insert(self, row: dict) -> bool:
        """Add ``row`` to the space; True when it raised the rank.  Once the
        rank is ``ncols`` every row is in the space and is not looked at."""
        if not row or self.full():
            return False
        r = self.reduce(row)
        if not r:
            return False
        f, col = self.field, min(r)
        if r[col] != f.one:
            c = f.inv(r[col])
            r = {j: f.mul(c, v) for j, v in r.items()}
        elif r is row:
            r = dict(row)
        for prow in self.rows.values():
            if col in prow:
                _subtract(f, prow, prow[col], r)
        self.rows[col] = r
        return True


def stacked_nullspace(blocks: list[Matrix]) -> Matrix:
    """Nullspace of the blocks stacked row-wise: the common kernel.  The
    blocks' rows are stacked as they are; ``rref`` copies only the rows it
    keeps."""
    rows = [r for b in blocks for r in b._rows]
    return Matrix(blocks[0].field, len(rows), blocks[0].ncols, rows).nullspace()


def sparse_sum(field: Field, terms) -> dict:
    """Sum ``(key, value)`` terms over repeated keys: ``{key: sum}`` in
    first-seen key order, without the keys whose sum is zero.  A key's first
    value is stored as given, so a key seen once costs no ``add``."""
    add = field.add
    acc: dict = {}
    for key, v in terms:
        acc[key] = add(acc[key], v) if key in acc else v
    zero = field.zero
    return {key: v for key, v in acc.items() if v != zero}
