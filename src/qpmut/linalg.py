"""Exact linear algebra over a field.

Matrices are stored dense, and rows/columns may be zero-sized.  Elimination
works on each row's nonzeros only, and returns the reduced row echelon form,
which is unique: every answer is read off one RREF, so every basis, retraction
and quotient produced here is deterministic whatever the elimination order.
The complement of a subspace is spanned by the standard basis vectors at the
pivot columns of [basis | I] past the basis itself.
"""

from __future__ import annotations

from .errors import NotInvertibleError, ShapeError
from .fields import Field


class Mat:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list]):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ShapeError("ragged rows")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero
        m = Mat(field, [[z] * cols for _ in range(rows)])
        m.cols = cols  # a 0-row matrix keeps its column count
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        m = Mat.zero(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @staticmethod
    def from_int_rows(field: Field, rows: list[list[int]]) -> "Mat":
        return Mat(field, [[field.of(x) for x in r] for r in rows])

    @staticmethod
    def column(field: Field, entries: list) -> "Mat":
        return Mat(field, [[e] for e in entries])

    # -- basics -------------------------------------------------------
    def copy(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, self.cols)
        return Mat(self.field, [r[:] for r in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Mat[{body}]"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add shape mismatch")
        if self.rows == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, self.cols)
        return Mat(
            self.field,
            [[a + b if b else a for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, self.cols)
        return Mat(self.field, [[-x for x in r] for r in self.data])

    def scale(self, c) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, self.cols)
        return Mat(self.field, [[c * x if x else x for x in r] for r in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, other.cols)
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = row[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return Mat(self.field, out)

    @property
    def T(self) -> "Mat":
        if self.cols == 0 or self.rows == 0:
            return Mat.zero(self.field, self.cols, self.rows)
        return Mat(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def col(self, j: int) -> "Mat":
        if self.rows == 0:
            return Mat.zero(self.field, 0, 1)
        return Mat(self.field, [[self.data[i][j]] for i in range(self.rows)])

    def take_cols(self, idx: list[int]) -> "Mat":
        if self.rows == 0 or not idx:
            return Mat.zero(self.field, self.rows, len(idx))
        return Mat(self.field, [[r[j] for j in idx] for r in self.data])

    def take_rows(self, idx: list[int]) -> "Mat":
        if not idx or self.cols == 0:
            return Mat.zero(self.field, len(idx), self.cols)
        return Mat(self.field, [self.data[i][:] for i in idx])

    # -- elimination ---------------------------------------------------
    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and pivot column indices.

        Rows are eliminated as ``{col: value}`` dicts of their nonzeros: each
        pivot step touches only the rows with a nonzero in the pivot column,
        and in them only the pivot row's nonzero columns."""
        if self.rows == 0 or self.cols == 0:
            return Mat.zero(self.field, self.rows, self.cols), []
        rest = [d for d in ({j: x for j, x in enumerate(r) if x} for r in self.data) if d]
        done: list[dict] = []
        pivots: list[int] = []
        for col in range(self.cols):
            if not rest:
                break
            hits = [i for i, r in enumerate(rest) if col in r]
            if not hits:
                continue
            # the sparsest candidate as pivot row creates the least fill-in
            prow = rest.pop(min(hits, key=lambda i: len(rest[i])))
            inv = self.field.inv(prow[col])
            prow = {j: x * inv for j, x in prow.items()}
            for r in done + rest:
                f = r.get(col)
                if f is None:
                    continue
                for j, y in prow.items():
                    x = r.get(j)
                    x = -f * y if x is None else x - f * y
                    if x:
                        r[j] = x
                    else:
                        del r[j]
            done.append(prow)
            pivots.append(col)
        out = Mat.zero(self.field, self.rows, self.cols)
        for orow, r in zip(out.data, done):
            for j, x in r.items():
                orow[j] = x
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the null space (deterministic)."""
        return kernel_from_rref(*self.rref())

    def image_basis(self) -> "Mat":
        """Columns: the pivot columns of the original matrix."""
        _, pivots = self.rref()
        return self.take_cols(pivots)

    def solve(self, b: "Mat") -> "Mat" | None:
        """X with self @ X = b, or None if inconsistent (any solution)."""
        if b.rows != self.rows:
            raise ShapeError("solve shape mismatch")
        aug = Mat(self.field, [self.data[i] + b.data[i] for i in range(self.rows)]) \
            if self.rows else Mat.zero(self.field, 0, self.cols + b.cols)
        R, pivots = aug.rref()
        pivots_in_a = [p for p in pivots if p < self.cols]
        if len(pivots_in_a) != len(pivots):
            return None
        out = Mat.zero(self.field, self.cols, b.cols)
        for r, pc in enumerate(pivots_in_a):
            for j in range(b.cols):
                out.data[pc][j] = R.data[r][self.cols + j]
        return out

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        x = self.solve(Mat.identity(self.field, self.rows))
        if x is None or (self @ x) != Mat.identity(self.field, self.rows):
            raise NotInvertibleError("matrix is singular")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def kernel_from_rref(R: Mat, pivots: list[int]) -> Mat:
    """Null-space basis of any matrix whose RREF is (R, pivots): one column
    per free index j, with 1 at j and -R[row][j] at each pivot column."""
    field = R.field
    pivot_set = set(pivots)
    free = [j for j in range(R.cols) if j not in pivot_set]
    out = Mat.zero(field, R.cols, len(free))
    for c, j in enumerate(free):
        out.data[j][c] = field.one
        for row, pc in enumerate(pivots):
            out.data[pc][c] = -R.data[row][j]
    return out


# -- block assembly ----------------------------------------------------
def hstack(field: Field, mats: list[Mat], rows: int | None = None) -> Mat:
    mats = [m for m in mats]
    if not mats:
        if rows is None:
            raise ShapeError("hstack of nothing needs an explicit row count")
        return Mat.zero(field, rows, 0)
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise ShapeError("hstack row mismatch")
    total = sum(m.cols for m in mats)
    if r == 0 or total == 0:
        return Mat.zero(field, r, total)
    return Mat(field, [sum((m.data[i] for m in mats), []) for i in range(r)])


def vstack(field: Field, mats: list[Mat], cols: int | None = None) -> Mat:
    mats = [m for m in mats]
    if not mats:
        if cols is None:
            raise ShapeError("vstack of nothing needs an explicit column count")
        return Mat.zero(field, 0, cols)
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise ShapeError("vstack column mismatch")
    total = sum(m.rows for m in mats)
    if total == 0 or c == 0:
        return Mat.zero(field, total, c)
    return Mat(field, [r[:] for m in mats for r in m.data])


def block_matrix(field: Field, grid: list[list[Mat]]) -> Mat:
    return vstack(field, [hstack(field, row) for row in grid])


def block_diag(field: Field, mats: list[Mat]) -> Mat:
    """The block-diagonal matrix with ``mats`` along the diagonal, in order."""
    out = Mat.zero(field, sum(m.rows for m in mats), sum(m.cols for m in mats))
    ro = co = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out.data[ro + i][co:co + m.cols] = row
        ro += m.rows
        co += m.cols
    return out


# -- subspaces ---------------------------------------------------------
def independent_columns(m: Mat) -> Mat:
    return m.image_basis()


def subspace_package(basis: Mat):
    """For a subspace U <= k^n given by an independent-column basis, return

    (retraction, proj, section):
      retraction : U-coords of the U-component, retraction @ basis = I
      proj       : coordinates on the quotient k^n / U
      section    : coset representatives, proj @ section = I, proj @ basis = 0

    Everything is read off one RREF of [basis | I]: the complement is spanned
    by the standard basis vectors at its pivot columns past the first r, and
    the right-hand block is [basis | section]^-1, whose first r rows are the
    retraction and whose remaining rows are proj.
    """
    field = basis.field
    n = basis.rows
    r = basis.cols
    R, pivots = hstack(field, [basis, Mat.identity(field, n)], rows=n).rref()
    if pivots[:r] != list(range(r)):
        raise ShapeError("basis columns are dependent")
    section = Mat.identity(field, n).take_cols([p - r for p in pivots[r:]])
    inv = R.take_cols(list(range(r, r + n)))
    retraction = inv.take_rows(list(range(r)))
    proj = inv.take_rows(list(range(r, n)))
    return retraction, proj, section


def coords_in(basis: Mat, vectors: Mat) -> Mat:
    """Coordinates of ``vectors`` in ``basis``; ShapeError if not contained."""
    x = basis.solve(vectors)
    if x is None or (basis @ x) != vectors:
        raise ShapeError("vectors do not lie in the span of the basis")
    return x


def intersect_column_spaces(u: Mat, v: Mat) -> Mat:
    """Basis of col(u) & col(v), via the kernel of [u | -v]."""
    if u.rows != v.rows:
        raise ShapeError("ambient dimension mismatch")
    field = u.field
    if u.cols == 0 or v.cols == 0:
        return Mat.zero(field, u.rows, 0)
    k = hstack(field, [u, -v]).kernel_basis()
    top = k.take_rows(list(range(u.cols)))
    return independent_columns(u @ top)
