"""Exact linear algebra over a field.

A matrix stores ``{i: {j: x}}``, only its nonempty rows, each a dict of its
nonzeros, in ascending row order, with an explicit shape.  No zero and no
empty row is stored, and a row dict is never changed once its matrix is
built, so matrices share rows.  Every operation visits the stored rows only,
so it costs the nonzeros it reads and writes, never rows x columns: a zero
matrix of any shape is an empty dict, built, compared, added, multiplied and
transposed in O(1).  ``take_rows`` and ``take_cols`` also cost their index
lists, ``T``, ``+`` and ``hstack`` the sort of the rows they make, and a
kernel basis the columns it has (it is the identity at the free columns).
Only this module sees the dicts; ``nonzeros()`` yields ``(i, j, x)`` for
every nonzero to other modules.  Every elimination in the package inserts
rows into one kernel, an ``Echelon``: a new row is cleared at the stored
pivots it meets, so insertion costs the entries the rows meet, not the
matrix's shape.  Rank, spans and the splitting's pivot normal form read the
echelon as it is; ``rref`` inserts its rows sparsest first and then
back-substitutes.  The normal form's inverses, L^-1 of the splitting, are
two ``inverse`` calls, each checked by its product.  The reduced row echelon
form is unique: every answer is read off one RREF, so every basis,
retraction and quotient produced here is deterministic whatever the
elimination order.  A kernel
basis comes with its retraction: the basis is the identity at the free
columns, so the identity's rows at those columns give the coordinates of any
kernel vector.  The complement of a subspace is spanned by the standard
basis vectors at the coordinates where none of its vectors has its last
nonzero entry, read off one echelon of any spanning set of it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice

from .errors import NotInvertibleError, ShapeError
from .fields import Field


class Mat:
    __slots__ = ("field", "rows", "cols", "_nz")

    def __init__(self, field: Field, data):
        """The matrix with the nested rows ``data``; an empty list is 0x0."""
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ShapeError("ragged rows")
        self.field, self.rows, self.cols = field, len(data), cols
        self._nz = {i: s for i, r in enumerate(data) if (s := {j: x for j, x in enumerate(r) if x})}

    @staticmethod
    def _of(field: Field, nz: dict, rows: int, cols: int) -> "Mat":
        """Wrap a row table that holds no zero and no empty row, in ascending
        row order, whose rows are not changed afterwards."""
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols, m._nz = field, rows, cols, nz
        return m

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(field: Field, rows: list[dict], cols: int) -> "Mat":
        """The matrix whose row i has the entries ``rows[i]`` ({col: x});
        zero values are dropped and the dicts are not kept."""
        nz = {i: s for i, r in enumerate(rows) if (s := {j: x for j, x in r.items() if x})}
        if any(not 0 <= j < cols for r in nz.values() for j in r):
            raise ShapeError("column index out of range")
        return Mat._of(field, nz, len(rows), cols)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Mat":
        return Mat._of(field, {}, rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        one = field.one
        return Mat._of(field, {i: {i: one} for i in range(n)}, n, n)

    @staticmethod
    def unit_columns(field: Field, n: int, idx: list[int]) -> "Mat":
        """The identity's columns ``idx`` (ascending, in range(n)): column c
        is e_idx[c].  Built from its len(idx) nonzero rows."""
        one = field.one
        return Mat._of(field, {j: {c: one} for c, j in enumerate(idx)}, n, len(idx))

    # -- reads --------------------------------------------------------
    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError("entry index out of range")
        return (self._nz.get(i) or {}).get(j, self.field.zero)

    @property
    def data(self) -> tuple[tuple, ...]:
        """Row-major read-only view: a tuple of rows, each a tuple of all
        ``cols`` entries."""
        out = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for i, r in self._nz.items():
            for j, x in r.items():
                out[i][j] = x
        return tuple(map(tuple, out))

    def nonzeros(self):
        """Yield ``(i, j, x)`` for each nonzero x at row i, column j, row by
        row in ascending row order."""
        for i, r in self._nz.items():
            for j, x in r.items():
                yield i, j, x

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.rows == self.rows
            and other.cols == self.cols
            and other._nz == self._nz
        )

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Mat[{body}]"

    def is_zero(self) -> bool:
        return not self._nz

    def is_identity(self) -> bool:
        one = self.field.one
        return self.rows == self.cols == len(self._nz) and all(r == {i: one} for i, r in self._nz.items())

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add shape mismatch")
        left, right = self._nz, other._nz
        if not right:
            return self
        if not left:
            return other
        out = {}
        for i in sorted(left.keys() | right.keys()):
            a, b = left.get(i), right.get(i)
            if a is None or b is None:
                out[i] = a or b
                continue
            r = dict(a)
            for j, y in b.items():
                x = r.get(j)
                x = y if x is None else x + y
                if x:
                    r[j] = x
                else:
                    del r[j]
            if r:
                out[i] = r
        return Mat._of(self.field, out, self.rows, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        out = {i: {j: -x for j, x in r.items()} for i, r in self._nz.items()}
        return Mat._of(self.field, out, self.rows, self.cols)

    def scale(self, c) -> "Mat":
        if not c:
            return Mat.zero(self.field, self.rows, self.cols)
        if c == self.field.one:
            return self
        out = {i: {j: c * x for j, x in r.items()} for i, r in self._nz.items()}
        return Mat._of(self.field, out, self.rows, self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Each stored left row's nonzeros pick the stored right rows whose
        nonzeros they combine."""
        if self.cols != other.rows:
            raise ShapeError(f"matmul {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other._nz
        out = {i: s for i, row in self._nz.items() if (s := _times(row, right))}
        return Mat._of(self.field, out, self.rows, other.cols)

    @property
    def T(self) -> "Mat":
        out: dict[int, dict] = {}
        for i, r in self._nz.items():
            for j, x in r.items():
                out.setdefault(j, {})[i] = x
        return Mat._of(self.field, dict(sorted(out.items())), self.cols, self.rows)

    def take_cols(self, idx: list[int]) -> "Mat":
        """The columns ``idx`` (distinct), in that order."""
        new = {j: c for c, j in enumerate(idx)}
        if len(new) != len(idx) or any(not 0 <= j < self.cols for j in new):
            raise ShapeError("take_cols needs distinct column indices in range")
        out = {i: s for i, r in self._nz.items() if (s := {new[j]: x for j, x in r.items() if j in new})}
        return Mat._of(self.field, out, self.rows, len(idx))

    def take_rows(self, idx: list[int]) -> "Mat":
        if any(not 0 <= i < self.rows for i in idx):
            raise ShapeError("take_rows needs row indices in range")
        nz = self._nz
        return Mat._of(self.field, {c: nz[i] for c, i in enumerate(idx) if i in nz}, len(idx), self.cols)

    # -- elimination ---------------------------------------------------
    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and pivot column indices: the rows,
        sparsest first, inserted into an echelon, then back-substituted."""
        return Echelon(self.field).add(self).reduced(self.rows, self.cols)

    def rank(self) -> int:
        return len(Echelon(self.field).add(self))

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the null space (deterministic)."""
        return kernel_from_rref(*self.rref())[0]

    def solve(self, b: "Mat") -> "Mat" | None:
        """X with self @ X = b, or None if inconsistent (any solution)."""
        if b.rows != self.rows:
            raise ShapeError("solve shape mismatch")
        n = self.cols
        R, pivots = hstack(self.field, [self, b], rows=self.rows).rref()
        if pivots and pivots[-1] >= n:
            return None
        out = {pc: s for r, pc in zip(R._nz.values(), pivots) if (s := {j - n: x for j, x in r.items() if j >= n})}
        return Mat._of(self.field, out, n, b.cols)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        x = self.solve(Mat.identity(self.field, self.rows))
        if x is None or not (self @ x).is_identity():
            raise NotInvertibleError("matrix is singular")
        return x

    def is_invertible(self) -> bool:
        """Square and of full rank.  A square matrix with an empty row is
        singular, and a monomial one (one nonzero per row, in distinct
        columns; 0x0 and identities too) invertible, without elimination."""
        nz = self._nz
        if self.rows != self.cols or len(nz) != self.rows:
            return False
        if sum(map(len, nz.values())) == self.rows == len({j for r in nz.values() for j in r}):
            return True
        return self.rank() == self.rows


def _times(row: dict, right: dict) -> dict:
    """The row vector ``row`` times the matrix whose row table is ``right``:
    each nonzero of ``row`` picks a stored row of ``right``."""
    acc: dict = {}
    summed = False  # a product of nonzeros is nonzero; only a sum can cancel
    for k, a in row.items():
        if k not in right:
            continue
        for j, y in right[k].items():
            x = acc.get(j)
            if x is None:
                acc[j] = a * y
            else:
                acc[j], summed = x + a * y, True
    return {j: x for j, x in acc.items() if x} if summed else acc


class Echelon:
    """The one elimination kernel: a row echelon form that rows are inserted
    into.  Rank and spans read it as it is; ``reduced`` back-substitutes.

    ``_piv`` maps each pivot column, in insertion order, to its row, whose
    least column is that pivot, with a one there; each row is zero at the
    pivots stored before it.  No stored row is changed, so a matrix row that
    insertion leaves as it is is stored itself, and ``span`` shares them."""

    __slots__ = ("field", "one", "inv", "_piv")

    def __init__(self, field: Field):
        self.field, self.one, self.inv = field, field.one, field.inv
        self._piv: dict[int, dict] = {}

    def __len__(self) -> int:
        return len(self._piv)

    def insert(self, row: dict) -> None:
        """Clear the row at the stored pivots, least column first, and store
        what is left, if anything, scaled to a one at its lead."""
        piv = self._piv
        if not piv.keys().isdisjoint(row):
            hits = [j for j in row if j in piv]
            row = dict(row)  # the first change copies
            heapify(hits)
            while hits:
                j = heappop(hits)
                f = row.get(j)
                if f is None:  # it cancelled, or was pushed twice
                    continue
                # the pivot row's one at j clears j; fill-in lands right of j
                for k, y in piv[j].items():
                    x = row.get(k)
                    if x is None:
                        row[k] = -f * y
                        if k in piv:
                            heappush(hits, k)
                    elif x := x - f * y:
                        row[k] = x
                    else:
                        del row[k]
        if not row:
            return
        lead = min(row)
        if (c := row[lead]) != self.one:
            c = self.inv(c)
            row = {k: x * c for k, x in row.items()}
            row[lead] = self.one
        piv[lead] = row

    def add(self, m: "Mat") -> "Echelon":
        """Insert the rows of m, sparsest first."""
        for row in sorted(m._nz.values(), key=len):
            self.insert(row)
        return self

    def add_images(self, src: "Echelon", m: "Mat", start: int = 0) -> None:
        """Insert r @ m for each row r of ``src`` from its ``start``-th on."""
        right = m._nz
        for row in islice(src._piv.values(), start, None):
            if image := _times(row, right):
                self.insert(image)

    def span(self, cols: int) -> "Mat":
        """The stored rows, in insertion order, as a matrix with ``cols``
        columns; no row is copied."""
        return Mat._of(self.field, dict(enumerate(self._piv.values())), len(self._piv), cols)

    def reduced(self, rows: int, cols: int) -> tuple["Mat", list[int]]:
        """The RREF, as a rows x cols matrix, and its pivot columns.  Each
        pivot is cleared from the rows nonzero there, found by an index,
        last pivot first: the pivot row is then zero at every later pivot,
        so fill-in lands only at free columns and the index never grows."""
        piv = self._piv
        out = dict(piv)
        where: dict[int, list[int]] = {}
        for p, row in piv.items():
            for k in row:
                if k != p and k in piv:
                    where.setdefault(k, []).append(p)
        for p in sorted(where, reverse=True):
            src = out[p]
            for q in where[p]:
                row = out[q]
                if row is piv[q]:
                    row = out[q] = dict(row)
                f = row[p]
                for k, y in src.items():  # the one at p clears p
                    x = row.get(k)
                    if x is None:
                        row[k] = -f * y
                    elif x := x - f * y:
                        row[k] = x
                    else:
                        del row[k]
        pivots = sorted(piv)
        return Mat._of(self.field, {c: out[p] for c, p in enumerate(pivots)}, rows, cols), pivots


def pivot_normal_form(c: Mat):
    """(X, Y, X^-1, Y^-1, pivots): invertible X, Y with X @ c @ Y a single
    one at each pivot (i, j) and zero elsewhere, the pivots in row order.

    The rows of [c | J], J the identity with its columns reversed, are
    inserted in order, so row i is stored as [D_i | X_i], D = X @ c: row i
    plus the one combination of the rows above it that is zero at their
    pivots, unique whatever the elimination.  It leads at its pivot column
    j_i < c.cols, or else, D_i being zero, at its own column of J, which no
    other stored row touches.  Y^-1 is the identity with row j_i replaced by
    D_i; X^-1 and Y are ``inverse`` calls, each checked by its product."""
    fld, m, n, nz = c.field, c.rows, c.cols, c._nz
    ech = Echelon(fld)
    for i in range(m):
        ech.insert({**nz.get(i, {}), n + m - 1 - i: fld.one})
    x, d, pivots = {}, {}, []
    for i, (lead, row) in enumerate(ech._piv.items()):
        x[i] = {n + m - 1 - k: v for k, v in row.items() if k >= n}
        if lead < n:
            pivots.append((i, lead))
            d[lead] = {k: v for k, v in row.items() if k < n}
    x = Mat._of(fld, x, m, m)
    y_inv = Mat._of(fld, Mat.identity(fld, n)._nz | d, n, n)
    return x, y_inv.inverse(), x.inverse(), y_inv, pivots


def kernel_from_rref(R: Mat, pivots: list[int]) -> tuple[Mat, Mat]:
    """(basis, retraction) of the null space of any matrix whose RREF is
    (R, pivots).  The basis has one column per free index j, with 1 at j and
    -R[row][j] at each pivot column; the retraction keeps the free entries
    of a kernel vector, so retraction @ basis = I and it is zero at the
    pivot columns."""
    one = R.field.one
    pivot_rows = dict(zip(pivots, R._nz.values()))
    free = {j: c for c, j in enumerate(j for j in range(R.cols) if j not in pivot_rows)}
    out = {j: s for j in range(R.cols)
           if (s := {free[j]: one} if j in free else {free[k]: -x for k, x in pivot_rows[j].items() if k != j})}
    retraction = Mat._of(R.field, {c: {j: one} for j, c in free.items()}, len(free), R.cols)
    return Mat._of(R.field, out, R.cols, len(free)), retraction


# -- block assembly ----------------------------------------------------
def hstack(field: Field, mats: list[Mat], rows: int | None = None) -> Mat:
    if not mats:
        if rows is None:
            raise ShapeError("hstack of nothing needs an explicit row count")
        return Mat.zero(field, rows, 0)
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise ShapeError("hstack row mismatch")
    out: dict[int, dict] = {}
    total = 0
    for m in mats:
        for i, row in m._nz.items():
            acc = out.setdefault(i, {})
            for j, x in row.items():
                acc[total + j] = x
        total += m.cols
    return Mat._of(field, dict(sorted(out.items())), r, total)


def vstack(field: Field, mats: list[Mat], cols: int | None = None) -> Mat:
    if not mats:
        if cols is None:
            raise ShapeError("vstack of nothing needs an explicit column count")
        return Mat.zero(field, 0, cols)
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise ShapeError("vstack column mismatch")
    out = {}
    ro = 0
    for m in mats:
        for i, row in m._nz.items():
            out[ro + i] = row
        ro += m.rows
    return Mat._of(field, out, ro, c)


def block_matrix(field: Field, grid: list[list[Mat]]) -> Mat:
    return vstack(field, [hstack(field, row) for row in grid])


def block_diag(field: Field, mats: list[Mat]) -> Mat:
    """The block-diagonal matrix with ``mats`` along the diagonal, in order."""
    out = {}
    ro = co = 0
    for m in mats:
        for i, r in m._nz.items():
            out[ro + i] = {co + j: x for j, x in r.items()} if co else r
        ro += m.rows
        co += m.cols
    return Mat._of(field, out, ro, co)


# -- subspaces ---------------------------------------------------------
def subspace_package(span: Mat) -> tuple[Mat, Mat]:
    """For the subspace U <= k^n spanned by the columns of ``span``, any
    spanning set (dependent and zero columns allowed), return

    (proj, section):
      proj    : coordinates on the quotient k^n / U, proj @ span = 0
      section : coset representatives, proj @ section = I

    The columns, with coordinate i taken as n - 1 - i, are row reduced: the
    pivots Q are the coordinates where some vector of U has its last nonzero
    entry, and the row at q in Q is the w_q in U that is one at q and zero at
    the rest of Q.  So section is e_c for each c not in Q, the complement
    greedy by index, and proj's row c is e_c - sum_q w_q[c] e_q.
    """
    field, last = span.field, span.rows - 1
    W, pivots = span.take_rows(list(range(last, -1, -1))).T.rref()
    in_u = {last - p for p in pivots}
    free = {c: j for j, c in enumerate(c for c in range(span.rows) if c not in in_u)}
    proj = {j: {c: field.one} for c, j in free.items()}
    for p, w in zip(pivots, W._nz.values()):
        for k, x in w.items():
            if k != p:
                proj[free[last - k]][last - p] = -x
    return Mat._of(field, proj, len(free), span.rows), Mat.unit_columns(field, span.rows, list(free))


def coords_in(basis: Mat, vectors: Mat) -> Mat:
    """Coordinates of ``vectors`` in ``basis``; ShapeError if not contained."""
    x = basis.solve(vectors)
    if x is None or (basis @ x) != vectors:
        raise ShapeError("vectors do not lie in the span of the basis")
    return x

