"""Exact matrix kernels, images, quotients; cross-checked against sympy and
a plain Gauss-Jordan reference over F_p."""

import ast
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import count_eliminations, from_int_rows, image_basis, markov_qp, reference_intersection
from qpmut import QQ, NotInvertibleError, ShapeError, build_triangle
from qpmut.fields import PrimeField
from qpmut.generate import random_valid_module
from qpmut.linalg import (
    Echelon,
    Mat,
    block_diag,
    coords_in,
    hstack,
    kernel_from_rref,
    subspace_package,
    vstack,
)


def _rand(rng, rows, cols, lo=-4, hi=4):
    return Mat(QQ, [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]) \
        if rows and cols else Mat.zero(QQ, rows, cols)


def _to_sympy(m: Mat):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.data[i][j]))


def _sparse(rng, rows, cols, density=0.05):
    """A rows x cols matrix with about ``density`` nonzeros, a zero row and a
    zero column."""
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    return Mat(QQ, [
        [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
         if i != zero_row and j != zero_col and rng.random() < density else Fraction(0)
         for j in range(cols)]
        for i in range(rows)
    ])


def test_rref_equals_sympy_exactly():
    rng = random.Random(6)
    mats = [Mat.zero(QQ, 0, 5), Mat.zero(QQ, 5, 0), Mat.zero(QQ, 0, 0), Mat.zero(QQ, 3, 4)]
    mats += [_sparse(rng, rng.randint(1, 40), rng.randint(1, 60)) for _ in range(20)]
    mats += [_rand(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(30)]
    for m in mats:
        R, pivots = m.rref()
        sympy_R, sympy_pivots = _to_sympy(m).rref()
        assert (R.rows, R.cols) == (m.rows, m.cols)
        assert _to_sympy(R) == sympy_R
        assert tuple(pivots) == sympy_pivots


def _gauss_jordan(field, rows: list[list], cols: int):
    """Reference RREF over any field: the textbook dense elimination, column
    by column, clearing the pivot column in every other row."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        top = len(pivots)
        piv = next((i for i in range(top, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = field.inv(a[top][c])
        a[top] = [x * inv for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(c)
    return a, pivots


def _gauss_jordan_mod(rows: list[list[int]], cols: int, p: int):
    """``_gauss_jordan`` over F_p in int arithmetic, fast enough for the
    large matrices below."""
    a = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        top = len(pivots)
        piv = next((i for i in range(top, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = pow(a[top][c], p - 2, p)
        a[top] = [x * inv % p for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[top])]
        pivots.append(c)
    return a, pivots


@st.composite
def _sparse_matrices(draw):
    """(field, dense rows, cols) over QQ (Fraction entries), GF(2) or GF(7):
    mostly zero, with a dense block, zero rows and duplicated rows; any
    dimension may be 0."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if field == QQ:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1).map(field.of)
    zero = field.zero
    a = [[draw(entry) if draw(st.integers(0, 3)) == 0 else zero for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        r0, c0 = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        r1, c1 = draw(st.integers(r0, rows - 1)), draw(st.integers(c0, cols - 1))
        for i in range(r0, r1 + 1):
            for j in range(c0, c1 + 1):
                a[i][j] = draw(entry)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a[draw(st.integers(0, rows - 1))] = [zero] * cols
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a[draw(st.integers(0, rows - 1))] = list(a[draw(st.integers(0, rows - 1))])
    return field, a, cols


def _mat(field, a, cols):
    return Mat.from_rows(field, [dict(enumerate(r)) for r in a], cols)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_echelon_rref_and_rank_match_dense_gauss_jordan(drawn):
    field, a, cols = drawn
    m = _mat(field, a, cols)
    R, pivots = m.rref()
    want, want_pivots = _gauss_jordan(field, a, cols)
    assert pivots == want_pivots
    assert R.data == tuple(map(tuple, want))
    assert m.rank() == len(pivots)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices(), st.randoms(use_true_random=False))
def test_echelon_reduces_rows_inserted_in_any_order_to_the_rref(drawn, rnd):
    field, a, cols = drawn
    m = _mat(field, a, cols)
    rows = [{j: x for j, x in enumerate(r) if x} for r in a]
    rnd.shuffle(rows)
    e = Echelon(field)
    for r in rows:
        e.insert(r)
    # each stored row leads with a one at its pivot and is zero at the
    # pivots stored before it
    for n, (p, r) in enumerate(e._piv.items()):
        assert min(r) == p and r[p] == field.one
        assert not set(r) & set(list(e._piv)[:n])
    assert e.reduced(m.rows, m.cols) == m.rref()
    assert len(e) == m.rank()


def test_rref_over_fp_matches_reference():
    p = 7
    field = PrimeField(p)
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        density = rng.choice([0.1, 0.5, 1.0])
        ints = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)]
        m = from_int_rows(field, ints) if rows else Mat.zero(field, 0, cols)
        R, pivots = m.rref()
        assert (R.rows, R.cols) == (rows, cols)
        assert ([[x.v for x in r] for r in R.data], pivots) == _gauss_jordan_mod(ints, cols, p)


def _combined_rows(rng, rows, cols):
    """A rows x cols int matrix whose rows are sums of small multiples of up
    to three sparse base rows, so that elimination both fills in and cancels.
    A row built from no base row is zero, and about a tenth of the columns
    are never used."""
    used = rng.sample(range(cols), cols - cols // 10)
    base = [{j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in rng.sample(used, min(len(used), rng.randint(1, 6)))}
            for _ in range(rng.randint(1, max(1, rows)))] if used else []
    out = []
    for _ in range(rows):
        r: dict = {}
        for b in rng.sample(base, min(len(base), rng.choice([0, 1, 2, 2, 3]))):
            c = rng.choice([-2, -1, 1, 2])
            for j, y in b.items():
                r[j] = r.get(j, 0) + c * y
        out.append([r.get(j, 0) for j in range(cols)])
    return out


def _sympy_rref(ints, rows, cols):
    """{(i, j): x} of the nonzeros of sympy's exact sparse RREF, and its pivots."""
    from sympy.polys.matrices import DomainMatrix

    nz = {i: {j: sympy.QQ(x) for j, x in enumerate(r) if x} for i, r in enumerate(ints) if any(r)}
    R, pivots = DomainMatrix(nz, (rows, cols), sympy.QQ).rref()
    return ({(i, j): Fraction(int(x.numerator), int(x.denominator))
             for i, r in R.to_sdm().items() for j, x in r.items()}, list(pivots))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "Fp7"])
def test_rref_survives_fill_in_and_cancellation(field):
    rng = random.Random(13)
    shapes = [(0, 0), (0, 7), (7, 0), (6, 6), (150, 200), (150, 1), (1, 200)]
    shapes += [(rng.randint(1, 150), rng.randint(1, 200)) for _ in range(20)]
    ranks = set()
    for rows, cols in shapes:
        ints = _combined_rows(rng, rows, cols)
        m = from_int_rows(field, ints) if rows else Mat.zero(field, 0, cols)
        R, pivots = m.rref()
        assert (R.rows, R.cols) == (rows, cols)
        if field == QQ:
            assert ({(i, j): Fraction(x) for i, j, x in R.nonzeros()}, pivots) == _sympy_rref(ints, rows, cols)
        else:
            assert ([[x.v for x in r] for r in R.data], pivots) == _gauss_jordan_mod(ints, cols, 7)
        ranks.add((len(pivots) < rows, len(pivots) < cols))
    # rank-deficient in rows (so some rows cancel to zero) and in columns
    assert (True, True) in ranks


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_scale_add_is_zero_keep_shapes_and_values_with_zero_entries(field):
    rows = [[0, 3, 0], [0, 0, 0], [5, 0, -1]]
    other = [[2, 0, 0], [0, 0, 0], [-5, 0, 4]]
    a, b = from_int_rows(field, rows), from_int_rows(field, other)
    assert a.scale(field.of(3)) == from_int_rows(field, [[3 * x for x in r] for r in rows])
    assert a + b == from_int_rows(
        field, [[x + y for x, y in zip(r, s)] for r, s in zip(rows, other)]
    )
    assert b + a == a + b
    assert not a.is_zero() and not b.is_zero()
    assert a.scale(field.zero).is_zero() and (a - a).is_zero()
    assert from_int_rows(field, [[0, 0], [0, 0]]).is_zero()
    for r, c in [(0, 3), (3, 0), (2, 3)]:
        z = Mat.zero(field, r, c)
        for m in (z.scale(field.of(2)), z + z, z):
            assert (m.rows, m.cols) == (r, c) and m.is_zero()
            assert m == Mat.zero(field, r, c)


def test_kernel_of_identity_is_zero():
    assert Mat.identity(QQ, 4).kernel_basis().cols == 0


def test_cokernel_of_zero_map():
    z = Mat.zero(QQ, 3, 2)
    proj, sec = subspace_package(image_basis(z))
    assert proj.rows == 3
    assert (proj @ sec) == Mat.identity(QQ, 3)


def test_kernel_matches_sympy():
    rng = random.Random(1)
    for _ in range(30):
        m = _rand(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        sk = _to_sympy(m).nullspace()
        assert k.cols == len(sk)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "Fp5"])
def test_kernel_from_rref_basis_and_retraction(field):
    # the kernel basis is killed by the matrix, the retraction inverts it on
    # the left, and the retraction reads no pivot coordinate
    rng = random.Random(29)
    shapes = [(0, 0), (0, 4), (4, 0)] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    for rows, cols in shapes:
        ints = _ints(rng, rows, cols, density=rng.choice([0.2, 0.6, 1.0]))
        m = from_int_rows(field, ints) if rows and cols else Mat.zero(field, rows, cols)
        R, pivots = m.rref()
        basis, retraction = kernel_from_rref(R, pivots)
        assert (basis.rows, basis.cols) == (cols, cols - len(pivots))
        assert (m @ basis).is_zero()
        assert retraction @ basis == Mat.identity(field, basis.cols)
        assert retraction.take_cols(pivots).is_zero()


def test_rank_matches_sympy():
    rng = random.Random(2)
    for _ in range(30):
        m = _rand(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert m.rank() == _to_sympy(m).rank()


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "Fp7"])
def test_is_invertible_is_square_and_full_rank(field, monkeypatch):
    rng = random.Random(19)
    mats = [Mat.zero(field, 0, 0), Mat.zero(field, 0, 2), Mat.zero(field, 3, 0)]
    for _ in range(200):
        n = rng.randint(0, 5)
        empty_row = rng.randrange(n) if n and rng.random() < 0.4 else None
        empty_col = rng.randrange(n) if n and rng.random() < 0.4 else None
        # small entries, so that singular matrices without an empty row occur
        mats.append(Mat.from_rows(field, [
            {j: field.of(rng.randint(-1, 1)) for j in range(n) if j != empty_col}
            if i != empty_row else {}
            for i in range(n)
        ], n))
    rng = random.Random(23)
    mats += [Mat.identity(field, 4), from_int_rows(field, [[1, 1], [0, 1]])]
    for _ in range(150):
        n = rng.randint(1, 6)
        # one nonzero per row: a scaled permutation matrix, then columns drawn
        # with repeats, which is singular when a column repeats
        for cols in (rng.sample(range(n), n), [rng.randrange(n) for _ in range(n)]):
            mats.append(Mat.from_rows(field, [{j: field.of(rng.choice([-3, -2, -1, 1, 2, 3]))}
                                              for j in cols], n))
        rows = [{j: field.of(rng.randint(-2, 2)) for j in range(n)} for _ in range(n)]
        if n > 1:
            a, b = rng.sample(range(n), 2)  # column a copied onto column b
            mats.append(Mat.from_rows(field, [{**r, b: r.get(a, field.zero)} for r in rows], n))
    calls = count_eliminations(monkeypatch)
    seen = set()
    for m in mats:
        want = m.rows == m.cols and m.rank() == m.rows
        nz = list(m.nonzeros())
        empty = len({i for i, _, _ in nz}) < m.rows  # an empty row
        # one nonzero in each row, in distinct columns
        monomial = m.rows == m.cols and len(nz) == m.rows == len({j for _, j, _ in nz}) and not empty
        calls.clear()
        assert m.is_invertible() == want
        if m.rows == m.cols and (empty or monomial):
            assert calls == []  # decided without an elimination
        assert want or not monomial
        seen.add((m.rows == m.cols, want, empty, monomial))
    assert {(True, True, False, True), (True, True, False, False),
            (True, False, True, False), (True, False, False, False)} <= seen


def test_take_and_entry_reject_indices_out_of_range():
    m = from_int_rows(QQ, [[1, 2], [3, 4], [5, 6]])
    for idx in ([-1], [3], [7], [0, -3]):
        with pytest.raises(ShapeError):
            m.take_rows(idx)
        with pytest.raises(ShapeError):
            m.T.take_cols(idx)
    for i, j in ((-1, 0), (0, -1), (3, 0), (0, 2), (0, 9)):
        with pytest.raises(ShapeError):
            m.entry(i, j)
    assert m.take_rows([2, 0, 2]) == from_int_rows(QQ, [[5, 6], [1, 2], [5, 6]])
    assert (m.entry(2, 1), m.entry(0, 0)) == (6, 1)


def test_solve_and_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _rand(rng, n, n)
        if not m.is_invertible():
            continue
        inv = m.inverse()
        assert m @ inv == Mat.identity(QQ, n)
        assert inv @ m == Mat.identity(QQ, n)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "Fp2"])
def test_inverse_refuses_a_singular_or_non_square_matrix(field):
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(NotInvertibleError):
            from_int_rows(field, rows).inverse()
    with pytest.raises(ShapeError):
        Mat.zero(field, 2, 3).inverse()
    assert Mat.zero(field, 0, 0).inverse() == Mat.zero(field, 0, 0)
    # determinant 2: invertible over QQ, singular over GF(2)
    a = from_int_rows(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    if field is QQ:
        assert a @ a.inverse() == Mat.identity(QQ, 3)
    else:
        with pytest.raises(NotInvertibleError):
            a.inverse()


def test_inverse_checks_the_solution_it_is_given(monkeypatch):
    monkeypatch.setattr(Mat, "solve", lambda self, b: b.scale(QQ.of(2)))
    with pytest.raises(NotInvertibleError):
        Mat.identity(QQ, 2).inverse()


def test_subspace_package_properties():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(0, 6)
        m = _rand(rng, n, rng.randint(0, 6))
        basis = image_basis(m)
        proj, sec = subspace_package(basis)
        r = basis.cols
        assert proj.rows == n - r
        if n - r:
            assert proj @ sec == Mat.identity(QQ, n - r)
        if basis.cols:
            assert (proj @ basis).is_zero()
        assert sec == Mat.identity(QQ, n).take_cols(_greedy_complement(basis))


def _greedy_complement(basis: Mat) -> list[int]:
    """Reference: standard basis indices chosen greedily by index, each one
    kept when it raises the rank (sympy) of the span built so far."""
    n = basis.rows
    span = _to_sympy(basis)
    chosen = []
    for i in range(n):
        e = sympy.zeros(n, 1)
        e[i] = 1
        cand = span.row_join(e)
        if cand.rank() > span.rank():
            chosen.append(i)
            span = cand
    return chosen


def test_subspace_package_of_a_spanning_set_is_that_of_a_basis_of_its_span():
    b = from_int_rows(QQ, [[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    assert subspace_package(b) == subspace_package(image_basis(b))
    assert subspace_package(Mat.zero(QQ, 3, 1)) == subspace_package(Mat.zero(QQ, 3, 0)) \
        == (Mat.identity(QQ, 3), Mat.identity(QQ, 3))


def _dense_package(field, columns: list[list], n: int) -> tuple[Mat, Mat]:
    """Reference (proj, section) of the span of ``columns`` in k^n: B is the
    columns that raise the rank, in order, and the RREF of [B | I] by dense
    Gauss-Jordan ends in [B | section]^-1, whose rows past the first
    rank-many are proj; section is e_c at its pivots c past B."""
    basis: list[list] = []
    for c in columns:
        if len(_gauss_jordan(field, basis + [c], n)[1]) > len(basis):
            basis.append(c)
    r = len(basis)
    aug = [[b[i] for b in basis] + [field.of(int(i == j)) for j in range(n)] for i in range(n)]
    R, pivots = _gauss_jordan(field, aug, r + n)
    assert pivots[:r] == list(range(r))
    complement = [p - r for p in pivots[r:]]
    proj = _mat(field, [row[r:] for row in R[r:]], n)
    section = Mat.from_rows(field, [{k: field.one for k, c in enumerate(complement) if c == i}
                                    for i in range(n)], len(complement))
    return proj, section


@st.composite
def _spans(draw):
    """(field, columns, n): a spanning set of a subspace of k^n, with zero,
    repeated and dependent columns; n or the number of columns may be 0."""
    field, columns, n = draw(_sparse_matrices())
    for _ in range(draw(st.integers(0, 2)) if columns else 0):
        u, v = (columns[draw(st.integers(0, len(columns) - 1))] for _ in range(2))
        c = field.of(draw(st.integers(1, 3)))
        columns.insert(draw(st.integers(0, len(columns))), [x + c * y for x, y in zip(u, v)])
    return field, columns, n


@settings(max_examples=300, deadline=None)
@given(_spans())
@example((QQ, [[], [], []], 0))
@example((PrimeField(7), [], 4))
def test_subspace_package_of_any_spanning_set_matches_the_dense_reference(drawn):
    field, columns, n = drawn
    span = _mat(field, columns, n).T
    proj, section = subspace_package(span)
    assert (proj, section) == _dense_package(field, columns, n)
    assert (proj @ span).is_zero()
    assert proj @ section == Mat.identity(field, proj.rows)


def test_intersection_against_rank_formula():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = image_basis(_rand(rng, n, rng.randint(0, 4)))
        v = image_basis(_rand(rng, n, rng.randint(0, 4)))
        cap = reference_intersection(u, v)
        # independent oracle: dim(U & V) = rank U + rank V - rank [U V]
        expected = u.cols + v.cols - hstack(QQ, [u, v], rows=n).rank()
        assert cap.cols == expected
        # membership both ways
        if cap.cols:
            assert u.solve(cap) is not None
            assert v.solve(cap) is not None
    # the new decoration's rank formula against the reference intersection
    qp = markov_qp()
    for _ in range(6):
        m = random_valid_module(qp, rng, max_dim=4)
        for k in qp.quiver.vertices:
            t = build_triangle(m, k)
            ker_beta = t.beta.kernel_basis()
            cap = reference_intersection(ker_beta, image_basis(t.alpha))
            if cap.cols:
                assert ker_beta.solve(cap) is not None
                assert t.alpha.solve(cap) is not None
            assert t.dim_new_decoration == ker_beta.cols - cap.cols


def test_coords_in_raises_outside_span():
    u = from_int_rows(QQ, [[1], [0]])
    v = from_int_rows(QQ, [[0], [1]])
    with pytest.raises(ShapeError):
        coords_in(u, v)


def test_stacking_degenerate_shapes():
    a = Mat.zero(QQ, 0, 3)
    b = Mat.zero(QQ, 0, 2)
    h = hstack(QQ, [a, b])
    assert (h.rows, h.cols) == (0, 5)
    v = vstack(QQ, [Mat.zero(QQ, 2, 0), Mat.zero(QQ, 1, 0)])
    assert (v.rows, v.cols) == (3, 0)
    assert (Mat.zero(QQ, 0, 4) @ Mat.zero(QQ, 4, 2)).cols == 2


# -- the sparse representation -------------------------------------------
def _ints(rng, rows, cols, density=0.4):
    """Nested small ints, mostly zero, with entries of both signs so that
    sums and products cancel."""
    return [[rng.choice([-2, -1, 1, 2]) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def _dense(field, ints):
    return [[field.of(x) for x in r] for r in ints]


def _ref_mul(field, a, b, inner):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), field.zero) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


def _check(m, ref, shape):
    """``m`` has ``shape`` and the dense view ``ref``, stores no zero and no
    empty row (a matrix rebuilt from ``ref`` stores neither), and yields its
    nonzeros row by row in ascending row order."""
    assert (m.rows, m.cols) == shape
    assert m.data == tuple(tuple(r) for r in ref)
    assert m == Mat.from_rows(m.field, [dict(enumerate(r)) for r in ref], m.cols)
    seen = [i for i, _, _ in m.nonzeros()]
    assert seen == sorted(seen)
    assert m.is_zero() == (not seen)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_every_operation_stores_only_nonzeros_and_matches_dense(field):
    rng = random.Random(11)
    for _ in range(40):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        ai, bi, ci = _ints(rng, r, k), _ints(rng, r, k), _ints(rng, k, c)
        a, b, cm = (from_int_rows(field, x) for x in (ai, bi, ci))
        ad, bd, cd = (_dense(field, x) for x in (ai, bi, ci))
        _check(a, ad, (r, k))
        _check(a + b, [[x + y for x, y in zip(u, v)] for u, v in zip(ad, bd)], (r, k))
        _check(a - b, [[x - y for x, y in zip(u, v)] for u, v in zip(ad, bd)], (r, k))
        _check(a + (-a), [[field.zero] * k for _ in range(r)], (r, k))
        _check(-a, [[-x for x in u] for u in ad], (r, k))
        _check(a.scale(field.zero), [[field.zero] * k for _ in range(r)], (r, k))
        s = field.of(rng.choice([-3, 2, 5]))
        _check(a.scale(s), [[s * x for x in u] for u in ad], (r, k))
        _check(a @ cm, _ref_mul(field, ad, cd, k), (r, c))
        ker = a.kernel_basis()
        _check(a @ ker, [[field.zero] * ker.cols for _ in range(r)], (r, ker.cols))
        _check(a.T, [list(col) for col in zip(*ad)], (k, r))
        rows_idx = rng.sample(range(r), rng.randint(0, r))
        cols_idx = rng.sample(range(k), rng.randint(0, k))
        _check(a.take_rows(rows_idx), [ad[i] for i in rows_idx], (len(rows_idx), k))
        _check(a.take_cols(cols_idx), [[u[j] for j in cols_idx] for u in ad], (r, len(cols_idx)))
        _check(hstack(field, [a, b]), [u + v for u, v in zip(ad, bd)], (r, 2 * k))
        _check(vstack(field, [a, b]), ad + bd, (2 * r, k))
        _check(block_diag(field, [a, cm]),
               [u + [field.zero] * c for u in ad] + [[field.zero] * k + v for v in cd], (r + k, k + c))
        R, pivots = a.rref()
        _check(R, [list(u) for u in R.data], (r, k))
        x = a.solve(a @ cm)
        _check(x, [list(u) for u in x.data], (k, c))
        assert a @ x == a @ cm
        _check(ker, [list(u) for u in ker.data], (k, k - len(pivots)))
        for i in range(r):
            for j in range(k):
                assert a.entry(i, j) == ad[i][j]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("n", [0, 3])
def test_empty_shapes_survive_every_operation(field, n):
    rng = random.Random(n)
    full = from_int_rows(field, _ints(rng, 3, 3, density=0.7)) if n else Mat.zero(field, 0, 0)
    for a in (Mat.zero(field, 0, n), Mat.zero(field, n, 0)):
        r, c = a.rows, a.cols
        assert a.data == tuple(() for _ in range(r))
        for m in (a + a, a - a, -a, a.scale(field.of(2)), a.scale(field.zero), a.rref()[0]):
            assert (m.rows, m.cols) == (r, c) and m.is_zero()
        assert (a.T.rows, a.T.cols) == (c, r)
        assert (a @ Mat.zero(field, c, 4)).rows == r and (a @ Mat.zero(field, c, 4)).cols == 4
        assert (Mat.zero(field, 4, r) @ a).rows == 4 and (Mat.zero(field, 4, r) @ a).cols == c
        assert (a.take_rows([]).rows, a.take_rows([]).cols) == (0, c)
        assert (a.take_cols([]).rows, a.take_cols([]).cols) == (r, 0)
        assert a.rref()[1] == []
        k = a.kernel_basis()
        assert (k.rows, k.cols) == (c, c)
        x = a.solve(Mat.zero(field, r, 2))
        assert (x.rows, x.cols) == (c, 2)
        h = hstack(field, [a, a], rows=r)
        assert (h.rows, h.cols) == (r, 2 * c)
        v = vstack(field, [a, a], cols=c)
        assert (v.rows, v.cols) == (2 * r, c)
        d = block_diag(field, [a, full, a])
        assert (d.rows, d.cols) == (2 * r + full.rows, 2 * c + full.cols)
        inner = d.take_rows(list(range(r, r + full.rows))).take_cols(list(range(c, c + full.cols)))
        assert inner == full
        assert sum(map(bool, sum(d.data, ()))) == sum(map(bool, sum(full.data, ())))
        assert a == Mat.zero(field, r, c) and a != Mat.zero(field, r + 1, c)


def _mostly_empty(rng, rows, cols):
    """Small ints in a quarter of the rows and two thirds of the columns, so
    that most rows and some columns are empty."""
    live_rows = set(rng.sample(range(rows), max(1, rows // 4))) if rows else set()
    live_cols = set(rng.sample(range(cols), cols - cols // 3))
    return [[rng.choice([-2, -1, 1, 2]) if i in live_rows and j in live_cols and rng.random() < 0.6 else 0
             for j in range(cols)] for i in range(rows)]


def _of_ints(field, ints, cols):
    return Mat.from_rows(field, [{j: field.of(x) for j, x in enumerate(r) if x} for r in ints], cols)


def _ref_rank(field, dense):
    ints = [[x.v if hasattr(x, "v") else x for x in r] for r in dense]
    if field == QQ:
        return sympy.Matrix(ints).rank() if ints and ints[0] else 0
    return len(_gauss_jordan_mod(ints, len(ints[0]) if ints else 0, field.p)[1])


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "Fp7"])
def test_row_table_matches_dense_reference_with_empty_rows_and_columns(field):
    rng = random.Random(31)
    z = field.zero
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1)] + [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(40)]
    for r, k in shapes:
        s = rng.randint(0, 6)
        ai, bi, ci = _mostly_empty(rng, r, k), _mostly_empty(rng, r, k), _mostly_empty(rng, k, s)
        a, b, c = _of_ints(field, ai, k), _of_ints(field, bi, k), _of_ints(field, ci, s)
        ad, bd, cd = [list(u) for u in a.data], [list(u) for u in b.data], [list(u) for u in c.data]
        assert [[field.of(x) for x in u] for u in ai] == ad
        _check(a + b, [[x + y for x, y in zip(u, v)] for u, v in zip(ad, bd)], (r, k))
        _check(a - b, [[x - y for x, y in zip(u, v)] for u, v in zip(ad, bd)], (r, k))
        _check(a - a, [[z] * k for _ in range(r)], (r, k))
        _check(-a, [[-x for x in u] for u in ad], (r, k))
        f = field.of(rng.choice([-3, 2, 5]))
        _check(a.scale(f), [[f * x for x in u] for u in ad], (r, k))
        _check(a.scale(z), [[z] * k for _ in range(r)], (r, k))
        _check(a @ c, [[sum((u[t] * cd[t][j] for t in range(k)), z) for j in range(s)] for u in ad], (r, s))
        _check(a.T, [[u[i] for u in ad] for i in range(k)], (k, r))
        rows_idx = [rng.randrange(r) for _ in range(rng.randint(0, 2 * r))] if r else []
        cols_idx = rng.sample(range(k), rng.randint(0, k))
        _check(a.take_rows(rows_idx), [ad[i] for i in rows_idx], (len(rows_idx), k))
        _check(a.take_cols(cols_idx), [[u[j] for j in cols_idx] for u in ad], (r, len(cols_idx)))
        _check(hstack(field, [a, b, a], rows=r), [u + v + u for u, v in zip(ad, bd)], (r, 3 * k))
        _check(vstack(field, [a, b, a], cols=k), ad + bd + ad, (3 * r, k))
        _check(block_diag(field, [a, Mat.zero(field, 0, 2), c]),
                   [u + [z] * (2 + s) for u in ad] + [[z] * (k + 2) + v for v in cd], (r + k, k + 2 + s))
        assert (a == b) == (ad == bd) and a == _of_ints(field, ai, k) and (a == Mat.zero(field, r, k)) == a.is_zero()
        assert a.is_identity() == (r == k and ad == [[field.of(int(i == j)) for j in range(k)] for i in range(r)])
        rank = _ref_rank(field, ad)
        assert a.is_invertible() == (r == k and rank == r)
        if a.is_invertible():
            _check(a.inverse(), [list(u) for u in a.inverse().data], (r, r))
            assert a @ a.inverse() == Mat.identity(field, r)
        R, pivots = a.rref()
        _check(R, [list(u) for u in R.data], (r, k))
        if field == QQ:
            assert ({(i, j): Fraction(x) for i, j, x in R.nonzeros()}, pivots) == _sympy_rref(ai, r, k)
        else:
            assert ([[x.v for x in u] for u in R.data], pivots) == _gauss_jordan_mod(ai, k, 7)
        basis, retraction = kernel_from_rref(R, pivots)
        _check(basis, [list(u) for u in basis.data], (k, k - rank))
        _check(retraction, [list(u) for u in retraction.data], (k - rank, k))
        assert (a @ basis).is_zero() and retraction @ basis == Mat.identity(field, k - rank)
        if field == QQ:
            assert [_to_sympy(basis).col(j) for j in range(basis.cols)] == _to_sympy(a).nullspace()
        x = a.solve(a @ c)
        _check(x, [list(u) for u in x.data], (k, s))
        assert a @ x == a @ c
        bi2 = _mostly_empty(rng, r, 1)
        consistent = _ref_rank(field, [u + [field.of(v[0])] for u, v in zip(ad, bi2)]) == rank
        assert (a.solve(_of_ints(field, bi2, 1)) is not None) == consistent
        im = image_basis(a)
        proj, sec = subspace_package(im)
        for m in (im, proj, sec):
            _check(m, [list(u) for u in m.data], (m.rows, m.cols))
        assert (proj @ im).is_zero()
        assert proj @ sec == Mat.identity(field, r - rank)


def test_zero_matrix_costs_nothing_whatever_its_shape():
    """A zero matrix is an empty row table: built, compared, transposed and
    combined in O(1) at any declared shape."""
    n = 10**9
    t0 = time.perf_counter()
    z = Mat.zero(QQ, n, n)
    assert z == Mat.zero(QQ, n, n) and z != Mat.zero(QQ, n, n - 1)
    t = z.T
    assert (t.rows, t.cols) == (n, n) and t == z
    assert z.is_zero() and not z.is_identity() and not z.is_invertible() and z.rank() == 0
    assert (z @ z).is_zero() and z + z == z and -z == z and z.scale(QQ.of(2)) == z
    assert list(z.nonzeros()) == [] and z.entry(n - 1, n - 1) == 0
    wide = Mat.zero(QQ, 3, n)
    assert (vstack(QQ, [wide, wide]).rows, hstack(QQ, [z.T, z]).cols) == (6, 2 * n)
    assert time.perf_counter() - t0 < 0.1


def test_dense_view_is_read_only():
    m = from_int_rows(QQ, [[1, 0], [0, 2]])
    with pytest.raises(TypeError):
        m.data[0][0] = 5
    with pytest.raises(TypeError):
        m.data[1] = (0, 0)
    with pytest.raises(AttributeError):
        m.data = ((0, 0), (0, 0))
    assert m == from_int_rows(QQ, [[1, 0], [0, 2]])


def test_from_rows_drops_zeros_and_checks_columns():
    m = Mat.from_rows(QQ, [{0: 1, 2: 0}, {}, {1: Fraction(1, 2)}], 3)
    assert m == Mat(QQ, [[1, 0, 0], [0, 0, 0], [0, Fraction(1, 2), 0]])
    assert (Mat.from_rows(QQ, [], 4).rows, Mat.from_rows(QQ, [], 4).cols) == (0, 4)
    with pytest.raises(ShapeError):
        Mat.from_rows(QQ, [{3: 1}], 3)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_unit_columns_are_the_identity_s_columns(field):
    rng = random.Random(29)
    for n in range(7):
        for _ in range(10):
            idx = sorted(rng.sample(range(n), rng.randint(0, n)))
            m = Mat.unit_columns(field, n, idx)
            assert m == Mat.identity(field, n).take_cols(idx)
            assert list(m._nz) == idx  # ascending row order


def test_the_reduction_builds_no_dense_matrix():
    # qp and subst build their matrices from the nonzeros (Mat.from_rows)
    for name in ("qp.py", "subst.py"):
        calls = [n for n in ast.walk(ast.parse((SRC / name).read_text()))
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Mat"]
        assert calls == [], name


# -- the storage boundary ----------------------------------------------------
SRC = Path(__file__).resolve().parent.parent / "src" / "qpmut"


def _storage_violations(path: Path) -> list[str]:
    """Lines of ``path`` that touch the private storage of Mat or Echelon
    (outside linalg.py) or assign into a ``.data`` attribute."""
    private = {s for s in Mat.__slots__ + Echelon.__slots__ if s.startswith("_")}
    out = []
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in private and path.name != "linalg.py":
            out.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for t in targets:
                while isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr == "data":
                    out.append(f"{path.name}:{node.lineno} writes .data")
    return out


def test_only_linalg_touches_matrix_storage():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "linalg.py" for p in paths)
    assert [v for p in paths for v in _storage_violations(p)] == []


def test_storage_boundary_check_sees_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("m.data[0][1] = x\nm.data = y\nz = m._nz\nm.data[2][0] += 1\nr = e._piv\n")
    assert len(_storage_violations(bad)) == 5


def test_integral_fractions_from_rref_and_products_emit_and_hash_like_ints():
    """Both rational types occur for one integral value; only ``type`` tells
    them apart."""
    from conftest import a2_qp
    from qpmut import DecRep, docio

    def integral_fractions(m):
        return [x for _, _, x in m.nonzeros() if type(x) is Fraction and x.denominator == 1]

    R, _ = from_int_rows(QQ, [[2, 0, -2], [1, 1, 1]]).rref()
    prod = Mat(QQ, [[Fraction(1, 2), Fraction(3, 2)]]) @ from_int_rows(QQ, [[4], [2]])
    made = integral_fractions(R) + integral_fractions(prod)
    assert made == [-1, 2, 5] and integral_fractions(prod)

    def emitted(x):
        rep = DecRep(a2_qp(), {1: 1, 2: 1}, {"a": Mat(QQ, [[x]])}, {1: 0, 2: 0})
        return docio.dumps(docio.emit_decrep(rep))

    for x in made:
        n = int(x)
        assert x == n and hash(x) == hash(n) and {x: "f"}[n] == "f"
        assert QQ.to_str(x) == QQ.to_str(n) == str(n)
        assert emitted(x) == emitted(n)
