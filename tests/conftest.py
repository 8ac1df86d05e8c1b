import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import random

import pytest

from qpmut import QP, ContextError, DecRep, JetSpace, Potential, Quiver, Arrow, TruncationTooSmall
from qpmut.cycles import cyclic_normalize
from qpmut.fields import Field, QQ
from qpmut.jets import JetPoly
from qpmut.linalg import Echelon, Mat, hstack, vstack
from qpmut.reps import component_action


def count_eliminations(monkeypatch) -> list:
    """A list that grows by one at each elimination from now on: every
    elimination (RREF, rank, nilpotency span, generated span) opens one
    echelon."""
    calls = []
    init = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, field: calls.append(1) or init(self, field))
    return calls


def markov_quiver() -> Quiver:
    return Quiver(
        (1, 2, 3),
        (
            Arrow("a1", 1, 3),
            Arrow("a2", 1, 3),
            Arrow("b1", 3, 2),
            Arrow("b2", 3, 2),
            Arrow("c1", 2, 1),
            Arrow("c2", 2, 1),
        ),
    )


def markov_qp(order: int = 12, field=QQ) -> QP:
    q = markov_quiver()
    space = JetSpace(q, order, field)
    jet = space.path(("c1", "b1", "a1")) + space.path(("c2", "b2", "a2"))
    return QP(q, cyclic_normalize(jet))


MARKOV_K = 3


@pytest.fixture
def markov():
    return markov_qp()


def a2_quiver() -> Quiver:
    return Quiver((1, 2), (Arrow("a", 1, 2),))


def a2_qp(order: int = 12) -> QP:
    q = a2_quiver()
    return QP(q, Potential(JetSpace(q, order, QQ).zero()))


def a3_line_qp(order: int = 12) -> QP:
    q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3)))
    return QP(q, Potential(JetSpace(q, order, QQ).zero()))


def reference_intersection(u: Mat, v: Mat) -> Mat:
    """Basis of col(u) & col(v), via the kernel of [u | -v]: a reference
    kept apart from the library's rank formula."""
    if u.cols == 0 or v.cols == 0:
        return Mat.zero(u.field, u.rows, 0)
    k = hstack(u.field, [u, -v]).kernel_basis()
    return image_basis(u @ k.take_rows(list(range(u.cols))))


# -- helpers that only the tests use --------------------------------------
def image_basis(m: Mat) -> Mat:
    """Columns: the pivot columns of the original matrix."""
    _, pivots = m.rref()
    return m.take_cols(pivots)


def from_int_rows(field: Field, rows: list[list[int]]) -> Mat:
    return Mat(field, [[field.of(x) for x in r] for r in rows])


def random_rep_zero_potential(qp: QP, rng: random.Random, max_dim: int = 3) -> DecRep:
    """Arbitrary matrices are valid when the potential is zero and the quiver
    acyclic."""
    if not qp.potential.is_zero():
        raise ValueError("needs zero potential")
    fld = qp.field
    dims = {v: rng.randint(0, max_dim) for v in qp.quiver.vertices}
    maps = {
        a.id: Mat.from_rows(fld, [{j: fld.of(rng.randint(-2, 2)) for j in range(dims[a.tail])}
                                  for _ in range(dims[a.head])], dims[a.tail])
        for a in qp.quiver.arrows
    }
    dec = {v: rng.randint(0, 2) for v in qp.quiver.vertices}
    return DecRep(qp, dims, maps, dec)


def path_action(rep: DecRep, u: JetPoly) -> Mat:
    """Block map on the total space (vertex blocks in vertex order)."""
    if u.space.quiver != rep.qp.quiver:
        raise ContextError("jet over a different quiver")
    idx = rep.nilpotency_index()
    if u.space.order < idx:
        raise TruncationTooSmall(
            f"jet order {u.space.order} < nilpotency index {idx}"
        )
    fld = rep.field
    verts = list(rep.qp.quiver.vertices)
    blocks = [
        [component_action(rep, u, h, t) for t in verts]
        for h in verts
    ]
    return vstack(fld, [hstack(fld, row, rows=rep.dims[h]) for h, row in zip(verts, blocks)],
                  cols=sum(rep.dims[t] for t in verts))


def same_up_to_vertex_fixing_iso(q1: Quiver, q2: Quiver) -> bool:
    """True iff a vertex-fixing quiver isomorphism q1 -> q2 exists."""
    return set(q1.vertices) == set(q2.vertices) and q1.arrow_counts() == q2.arrow_counts()
