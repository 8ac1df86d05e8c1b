"""Intertwiner spaces and a certified isomorphism test.

``is_isomorphic`` returns YES only with an exactly re-verified invertible
intertwiner, NO only with a concrete obstruction, and UNDECIDED otherwise.
The search draws seeded random combinations of a Hom-space basis, so
identical inputs and seeds reproduce identical answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ContextError
from .linalg import Mat, kernel_from_rref
from .reps import DecRep, is_intertwiner, is_isomorphism

YES = "YES"
NO = "NO"
UNDECIDED = "UNDECIDED"

# seeded random combinations of the Hom basis tried after the basis itself
ISO_TRIES = 64


@dataclass
class HomSpace:
    basis: list[dict[int, Mat]]

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(m: DecRep, n: DecRep) -> HomSpace:
    """Solve the intertwining equations g_head . a_M = a_N . g_tail exactly.

    When m and n have equal dimensions and maps, the system is End(m)'s: it
    is solved once, stored on both modules and shared by every later call on
    either, so the returned space must not be changed."""
    if not m.same_context(n):
        raise ContextError("modules live over different QPs")
    if m.dims != n.dims or m.maps != n.maps:
        return _solve(m, n)
    end = m._end if m._end is not None else n._end
    if end is None:
        end = _solve(m, n)
    m._end = n._end = end
    return end


def _solve(m: DecRep, n: DecRep) -> HomSpace:
    fld = m.field
    verts = list(m.qp.quiver.vertices)
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    # row (p, q) of arrow a: (g_h @ a_M)[p][q] - (a_N @ g_t)[p][q] = 0.  The
    # quiver has no loops, so the two sums never share an unknown.
    rows: list[dict] = []
    for a in m.qp.quiver.arrows:
        h, t = a.head, a.tail
        mh, mt = m.dims[h], m.dims[t]
        block = [{} for _ in range(n.dims[h] * mt)]
        for r, q, x in m.maps[a.id].nonzeros():
            for p in range(n.dims[h]):
                block[p * mt + q][offsets[h] + p * mh + r] = x
        for p, s, x in n.maps[a.id].nonzeros():
            for q in range(mt):
                block[p * mt + q][offsets[t] + s * mt + q] = -x
        rows.extend(block)

    # unknown o_v + p * dim m_v + q is entry (p, q) of g_v; each basis column
    # of the kernel is split into its vertex blocks
    basis, _ = kernel_from_rref(*Mat.from_rows(fld, rows, total).rref())
    cell = [(v, *divmod(i, m.dims[v])) for v in verts for i in range(n.dims[v] * m.dims[v])]
    blocks = [{v: [{} for _ in range(n.dims[v])] for v in verts} for _ in range(basis.cols)]
    for i, c, x in basis.nonzeros():
        v, p, q = cell[i]
        blocks[c][v][p][q] = x
    return HomSpace([{v: Mat.from_rows(fld, b[v], m.dims[v]) for v in verts} for b in blocks])


@dataclass
class IsoResult:
    verdict: str
    certificate: dict[int, Mat] | None = None
    obstruction: str | None = None
    seed: int = 0


def is_isomorphic(m: DecRep, n: DecRep, seed: int = 0) -> IsoResult:
    """Certified decorated-module isomorphism test.

    Only Hom(m, n) is built before the search.  The dimensions of Hom(n, m),
    End(m) and End(n) agree whenever an isomorphism exists, so they are
    compared only after the search fails: a NO from them costs the failed
    tries first."""
    if not m.same_context(n):
        raise ContextError("modules live over different QPs")
    if m.dims != n.dims:
        return IsoResult(NO, obstruction="dimension vectors differ", seed=seed)
    if m.dec_dims != n.dec_dims:
        return IsoResult(NO, obstruction="decoration vectors differ", seed=seed)

    hom_mn = hom_space(m, n)
    if m.total_dim() == 0:
        return IsoResult(YES, certificate={v: Mat.zero(m.field, 0, 0) for v in m.qp.quiver.vertices}, seed=seed)
    if hom_mn.dim == 0:
        return IsoResult(NO, obstruction="no nonzero intertwiners", seed=seed)

    fld = m.field
    verts = list(m.qp.quiver.vertices)
    rng = random.Random(seed)

    def candidate(coeffs):  # built vertex by vertex; None at the first singular block
        g = {}
        for v in verts:
            acc = [{} for _ in range(n.dims[v])]
            for c, b in zip(coeffs, hom_mn.basis):
                if c:
                    for p, q, x in b[v].nonzeros():
                        y = acc[p].get(q)  # a zero sum counts as absent, as in +
                        acc[p][q] = y + c * x if y else c * x
            g[v] = Mat.from_rows(fld, acc, m.dims[v])
            if not g[v].is_invertible():
                return None
        return g

    # deterministic first attempts: single basis elements
    for b in hom_mn.basis:
        if is_isomorphism(m, n, b):
            # a copy: the basis may be the End(m) stored on both modules
            return IsoResult(YES, certificate=dict(b), seed=seed)

    for trial in range(ISO_TRIES):
        bound = 1 + trial // 8
        coeffs = [fld.of(rng.randint(-bound, bound)) for _ in hom_mn.basis]
        g = candidate(coeffs)
        if g is not None and is_intertwiner(m, n, g):
            return IsoResult(YES, certificate=g, seed=seed)
    if hom_space(n, m).dim != hom_mn.dim:
        return IsoResult(NO, obstruction="hom spaces have different dimensions", seed=seed)
    if hom_space(m, m).dim != hom_space(n, n).dim:
        return IsoResult(NO, obstruction="endomorphism algebras have different dimensions", seed=seed)
    return IsoResult(UNDECIDED, seed=seed)
