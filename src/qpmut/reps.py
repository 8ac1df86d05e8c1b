"""Decorated representations and the three-map triangle at a vertex.

A DecRep stores per-vertex dimensions, per-arrow exact matrices (shape
dim_head x dim_tail; matrices act on column vectors, rightmost arrow first)
and decoration dimensions.  Valid modules are nilpotent and annihilated by
every cyclic derivative of the potential.  A module stores what depends on
it alone when first computed: its nilpotency index, its ``check_module``
report (computed from its own maps, once per module), its endomorphism space
End(M) (shared with any module of equal maps, see ``homs.hom_space``), and at
each vertex its triangle, which holds the composites M_b @ M_a through it.  A
triangle injected into ``premutate_rep`` is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import second_derivative
from .errors import InvariantError, Report, ShapeError
from .jets import JetPoly
from .linalg import (
    Echelon,
    Mat,
    hstack,
    kernel_from_rref,
    subspace_package,
    vstack,
)
from .qp import QP, composite_name


@dataclass
class DecRep:
    qp: QP
    dims: dict[int, int]
    maps: dict[str, Mat]
    dec_dims: dict[int, int]

    def __post_init__(self):
        q = self.qp.quiver
        self.dims = dict(self.dims)
        self.dec_dims = dict(self.dec_dims)
        self.maps = dict(self.maps)
        verts = set(q.vertices)
        for v in (*self.dims, *self.dec_dims):
            if v not in verts:
                raise InvariantError(f"dimension given for {v!r}, which is not a vertex")
        for aid in self.maps:
            if not q.has_arrow(aid):
                raise InvariantError(f"map given for {aid!r}, which is not an arrow")
        for v in q.vertices:
            self.dims.setdefault(v, 0)
            self.dec_dims.setdefault(v, 0)
            if self.dims[v] < 0 or self.dec_dims[v] < 0:
                raise InvariantError("negative dimension")
        for a in q.arrows:
            m = self.maps.get(a.id)
            if m is None:
                m = self.maps[a.id] = Mat.zero(self.qp.field, self.dims[a.head], self.dims[a.tail])
            if (m.rows, m.cols) != (self.dims[a.head], self.dims[a.tail]):
                raise ShapeError(
                    f"map for {a.id!r} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dims[a.head]}x{self.dims[a.tail]}"
                )
        self._nilpotency_index: int | None = None
        self._check: Report | None = None  # stored by check_module
        self._triangles: dict[int, TrianglePack] = {}  # stored by build_triangle
        self._end = None  # End(self) as a homs.HomSpace, stored by hom_space

    @property
    def field(self):
        return self.qp.field

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def same_context(self, other: "DecRep") -> bool:
        return self.qp == other.qp

    def nilpotency_index(self) -> int:
        """Smallest d such that every path of length d acts as zero; raises
        if the representation is not nilpotent.

        A path acts as zero exactly when its matrix has no nonzero row.  The
        rows of the matrices of the paths of length d that start at a vertex
        span a subspace there, kept as the rows of an echelon, so no map is
        transposed.  The spans start from the rows of the arrows' maps
        (d = 1).  A path of length d + 1 is an arrow a followed by a path of
        length d, so each round inserts r @ M_a at the tail of a for each row
        r of the last span at its head; arrows with zero maps are skipped,
        and an echelon is opened only where such rows arrive.  The index is
        the first d whose spans are all zero.  A path of length d + 1 also
        begins with a path of length d, so the spans only shrink, and once
        their total dimension fails to shrink it never will: not nilpotent."""
        if self._nilpotency_index is not None:
            return self._nilpotency_index
        fld = self.field
        nonzero = [(a, m) for a in self.qp.quiver.arrows if not (m := self.maps[a.id]).is_zero()]
        spans: dict[int, Echelon] = {}  # the paths of length 0 act as identities, never built
        d, total = 0, self.total_dim()
        while total:
            new: dict[int, Echelon] = {}
            for a, m in nonzero:
                if d and not spans.get(a.head):
                    continue
                e = new[a.tail] if a.tail in new else new.setdefault(a.tail, Echelon(fld))
                if d:
                    e.add_images(spans[a.head], m)
                else:
                    e.add(m)
            spans = new
            d += 1
            shrunk = sum(map(len, spans.values()))
            if shrunk >= total:
                raise InvariantError("representation is not nilpotent")
            total = shrunk
        self._nilpotency_index = d
        return d

    def is_nilpotent(self) -> bool:
        try:
            self.nilpotency_index()
            return True
        except InvariantError:
            return False


def path_matrix(rep: DecRep, word: tuple[str, ...], tail: int, head: int) -> Mat:
    """Action of a single path (word order: rightmost arrow first)."""
    fld = rep.field
    if not word:
        return Mat.identity(fld, rep.dims[tail])
    acc = None
    for aid in reversed(word):
        m = rep.maps[aid]
        acc = m if acc is None else m @ acc
    return acc


def component_action(rep: DecRep, u: JetPoly, head: int, tail: int) -> Mat:
    """Matrix of e_head . u . e_tail acting M_tail -> M_head."""
    fld = rep.field
    out = Mat.zero(fld, rep.dims[head], rep.dims[tail])
    for p, c in u.component(head, tail).terms.items():
        out = out + path_matrix(rep, p.arrows, tail, head).scale(c)
    return out


def derivative_actions(rep: DecRep) -> dict[str, Mat]:
    """The action of the cyclic derivative along each arrow x, summed straight
    from the potential's terms: for each term c.w and each occurrence of x in
    w, c times the path of the rotation of w that starts right after it, with
    the occurrence removed.  Equal rotations are summed as matrices, which
    equals the merged coefficient of ``cyclic_derivative``."""
    q = rep.qp.quiver
    out = {a.id: Mat.zero(rep.field, rep.dims[a.tail], rep.dims[a.head]) for a in q.arrows}
    for p, c in rep.qp.potential.terms().items():
        w = p.arrows
        for i, x in enumerate(w):
            out[x] = out[x] + path_matrix(rep, w[i + 1 :] + w[:i], q.head(x), q.tail(x)).scale(c)
    return out


def check_module(rep: DecRep) -> Report:
    """Verify nilpotency and that every cyclic derivative acts as zero.  The
    report is stored on ``rep``, so each module is checked once; no library
    code changes a module after it is built."""
    if rep._check is not None:
        return rep._check
    rpt = Report("module")
    if rpt.note("nilpotent", rep.is_nilpotent()):
        acts = derivative_actions(rep)
        for a in rep.qp.quiver.arrows:
            rpt.note(f"derivative along {a.id!r} acts as zero", acts[a.id].is_zero())
    rep._check = rpt
    return rpt


def is_intertwiner(m_from: DecRep, m_to: DecRep, f: dict[int, Mat]) -> bool:
    """f_head @ a_from == a_to @ f_tail for every arrow a.  Where f is the
    identity at both ends of an arrow, that is a_from == a_to, compared
    without the products."""
    ident = {v for v, g in f.items() if g.is_identity() and m_from.dims.get(v) == g.rows == m_to.dims.get(v)}
    return all(
        m_from.maps[a.id] == m_to.maps[a.id] if a.head in ident and a.tail in ident
        else f[a.head] @ m_from.maps[a.id] == m_to.maps[a.id] @ f[a.tail]
        for a in m_from.qp.quiver.arrows
    )


def is_isomorphism(m: DecRep, n: DecRep, f: dict[int, Mat]) -> bool:
    """An intertwiner m -> n that is invertible at every vertex.  The rank
    test runs first: a Hom-space element always intertwines, so only the
    rank test can reject it."""
    return all(
        f[v].is_invertible() for v in m.qp.quiver.vertices
    ) and is_intertwiner(m, n, f)


class TrianglePack:
    """Everything the mutation constructions need at one vertex k, each datum
    computed once, in the constructor, and named once.

    The triangle is alpha: M_in -> M_k, beta: M_k -> M_out and
    gamma: M_out -> M_in, with M_in and M_out the spaces at the tails of the
    arrows into k and the heads of the arrows out of k, in arrow order.
    Bases are column matrices in ambient coordinates; retraction/projection
    maps are written in the displayed coordinate systems.  Two eliminations
    (of alpha and gamma), three quotient packages (of the column spans of
    beta, rho @ beta and gamma_in_keralpha) and one rank make the whole pack.
    A size is read off the shape of the matrix it describes (rank gamma is
    ``s_section.cols``, dim coker beta ``coker_p.rows``); only d_in and
    d_out, by which alpha, beta and gamma are stacked, and
    dim_new_decoration are stored as numbers.
    Last come the composites M_b @ M_a for each arrow a into k and b out of
    k, the premutated module's maps [ba], made once here and shared by every
    premutation of the module at k.
    """

    def __init__(self, rep: DecRep, k: int):
        q = rep.qp.quiver
        fld = rep.field
        maps = rep.maps
        self.k = k
        self.in_arrows = ins = [a.id for a in q.arrows_into(k)]
        self.out_arrows = outs = [a.id for a in q.arrows_out_of(k)]
        self.in_dims = [rep.dims[q.tail(a)] for a in ins]
        self.out_dims = [rep.dims[q.head(b)] for b in outs]
        self.d_in = sum(self.in_dims)
        self.d_out = d_out = sum(self.out_dims)
        dk = rep.dims[k]

        self.alpha = alpha = hstack(fld, [maps[a] for a in ins], rows=dk)
        self.beta = beta = vstack(fld, [maps[b] for b in outs], cols=dk)
        pot = rep.qp.potential
        self.gamma = gamma = vstack(fld, [
            hstack(fld, [component_action(rep, second_derivative(pot, b, a), q.tail(a), q.head(b))
                         for b in outs], rows=d)
            for a, d in zip(ins, self.in_dims)
        ], cols=d_out)

        # the read-offs below are exact only because these compositions vanish
        if not (alpha @ gamma).is_zero() or not (gamma @ beta).is_zero():
            raise InvariantError("triangle identities fail; module is invalid at k")

        # one elimination each of alpha and gamma; kernels, images and pivots come from it
        r_alpha, piv_alpha = alpha.rref()
        r_gamma, piv_gamma = gamma.rref()
        # kernel bases from the RREFs; rho: M_out -> ker gamma coords is
        # gamma's kernel retraction (rho @ ker_gamma = I, zero at gamma's
        # pivot columns)
        self.ker_alpha, ret_alpha = kernel_from_rref(r_alpha, piv_alpha)
        self.ker_gamma, self.rho = kernel_from_rref(r_gamma, piv_gamma)

        # alpha's kernel retraction applied to gamma and to gamma's pivot
        # columns, a basis of im gamma (exact, since alpha gamma = 0)
        self.gamma_in_keralpha = ret_alpha @ gamma
        self.im_gamma_in_keralpha = self.gamma_in_keralpha.take_cols(piv_gamma)
        # quotient package of rho @ beta inside ker gamma (exact, since
        # gamma beta = 0): (ker gamma / im beta) coords
        self.pi1, self.s1 = subspace_package(self.rho @ beta)
        # quotient package of gamma_in_keralpha: (ker alpha / im gamma) coords
        self.pi2, self.sigma = subspace_package(self.gamma_in_keralpha)
        # quotient package of im beta in M_out
        self.coker_p, self.coker_sec = subspace_package(beta)

        # dim ker beta / (ker beta & im alpha), where rank beta = d_out - dim coker beta
        # and dim (ker beta & im alpha) = rank alpha - rank(beta alpha)
        self.dim_new_decoration = dk - (d_out - self.coker_p.rows) - len(piv_alpha) + (beta @ alpha).rank()
        # the nonzero rows of gamma's RREF
        self.gamma_in_imgamma = r_gamma.take_rows(list(range(len(piv_gamma))))
        # im gamma coords -> M_out, the standard basis vectors at gamma's
        # pivot columns (gamma @ s_section is gamma's pivot columns, a basis
        # of im gamma, and rho @ s_section = 0)
        self.s_section = Mat.unit_columns(fld, d_out, piv_gamma)
        self.composites = {composite_name(b, a): maps[b] @ maps[a] for b in outs for a in ins}


def build_triangle(rep: DecRep, k: int) -> TrianglePack:
    """The triangle at k, with its composites, built once per module and k
    and stored on ``rep``."""
    if k not in rep._triangles:
        rep._triangles[k] = TrianglePack(rep, k)
    return rep._triangles[k]


def simple_rep(qp: QP, j: int) -> DecRep:
    dims = {v: (1 if v == j else 0) for v in qp.quiver.vertices}
    return DecRep(qp, dims, {}, {v: 0 for v in qp.quiver.vertices})


def negative_simple_rep(qp: QP, j: int) -> DecRep:
    dec = {v: (1 if v == j else 0) for v in qp.quiver.vertices}
    return DecRep(qp, {v: 0 for v in qp.quiver.vertices}, {}, dec)


def zero_rep(qp: QP) -> DecRep:
    return DecRep(qp, {v: 0 for v in qp.quiver.vertices}, {}, {v: 0 for v in qp.quiver.vertices})
