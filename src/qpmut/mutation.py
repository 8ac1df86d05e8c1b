"""Mutation of decorated representations.

The premutated module replaces the space at the mutation vertex by an
amalgam of coker(beta) and ker(alpha) over im(gamma).  Four equivalent
constructions are provided ("amalgam", "ker_alpha", "coker_beta",
"pushout").  Each construction is written once, in one branch that makes
its reversed-arrow maps together with the map F from amalgam coordinates
onto its space at k, which is built when first read.  The old decoration
V_k is a direct summand of the new space on which every new map is zero;
it is appended once, after the branch, with F the identity on it.  The
amalgam's F is the identity, so each F is already the isomorphism from the
amalgam onto its construction; ``constructions_agree``, the only reader of
F, verifies the three out of the amalgam and inverts none.  Full mutation
premutates, then pulls the module structure back along the splitting
substitution of the premutated potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .cycles import cyclic_normalize, cyclically_equivalent
from .errors import (
    CertificateError,
    ContextError,
    InvariantError,
    MutationNotDefined,
    Report,
    TruncationTooSmall,
)
from .linalg import Mat, block_diag, block_matrix, coords_in, hstack, subspace_package, vstack
from .qp import QP, composite_name, premutate_qp, require_mutable, split_reduce, star_name
from .reps import (
    DecRep,
    TrianglePack,
    build_triangle,
    check_module,
    component_action,
    is_isomorphism,
)
from .subst import ArrowSubstitution

CONSTRUCTIONS = ("amalgam", "ker_alpha", "coker_beta", "pushout")


@dataclass
class PremutedRep:
    """A decorated representation of the premutated QP, remembering how the
    space at the mutation vertex ``triangle.k`` was assembled: ``triangle``
    is the triangle it was read off, and ``amalgam_map`` is the map F from
    amalgam coordinates onto that space, built when first read."""

    rep: DecRep
    triangle: TrianglePack
    make_amalgam_map: Callable[[], Mat] = field(repr=False, compare=False)

    @cached_property
    def amalgam_map(self) -> Mat:
        return self.make_amalgam_map()

    @property
    def alpha_bar(self) -> Mat:
        """The reversed outgoing arrows side by side: M_out -> Mbar_k."""
        mats = [self.rep.maps[star_name(b)] for b in self.triangle.out_arrows]
        return hstack(self.rep.field, mats, rows=self.rep.dims[self.triangle.k])

    @property
    def beta_bar(self) -> Mat:
        """The reversed incoming arrows stacked: Mbar_k -> M_in."""
        mats = [self.rep.maps[star_name(a)] for a in self.triangle.in_arrows]
        return vstack(self.rep.field, mats, cols=self.rep.dims[self.triangle.k])


def _construction_blocks(t: TrianglePack, fld, kind: str):
    """Return (make_F0, alpha_bar0, beta_bar0) for the chosen construction,
    each branch writing all three from the same intermediates.  F0 maps the
    amalgam coordinates (ker gamma/im beta, im gamma, ker alpha/im gamma)
    onto the construction's amalgam part of Mbar_k; alpha_bar0: M_out -> it,
    beta_bar0: it -> M_in.  The decoration summand is appended by the caller."""
    d_in, d_out = t.d_in, t.d_out
    q1, rg, ka, q2, c = t.pi1.rows, t.s_section.cols, t.ker_alpha.cols, t.pi2.rows, t.coker_p.rows

    if kind == "amalgam":
        f = lambda: Mat.identity(fld, q1 + rg + q2)
        beta_bar = hstack(fld, [
            Mat.zero(fld, d_in, q1),
            t.ker_alpha @ t.im_gamma_in_keralpha,
            t.ker_alpha @ t.sigma,
        ], rows=d_in)
        alpha_bar = vstack(fld, [
            -(t.pi1 @ t.rho),
            -t.gamma_in_imgamma,
            Mat.zero(fld, q2, d_out),
        ], cols=d_out)
    elif kind == "ker_alpha":
        f = lambda: block_matrix(fld, [
            [Mat.identity(fld, q1), Mat.zero(fld, q1, rg), Mat.zero(fld, q1, q2)],
            [Mat.zero(fld, ka, q1), t.im_gamma_in_keralpha, t.sigma],
        ])
        beta_bar = hstack(fld, [Mat.zero(fld, d_in, q1), t.ker_alpha], rows=d_in)
        alpha_bar = vstack(fld, [-(t.pi1 @ t.rho), -t.gamma_in_keralpha], cols=d_out)
    elif kind == "coker_beta":
        f = lambda: block_matrix(fld, [
            [t.coker_p @ (t.ker_gamma @ t.s1), t.coker_p @ t.s_section, Mat.zero(fld, c, q2)],
            [Mat.zero(fld, q2, q1), Mat.zero(fld, q2, rg), Mat.identity(fld, q2)],
        ])
        beta_bar = hstack(fld, [t.gamma @ t.coker_sec, t.ker_alpha @ t.sigma], rows=d_in)
        alpha_bar = vstack(fld, [-t.coker_p, Mat.zero(fld, q2, d_out)], cols=d_out)
    else:  # "pushout"
        rel = vstack(fld, [
            t.coker_p @ t.s_section,
            -t.im_gamma_in_keralpha,
        ], cols=rg)
        qproj, qsec = subspace_package(rel)
        qc = qproj.take_cols(list(range(c)))
        jmap = qproj.take_cols(list(range(c, c + ka)))
        f = lambda: hstack(fld, [
            qc @ (t.coker_p @ (t.ker_gamma @ t.s1)), jmap @ t.im_gamma_in_keralpha, jmap @ t.sigma,
        ])
        beta_bar = hstack(fld, [t.gamma @ t.coker_sec, t.ker_alpha], rows=d_in) @ qsec
        alpha_bar = -(qc @ (t.coker_p @ (t.ker_gamma @ t.rho))) - (jmap @ t.gamma_in_keralpha)
    return f, alpha_bar, beta_bar


def premutate_rep(
    rep: DecRep,
    k: int,
    construction: str = "ker_alpha",
    require_valid: bool = True,
    triangle: TrianglePack | None = None,
) -> PremutedRep:
    """Build the premutated decorated representation at k over the
    premutated QP and the triangle at k, both stored on the objects they come
    from, so every premutation of one module at k shares them; the triangle
    supplies the composite maps [ba] = M_b @ M_a.  An injected ``triangle``
    is used as given, composites included, and never stored."""
    if construction not in CONSTRUCTIONS:
        raise InvariantError(f"unknown construction {construction!r}")
    if require_valid:
        check_module(rep).require()
    qp = rep.qp
    fld = rep.field
    qpt = premutate_qp(qp, k)
    t = triangle if triangle is not None else build_triangle(rep, k)
    vk = rep.dec_dims[k]

    make_f0, alpha_bar0, beta_bar0 = _construction_blocks(t, fld, construction)
    # the decoration V_k is a direct summand on which every new map is zero
    alpha_bar = vstack(fld, [alpha_bar0, Mat.zero(fld, vk, t.d_out)], cols=t.d_out)
    beta_bar = hstack(fld, [beta_bar0, Mat.zero(fld, t.d_in, vk)], rows=t.d_in)
    make_f = lambda: block_diag(fld, [make_f0(), Mat.identity(fld, vk)])
    # dimension bookkeeping: the new space has as many dimensions as the
    # amalgam has coordinates
    dbar_k = t.pi1.rows + t.s_section.cols + t.pi2.rows + vk
    if alpha_bar.rows != dbar_k:
        raise CertificateError("dimension bookkeeping failed for the new space")

    dims = {v: (dbar_k if v == k else rep.dims[v]) for v in qp.quiver.vertices}
    dec = {v: (t.dim_new_decoration if v == k else rep.dec_dims[v]) for v in qp.quiver.vertices}

    maps: dict[str, Mat] = {}
    for a in qp.quiver.arrows:
        if a.head != k and a.tail != k:
            maps[a.id] = rep.maps[a.id]
    maps.update(t.composites)
    # rows of beta_bar per incoming arrow, columns of alpha_bar per outgoing
    off = 0
    for aid, d in zip(t.in_arrows, t.in_dims):
        maps[star_name(aid)] = beta_bar.take_rows(list(range(off, off + d)))
        off += d
    off = 0
    for bid, d in zip(t.out_arrows, t.out_dims):
        maps[star_name(bid)] = alpha_bar.take_cols(list(range(off, off + d)))
        off += d

    out = DecRep(qpt, dims, maps, dec)
    pm = PremutedRep(rep=out, triangle=t, make_amalgam_map=make_f)
    if require_valid:
        check_module(out).require()
    return pm


def check_beta_alpha(pm: PremutedRep) -> Report:
    """Verify that composing the reversed-arrow actions reproduces minus the
    second-derivative matrix, blockwise and exactly."""
    rpt = Report("beta_alpha")
    prod = pm.beta_bar @ pm.alpha_bar
    rpt.note("reversed-arrow composition is -gamma", prod == -pm.triangle.gamma)
    return rpt


def constructions_agree(rep: DecRep, k: int) -> Report:
    """Build all four premutations, which share the triangle and premutated
    QP stored on ``rep``, and verify the isomorphism from the amalgam onto
    each other construction: F at k and the identity away from k.  Nothing
    is inverted.  Only the amalgam is checked as a module; every other
    construction is certified isomorphic to it, and two verified
    isomorphisms F_X, F_Y out of the amalgam make F_Y @ F_X^-1 one from X
    onto Y."""
    pms = {
        kind: premutate_rep(rep, k, kind, require_valid=(kind == "amalgam"))
        for kind in CONSTRUCTIONS
    }
    hub = pms["amalgam"].rep
    ident = {v: Mat.identity(rep.field, rep.dims[v]) for v in rep.qp.quiver.vertices if v != k}
    rpt = Report("constructions_agree")
    for kind in CONSTRUCTIONS[1:]:  # the amalgam comes first
        name = f"amalgam->{kind}"
        f_k = pms[kind].amalgam_map
        f = {v: (f_k if v == k else ident[v]) for v in hub.qp.quiver.vertices}
        rpt.witness[name] = f
        rpt.note(f"{name} is an isomorphism", is_isomorphism(hub, pms[kind].rep, f))
    return rpt


def pullback_reduction(prem: DecRep, phi: ArrowSubstitution, reduced: QP) -> DecRep:
    """Give the premutated module its reduced-part structure: each reduced
    arrow acts through its image under the splitting substitution."""
    if phi.target_space.quiver != prem.qp.quiver:
        raise ContextError("splitting does not match the premutated quiver")
    idx = prem.nilpotency_index()
    if prem.qp.order < idx:
        raise TruncationTooSmall(
            f"jet order {prem.qp.order} < nilpotency index {idx}"
        )
    maps = {}
    for c in reduced.quiver.arrows:
        img = phi.images[c.id]
        maps[c.id] = component_action(prem, img, c.head, c.tail)
    out = DecRep(reduced, {v: prem.dims[v] for v in reduced.quiver.vertices}, maps,
                 {v: prem.dec_dims[v] for v in reduced.quiver.vertices})
    check_module(out).require()
    return out


def mutate_rep(rep: DecRep, k: int, construction: str = "ker_alpha") -> DecRep:
    """Full mutation of a decorated representation in direction k: premutate
    the module, split the premutated potential it carries, and restrict
    along the splitting."""
    require_mutable(rep.qp, k)
    pm = premutate_rep(rep, k, construction)
    sr = split_reduce(pm.rep.qp)
    return pullback_reduction(pm.rep, sr.splitting, sr.reduced)


# ---------------------------------------------------------------------------
# isomorphism transport (mutation preserves isomorphism, constructively)
# ---------------------------------------------------------------------------

def transport_iso(
    m_from: DecRep,
    m_to: DecRep,
    f: dict[int, Mat],
    k: int,
) -> tuple[PremutedRep, PremutedRep, dict[int, Mat]]:
    """Given an isomorphism f between valid modules, build the induced
    isomorphism between their premutations (coker_beta construction) and
    verify it.  Decoration blocks transport by the induced map on the
    outgoing-kernel quotient."""
    if not m_from.same_context(m_to):
        raise ContextError("modules live over different QPs")
    if not is_isomorphism(m_from, m_to, f):
        raise CertificateError("given map is not an isomorphism")
    fld = m_from.field
    pm_m = premutate_rep(m_from, k, "coker_beta")
    pm_n = premutate_rep(m_to, k, "coker_beta")
    tm, tn = pm_m.triangle, pm_n.triangle

    f_in = block_diag(fld, [f[m_from.qp.quiver.tail(a)] for a in tm.in_arrows])
    f_out = block_diag(fld, [f[m_from.qp.quiver.head(b)] for b in tm.out_arrows])

    # induced maps on coker beta and on ker alpha / im gamma
    f_out_bar = tn.coker_p @ (f_out @ tm.coker_sec)
    fk_keralpha = coords_in(tn.ker_alpha, f_in @ tm.ker_alpha)
    f_in_bar = tn.pi2 @ (fk_keralpha @ tm.sigma)

    # epsilon corrects the section mismatch through im gamma
    lift_m = f_in @ (tm.ker_alpha @ tm.sigma)
    lift_n = tn.ker_alpha @ (tn.sigma @ f_in_bar)
    diff = lift_m - lift_n
    diff_in_img = coords_in(tn.gamma @ tn.s_section, diff)
    eps = tn.coker_p @ (tn.s_section @ diff_in_img)

    fk = block_diag(fld, [
        block_matrix(fld, [
            [f_out_bar, eps],
            [Mat.zero(fld, tn.pi2.rows, tm.coker_p.rows), f_in_bar],
        ]),
        Mat.identity(fld, m_from.dec_dims[k]),
    ])
    f_tilde = {v: (fk if v == k else f[v]) for v in m_from.qp.quiver.vertices}
    if not is_isomorphism(pm_m.rep, pm_n.rep, f_tilde):
        raise CertificateError("transported map is not an isomorphism")
    return pm_m, pm_n, f_tilde


# ---------------------------------------------------------------------------
# double premutation and the pullback to the original QP
# ---------------------------------------------------------------------------

def double_premutation_equiv(qp: QP, k: int):
    """The 2-cycle companion of a double premutation: the trivial QP (C, T)
    with C spanned by the composite arrows of both rounds, plus the
    sign-twisted embedding of the original arrows (c -> +/- c**)."""
    q = qp.quiver
    if not q.is_2_acyclic():
        raise MutationNotDefined("double-premutation companion needs a 2-acyclic quiver")
    qpt = premutate_qp(qp, k)
    qptt = premutate_qp(qpt, k)
    space2 = qptt.space
    ins = [a.id for a in q.arrows_into(k)]
    outs = [b.id for b in q.arrows_out_of(k)]
    c_ids = set()
    t_jet = space2.zero()
    for b in outs:
        for a in ins:
            round1 = composite_name(b, a)
            round2 = composite_name(star_name(a), star_name(b))
            c_ids.add(round1)
            c_ids.add(round2)
            t_jet = t_jet + space2.path((round1, round2))
    c_quiver = qptt.quiver.restricted_to_arrows(c_ids)
    t_pot = cyclic_normalize(t_jet)

    images = {}
    for a in q.arrows:
        if a.head == k or a.tail == k:
            name = star_name(star_name(a.id))
        else:
            name = a.id
        img = space2.arrow(name)
        if a.tail == k:
            img = -img
        images[a.id] = img
    hj = ArrowSubstitution(q, space2, images)
    return hj, (c_quiver, t_pot), qptt


def double_premutation_potential_identity(qp: QP, k: int) -> bool:
    """Check that the doubly premutated potential is cyclically equivalent to
    the bracketed potential plus the companion terms (composite 2-cycles and
    their double-star corrections)."""
    from .qp import bracket_substitute

    q = qp.quiver
    qpt = premutate_qp(qp, k)
    qptt = premutate_qp(qpt, k)
    space2 = qptt.space
    bracketed = bracket_substitute(qp.potential, k, space2)
    rest = space2.zero()
    for b in q.arrows_out_of(k):
        for a in q.arrows_into(k):
            r1 = composite_name(b.id, a.id)
            r2 = composite_name(star_name(a.id), star_name(b.id))
            rest = rest + space2.path((r1, r2))
            rest = rest + space2.path(
                (star_name(star_name(b.id)), star_name(star_name(a.id)), r2)
            )
    expected = bracketed + cyclic_normalize(rest)
    return cyclically_equivalent(qptt.potential.jet, expected.jet)


def involution_pullback(rep: DecRep, k: int) -> DecRep:
    """Premutate twice, then pull the result back to the original QP along
    the sign-twisted embedding (original arrows act as their double-starred
    descendants, with a sign on arrows leaving k)."""
    qp = rep.qp
    hj, _, _ = double_premutation_equiv(qp, k)
    pm1 = premutate_rep(rep, k)
    pm2 = premutate_rep(pm1.rep, k)
    rep2 = pm2.rep
    maps = {}
    for a in qp.quiver.arrows:
        img = hj.images[a.id]
        ((p, c),) = img.terms.items()
        maps[a.id] = rep2.maps[p.arrows[0]].scale(c)
    out = DecRep(
        qp,
        {v: rep2.dims[v] for v in qp.quiver.vertices},
        maps,
        {v: rep2.dec_dims[v] for v in qp.quiver.vertices},
    )
    check_module(out).require()
    return out
