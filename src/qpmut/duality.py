"""Vector-space duality and its commutation with mutation.

Dualizing reverses arrows, reverses potential cycles and transposes arrow
matrices.  ``duality_witness`` builds the explicit comparison isomorphism
between "premutate then dualize" and "dualize then premutate" out of the
triangle data of the original module, verifies it arrow by arrow, and checks
it survives the reduction pullback on both sides.
"""

from __future__ import annotations

from .cycles import cyclically_equivalent, reverse_jet, reverse_potential
from .errors import Report
from .jets import JetSpace
from .linalg import Mat, block_diag, block_matrix
from .mutation import premutate_rep, pullback_reduction
from .qp import QP, composite_name, require_mutable, split_reduce
from .quiver import Quiver
from .reps import DecRep, is_intertwiner
from .subst import ArrowSubstitution


def dualize_qp(qp: QP) -> QP:
    opp = qp.quiver.opposite()
    space = JetSpace(opp, qp.order, qp.field)
    return QP(opp, reverse_potential(qp.potential, space))


def dualize_rep(rep: DecRep) -> DecRep:
    """Transpose every arrow matrix; dimensions and decorations persist."""
    dual_qp = dualize_qp(rep.qp)
    maps = {aid: m.T for aid, m in rep.maps.items()}
    return DecRep(dual_qp, dict(rep.dims), maps, dict(rep.dec_dims))


def opposite_premutation_renaming(q: Quiver, k: int) -> dict[str, str]:
    """Arrow-id bijection from the premutation of the opposite quiver onto
    the opposite of the premutation (composites swap their letters)."""
    ren = {}
    for a in q.arrows_into(k):
        for b in q.arrows_out_of(k):
            ren[composite_name(a.id, b.id)] = composite_name(b.id, a.id)
    return ren


def rename_rep(rep: DecRep, new_qp: QP, mapping: dict[str, str]) -> DecRep:
    maps = {mapping.get(aid, aid): m for aid, m in rep.maps.items()}
    return DecRep(new_qp, dict(rep.dims), maps, dict(rep.dec_dims))


def transport_substitution_to_opposite(
    phi: ArrowSubstitution, target_space: JetSpace, mapping: dict[str, str]
) -> ArrowSubstitution:
    """Carry a substitution on the premutated quiver to the premutation of
    the opposite quiver: reverse every image path and rename composites."""
    inv = {v: u for u, v in mapping.items()}
    images = {
        inv.get(aid, aid): reverse_jet(jet, target_space, inv)
        for aid, jet in phi.images.items()
    }
    return ArrowSubstitution(target_space.quiver, target_space, images)


def duality_witness(rep: DecRep, k: int) -> Report:
    """Certify that mutation commutes with duality on this module.

    The comparison map is assembled from the retraction, section and
    coker/quotient data of the module's own triangle, is the identity away
    from k, and is verified to intertwine both premutations and both reduced
    modules exactly.  It is returned as ``witness["delta_k"]`` of the report,
    which names any failed check; ``.require()`` raises on one.
    """
    qp = rep.qp
    fld = rep.field
    require_mutable(qp, k)
    pm = premutate_rep(rep, k, "coker_beta")
    t = pm.triangle
    sr = split_reduce(pm.rep.qp)

    pm_d = premutate_rep(dualize_rep(rep), k, "coker_beta")
    td = pm_d.triangle
    qpt_op = pm_d.rep.qp

    ren = opposite_premutation_renaming(qp.quiver, k)
    ren_inv = {b: a for a, b in ren.items()}
    dual_of_pm = dualize_rep(pm.rep)
    renamed_dual = rename_rep(dual_of_pm, qpt_op, ren_inv)

    rpt = Report("duality")
    rpt.note(
        "premutated quivers match under renaming",
        {a.id for a in dual_of_pm.qp.quiver.renamed(ren_inv).arrows}
        == {a.id for a in qpt_op.quiver.arrows},
    )
    transported_pot = reverse_potential(pm.rep.qp.potential, qpt_op.space, ren_inv)
    rpt.note(
        "premutated potentials agree under renaming",
        cyclically_equivalent(transported_pot.jet, qpt_op.potential.jet),
    )

    q2, q2d = t.pi2.rows, td.pi2.rows

    # The two commuting squares the comparison map must satisfy pin it down:
    # functionals vanishing on the outgoing image descend to the cokernel
    # (the g-column), and representatives of coker(alpha^T) act through the
    # derivative map and the quotient section (the f-column, with a sign).
    e_prime = td.coker_sec           # representatives of coker(beta') in (M_in)^dual
    g_prime = td.ker_alpha @ td.sigma  # representatives of ker(alpha')/im(gamma') in (M_out)^dual
    delta_k = block_diag(fld, [
        block_matrix(fld, [
            [-(t.coker_sec.T @ (t.gamma.T @ e_prime)), -(t.coker_sec.T @ g_prime)],
            [-(t.sigma.T @ (t.ker_alpha.T @ e_prime)), Mat.zero(fld, q2, q2d)],
        ]),
        Mat.identity(fld, rep.dec_dims[k]),
    ])

    delta = {
        v: (delta_k if v == k else Mat.identity(fld, rep.dims[v]))
        for v in qp.quiver.vertices
    }
    rpt.witness["delta_k"] = delta_k
    rpt.note("comparison map at k is invertible", delta_k.is_invertible())
    rpt.note("comparison map intertwines the premutations",
             is_intertwiner(pm_d.rep, renamed_dual, delta))

    # decorations: the mutated decoration of the dual equals the dual of the
    # mutated decoration (dimension check; decorations are dimension vectors)
    rpt.note("mutated decorations agree", pm_d.rep.dec_dims == dual_of_pm.dec_dims)

    # reduced level: pull back both sides along matching splittings
    if rpt.ok:
        phi_op = transport_substitution_to_opposite(sr.splitting, qpt_op.space, ren)
        red_op_quiver = qpt_op.quiver.restricted_to_arrows(
            {ren_inv.get(x.id, x.id) for x in sr.reduced.quiver.arrows}
        )
        red_op_space = JetSpace(red_op_quiver, qp.order, fld)
        red_op_pot = reverse_potential(sr.reduced.potential, red_op_space, ren_inv)
        reduced_op = QP(red_op_quiver, red_op_pot)
        m1 = pullback_reduction(pm_d.rep, phi_op, reduced_op)   # mutate the dual
        m2 = pullback_reduction(renamed_dual, phi_op, reduced_op)  # dual of the mutation
        rpt.note("comparison map intertwines the reduced modules",
                 is_intertwiner(m1, m2, delta))
    return rpt
