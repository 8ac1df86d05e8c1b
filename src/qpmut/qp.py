"""Quivers with potential: premutation, reduction (splitting) and mutation.

The splitting algorithm normalizes the degree-2 part of the potential into
distinct opposite pairs by a linear change of arrows L, read off one echelon
of each pairing matrix (``linalg.pivot_normal_form``); L^-1 comes from two
inverses, each checked by its product.  It then builds the reduced part and
the splitting substitution together, degree by degree, keeping the
discrepancy delta = S1 - chi(S_triv) - S_red between the normalized
potential and the split one up to date: at delta's least degree, each cycle
that touches a trivial arrow is absorbed into a correction of that arrow's
partner, every other cycle joins the reduced part, and delta loses those
cycles and gains the change in the images of the trivial terms.  Each round
clears one degree, so at most N rounds run.  The splitting is phi = L^-1 o chi, where
chi is the correction built in those rounds.
The output is never trusted: a SplitResult carries a certificate verifying
all of its defining properties, including that the splitting carries
reduced + trivial part back to the input potential up to cyclic equivalence
modulo m^(N+1).  A potential with no degree-2 part is its own reduced part
with phi = id, and its four checks are noted true by construction, not
computed.

A QP stores its premutation at each vertex k when first built, so every
caller of ``premutate_qp(qp, k)`` shares one premutated QP object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .cycles import Potential, cyclic_derivative, cyclic_normalize, cyclically_equivalent
from .errors import (
    CertificateError,
    InvariantError,
    MutationNotDefined,
    Report,
    TruncationTooSmall,
)
from .jets import JetPoly, JetSpace
from .linalg import Mat, pivot_normal_form
from .quiver import Arrow, Path, Quiver
from .subst import (
    ArrowSubstitution,
    apply_substitution,
    compose_substitutions,
    identity_substitution,
    linear_images,
    substitution_from_images,
)


@dataclass(frozen=True)
class QP:
    """A quiver with potential, at a fixed truncation order and field."""

    quiver: Quiver
    potential: Potential

    def __post_init__(self):
        if self.potential.space.quiver != self.quiver:
            raise InvariantError("potential lives over a different quiver")
        for p in self.potential.terms():
            if p.length < 2:
                raise InvariantError("potential terms must have length >= 2")

    @property
    def space(self) -> JetSpace:
        return self.potential.space

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def field(self):
        return self.space.field

    @cached_property
    def _premutations(self) -> dict[int, "QP"]:
        return {}


def _require_admissible(q: Quiver, k: int) -> None:
    if k not in q.vertices:
        raise InvariantError(f"no vertex {k}")
    if q.has_two_cycle_at(k):
        raise MutationNotDefined(f"vertex {k} lies on a 2-cycle")


def composite_name(b: str, a: str) -> str:
    return f"[{b}{a}]"


def star_name(c: str) -> str:
    return c + "*"


def premutate_quiver(q: Quiver, k: int) -> Quiver:
    """Steps 1 and 2: add a composite arrow for every hook through k, then
    reverse every arrow incident to k (as c*)."""
    _require_admissible(q, k)
    arrows: list[Arrow] = []
    for a in q.arrows:
        if a.head == k or a.tail == k:
            arrows.append(Arrow(star_name(a.id), a.head, a.tail))
        else:
            arrows.append(a)
    for b in q.arrows_out_of(k):
        for a in q.arrows_into(k):
            arrows.append(Arrow(composite_name(b.id, a.id), a.tail, b.head))
    ids = [a.id for a in arrows]
    if len(set(ids)) != len(ids):
        raise InvariantError("arrow naming collision during premutation")
    return Quiver(q.vertices, tuple(arrows))


def mutate_quiver(q: Quiver, k: int) -> Quiver:
    """Premutate, then drop a maximal disjoint set of 2-cycles (Step 3),
    chosen greedily in lexicographic order of the id pairs."""
    qt = premutate_quiver(q, k)
    used: set[str] = set()
    for u, v in qt.two_cycle_pairs():
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    return qt.without_arrows(used)


def _rotate_off_vertex(q: Quiver, p: Path, k: int) -> tuple[str, ...]:
    """Lexicographically minimal rotation of a cycle's word whose base point
    is not k."""
    w = p.arrows
    cands = [r for r in (w[i:] + w[:i] for i in range(len(w))) if q.tail(r[-1]) != k]
    if not cands:
        raise InvariantError("cycle lives entirely at one vertex")  # impossible, loop-free
    return min(cands)


def bracket_substitute(s: Potential, k: int, target: JetSpace) -> Potential:
    """[S]: replace each passage through k (a consecutive hook pair) by the
    corresponding composite arrow; result is supported away from k."""
    src_q = s.space.quiver
    tq = target.quiver
    terms = []
    for p, c in s.jet.terms.items():
        if all(src_q.tail(a) != k and src_q.head(a) != k for a in p.arrows):
            word = p.arrows
        else:
            w = _rotate_off_vertex(src_q, p, k)
            word_l: list[str] = []
            i = 0
            while i < len(w):
                if i + 1 < len(w) and src_q.tail(w[i]) == k == src_q.head(w[i + 1]):
                    word_l.append(composite_name(w[i], w[i + 1]))
                    i += 2
                else:
                    word_l.append(w[i])
                    i += 1
            word = tuple(word_l)
        terms.append((Path(word, tq.tail(word[-1]), tq.head(word[0])), c))
    return cyclic_normalize(target.sum_terms(terms))


def premutate_qp(qp: QP, k: int) -> QP:
    """The premutation: bracketed potential plus one correction cycle
    b* [ba] a* for every hook through k.  It is built once per QP and k and
    stored on ``qp``; every later call returns the stored QP."""
    if k in qp._premutations:
        return qp._premutations[k]
    _require_admissible(qp.quiver, k)
    qt = premutate_quiver(qp.quiver, k)
    space = JetSpace(qt, qp.order, qp.field)
    pot = bracket_substitute(qp.potential, k, space)
    corr = space.zero()
    for b in qp.quiver.arrows_out_of(k):
        for a in qp.quiver.arrows_into(k):
            corr = corr + space.path(
                (star_name(b.id), composite_name(b.id, a.id), star_name(a.id))
            )
    qp._premutations[k] = QP(qt, pot + cyclic_normalize(corr))
    return qp._premutations[k]


@dataclass
class SplitResult:
    reduced: QP
    trivial: QP
    splitting: ArrowSubstitution  # on the full quiver; splitting(S_red + S_triv) ~cyc S
    certificate: Report


def _degree2_pairing(qp: QP):
    """Group the degree-2 terms into pairing matrices between opposite
    parallel-arrow classes; returns {(i, j): (A_ids, B_ids, Mat)} with i < j."""
    q = qp.quiver
    fld = qp.field
    classes = q.parallel_classes
    at = {aid: n for ids in classes.values() for n, aid in enumerate(ids)}
    cells: dict[tuple[int, int], list[dict]] = {}
    # each 2-cycle is one term of the normalized potential: one entry each
    for p, c in qp.potential.degree2_part().terms().items():
        x, y = p.arrows
        if q.tail(x) > q.head(x):  # x in the B class: the A arrow is y
            x, y = y, x
        key = (q.tail(x), q.head(x))
        if key not in cells:
            cells[key] = [{} for _ in classes[key]]
        cells[key][at[x]][at[y]] = c
    return {key: (classes[key], classes[key[::-1]], Mat.from_rows(fld, rows, len(classes[key[::-1]])))
            for key, rows in cells.items()}


def _linear_normalization(qp: QP):
    """Step 3 of the reduction: a degree-preserving substitution making the
    degree-2 part a sum of distinct opposite pairs, and its inverse, from
    one normal form per pairing matrix; returns (subst, inverse, pairs)."""
    space = qp.space
    images: dict[str, JetPoly] = {}
    inv_images: dict[str, JetPoly] = {}
    pairs: list[tuple[str, str]] = []
    for (_, _), (a_ids, b_ids, c) in sorted(_degree2_pairing(qp).items()):
        x, y, x_inv, y_inv, pivots = pivot_normal_form(c)
        pairs.extend((a_ids[i], b_ids[j]) for i, j in pivots)
        # psi(u_i) = sum_i' X[i'][i] u_i',  psi(v_j) = sum_j' Y[j][j'] v_j'
        images |= linear_images(space, a_ids, x) | linear_images(space, b_ids, y.T)
        inv_images |= linear_images(space, a_ids, x_inv) | linear_images(space, b_ids, y_inv.T)
    return (
        substitution_from_images(space, images),
        substitution_from_images(space, inv_images),
        pairs,
    )


def split_reduce(qp: QP) -> SplitResult:
    """Split a QP into reduced and trivial parts with an explicit splitting
    substitution, verified by certificate.

    chi fixes the reduced arrows, so chi(S_red) = S_red and only the images
    of the trivial arrows are kept.  A round that corrects them by eps
    changes c chi(x) chi(y) by c (eps_x chi(y) + (chi(x) + eps_x) eps_y) for
    each trivial term c x y, so delta is updated by those changes and the
    cycles moved into S_red; no round applies chi to a potential.  With no
    degree-2 part, phi = id and the reduced part is the input, so the four
    checks are noted as true without being computed."""
    space = qp.space
    q = qp.quiver
    n = qp.order
    s0 = qp.potential

    if s0.degree2_part().is_zero():
        triv_quiver = q.restricted_to_arrows(set())
        empty_triv = QP(
            triv_quiver, Potential(JetSpace(triv_quiver, n, qp.field).zero())
        )
        cert = Report("split_reduce")
        cert.note("reduced part has zero degree-2 component", True)
        cert.note("trivial part is trivial", True)
        cert.note("arrow sets split the quiver", True)
        cert.note("splitting carries the split potential to the input", True)
        return SplitResult(qp, empty_triv, identity_substitution(space), cert)

    lin_sub, lin_inv, pairs = _linear_normalization(qp)
    s1 = cyclic_normalize(apply_substitution(lin_sub, s0.jet))

    partner = {u: v for u, v in pairs} | {v: u for u, v in pairs}
    trivial_ids = set(partner)

    def absorb(p: Path, c, acc: dict[str, JetPoly]) -> None:
        """Take the least rotation of p led by a trivial arrow, cut off the
        lead arrow and add c times the rest to the correction of its
        partner."""
        w = p.arrows
        lead, *rest = min(w[i:] + w[:i] for i in range(len(w)) if w[i] in trivial_ids)
        piece = Path(tuple(rest), q.tail(rest[-1]), q.head(rest[0]))
        aid = partner[lead]
        acc[aid] = acc.get(aid, space.zero()) + JetPoly(space, {piece: c})

    s_triv_jet = space.zero()
    for u, v in pairs:
        s_triv_jet = s_triv_jet + space.path((u, v))
    s_triv = cyclic_normalize(s_triv_jet)

    delta = cyclic_normalize(s1.jet - s_triv.jet)
    if not delta.degree2_part().is_zero():
        raise CertificateError("degree-2 normalization failed")

    # A round corrects trivial arrows only by terms of degree d - 1, so it
    # changes delta only in degree d and above, and clears d.
    chi = {aid: space.arrow(aid) for aid in trivial_ids}
    s_red_jet = space.zero()
    for _ in range(n + 1):
        if delta.is_zero():
            break
        d = min(p.length for p in delta.terms())
        moved: dict[Path, object] = {}
        eps: dict[str, JetPoly] = {}
        for p, c in delta.terms().items():
            if p.length != d:
                continue
            if trivial_ids.isdisjoint(p.arrows):
                moved[p] = c
            else:
                absorb(p, c, eps)
        moved_jet = JetPoly(space, moved)
        s_red_jet = s_red_jet + moved_jet
        # every trivial arrow lies in exactly one trivial term c x y, whose
        # image changes by c (eps_x chi(y) + chi'(x) eps_y)
        change = moved_jet
        for p, c in s_triv.terms().items():
            x, y = p.arrows
            if x in eps:
                change = change + (eps[x] * chi[y]).scale(c)
                chi[x] = chi[x] + eps[x]
            if y in eps:
                change = change + (chi[x] * eps[y]).scale(c)
                chi[y] = chi[y] + eps[y]
        delta = cyclic_normalize(delta.jet - change)
    else:
        raise CertificateError("splitting construction exceeded the degree budget")
    s_red = Potential(s_red_jet)

    reduced_quiver = q.without_arrows(trivial_ids)
    trivial_quiver = q.restricted_to_arrows(trivial_ids)
    red_space = JetSpace(reduced_quiver, n, qp.field)
    red_pot = _retype_potential(s_red, red_space)
    triv_space = JetSpace(trivial_quiver, n, qp.field)
    triv_pot = _retype_potential(s_triv, triv_space)
    phi = compose_substitutions(lin_inv, substitution_from_images(space, chi))

    cert = Report("split_reduce")
    cert.note("reduced part has zero degree-2 component", red_pot.degree2_part().is_zero())
    cert.note("trivial part is trivial", _is_trivial_qp(QP(trivial_quiver, triv_pot)))
    cert.note(
        "arrow sets split the quiver",
        set(a.id for a in q.arrows)
        == {a.id for a in reduced_quiver.arrows} | {a.id for a in trivial_quiver.arrows}
        and not ({a.id for a in reduced_quiver.arrows} & {a.id for a in trivial_quiver.arrows}),
    )
    recombined = apply_substitution(phi, (s_red + s_triv).jet)
    cert.note(
        "splitting carries the split potential to the input",
        cyclically_equivalent(recombined, s0.jet),
    )
    return SplitResult(
        QP(reduced_quiver, red_pot), QP(trivial_quiver, triv_pot), phi, cert.require()
    )


def _retype_potential(s: Potential, target: JetSpace) -> Potential:
    """Move a potential onto a subquiver's jet space (arrows must all exist)."""
    tq = target.quiver
    for p in s.jet.terms:
        for a in p.arrows:
            if not tq.has_arrow(a):
                raise InvariantError(f"potential uses arrow {a!r} outside the subquiver")
    return Potential(JetPoly(target, dict(s.jet.terms)))


def _is_trivial_qp(qp: QP) -> bool:
    """Degree exactly 2, and the cyclic derivatives span the arrow space."""
    pot = qp.potential
    if pot.is_zero():
        return not qp.quiver.arrows
    if any(p.length != 2 for p in pot.terms()):
        return False
    arrows = qp.quiver.arrows
    index = {a.id: i for i, a in enumerate(arrows)}
    # one row per cyclic derivative; every term has length 2, so each is an arrow
    rows = [{index[p.arrows[0]]: c for p, c in cyclic_derivative(pot, a.id).terms.items()} for a in arrows]
    return Mat.from_rows(qp.field, rows, len(arrows)).rank() == len(arrows)


def require_mutable(qp: QP, k: int) -> None:
    """Raise unless mutation at k is defined (k on no 2-cycle) and exact at
    the truncation order (N above every potential term and at least 3)."""
    need = max(3, qp.potential.max_length() + 1)
    if qp.order < need:
        raise TruncationTooSmall(f"truncation order {qp.order} < required {need}")
    _require_admissible(qp.quiver, k)


def mutate_qp(qp: QP, k: int) -> tuple[QP, ArrowSubstitution, QP]:
    """Mutation: the reduced part of the premutation, with the splitting
    substitution and trivial part returned alongside."""
    require_mutable(qp, k)
    sr = split_reduce(premutate_qp(qp, k))
    return sr.reduced, sr.splitting, sr.trivial


@dataclass
class NondegeneracyReport:
    depth: int
    trials: int
    seed: int
    witnesses: list[list[int]]

    @property
    def degenerate(self) -> bool:
        return bool(self.witnesses)


def probe_nondegeneracy(qp: QP, depth: int, trials: int, seed: int) -> NondegeneracyReport:
    """Run seeded random mutation sequences, reporting any that reach a
    non-2-acyclic reduced quiver."""
    if not qp.quiver.is_2_acyclic():
        return NondegeneracyReport(depth, trials, seed, [[]])
    rng = random.Random(seed)
    witnesses: list[list[int]] = []
    for _ in range(trials):
        cur = qp
        seq: list[int] = []
        for _ in range(depth):
            k = rng.choice(sorted(cur.quiver.vertices))
            cur = mutate_qp(cur, k)[0]
            seq.append(k)
            if not cur.quiver.is_2_acyclic():
                witnesses.append(seq[:])
                break
    return NondegeneracyReport(depth, trials, seed, witnesses)
