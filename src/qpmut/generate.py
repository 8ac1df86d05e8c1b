"""Seeded generators: random QPs, and valid modules built from truncated
quotients of the path algebra by the derivative ideal.

Modules produced here are nilpotent and annihilated by every cyclic
derivative by construction; tests re-verify this through check_module.
"""

from __future__ import annotations

import random

from .cycles import cyclic_derivative, cyclic_normalize
from .fields import QQ, Field
from .jets import JetSpace
from .linalg import Mat, block_diag, hstack, subspace_package
from .qp import QP
from .quiver import Arrow, Path, Quiver
from .reps import DecRep


def random_quiver(rng: random.Random, max_vertices: int = 5, max_arrows: int = 10) -> Quiver:
    nv = rng.randint(2, max_vertices)
    vertices = tuple(range(1, nv + 1))
    na = rng.randint(2, max_arrows)
    arrows = []
    for i in range(na):
        t = rng.choice(vertices)
        h = rng.choice([v for v in vertices if v != t])
        arrows.append(Arrow(f"a{i}", t, h))
    return Quiver(vertices, tuple(arrows))


def _random_cycles(rng: random.Random, q: Quiver, max_len: int, count: int) -> list[tuple[str, ...]]:
    by_tail: dict[int, list[Arrow]] = {}
    for a in q.arrows:
        by_tail.setdefault(a.tail, []).append(a)
    cycles = []
    for _ in range(count * 8):
        if len(cycles) >= count:
            break
        start = rng.choice(q.vertices)
        word: list[str] = []
        at = start
        length = rng.randint(2, max_len)
        for _ in range(length):
            outs = by_tail.get(at, [])
            if not outs:
                break
            a = rng.choice(outs)
            word.append(a.id)
            at = a.head
        if word and at == start and len(word) >= 2:
            cycles.append(tuple(reversed(word)))
    return cycles


def random_qp(
    rng: random.Random,
    max_vertices: int = 5,
    max_arrows: int = 10,
    max_terms: int = 8,
    max_len: int = 5,
    order: int = 12,
    field: Field = QQ,
) -> QP:
    """A random QP; potentials may well have degree-2 terms."""
    for _ in range(200):
        q = random_quiver(rng, max_vertices, max_arrows)
        space = JetSpace(q, order, field)
        cycles = _random_cycles(rng, q, max_len, rng.randint(0, max_terms))
        jet = space.zero()
        for w in cycles[:max_terms]:
            coeff = field.of(rng.choice([-2, -1, 1, 2]))
            jet = jet + space.path(w).scale(coeff)
        pot = cyclic_normalize(jet)
        if all(p.length >= 2 for p in pot.terms()):
            return QP(q, pot)
    raise RuntimeError("failed to generate a QP")


def _enumerate_paths_from(q: Quiver, ell: int, max_len: int) -> list[Path]:
    """All paths with tail ell of length < max_len, by length then word."""
    out = [Path((), ell, ell)]
    frontier = [Path((), ell, ell)]
    for _ in range(max_len - 1):
        nxt = []
        for p in frontier:
            for a in sorted(q.arrows, key=lambda a: a.id):
                if a.tail == p.head:
                    nxt.append(Path((a.id,) + p.arrows, ell, a.head))
        out.extend(nxt)
        frontier = nxt
    return out


def truncated_projective(qp: QP, ell: int, power: int) -> DecRep:
    """The cyclic left module generated at ell, modulo the derivative ideal
    and all paths of length >= power."""
    q = qp.quiver
    fld = qp.field
    paths = _enumerate_paths_from(q, ell, power)
    index = {p: i for i, p in enumerate(paths)}
    by_head: dict[int, list[Path]] = {v: [] for v in q.vertices}
    for p in paths:
        by_head[p.head].append(p)

    def truncate_to_vector(jet_terms: dict[Path, object], head: int) -> list:
        vec = [fld.zero] * len(by_head[head])
        pos = {p: i for i, p in enumerate(by_head[head])}
        for p, c in jet_terms.items():
            if p.length < power and p.head == head:
                vec[pos[p]] = vec[pos[p]] + c
        return vec

    # ideal generators u . dS/dc . v with tail(v) = ell, truncated
    derivs = {a.id: cyclic_derivative(qp.potential, a.id) for a in q.arrows}
    gens_by_head: dict[int, list[list]] = {v: [] for v in q.vertices}
    for aid, d in derivs.items():
        if d.is_zero():
            continue
        dmin = min(p.length for p in d.terms)
        a = q.arrow(aid)
        # v: path from ell to h(c); u: path from t(c) onward
        for v in paths:
            if v.head != a.head:
                continue
            for u in _enumerate_paths_from(q, a.tail, max(1, power - dmin - v.length)):
                terms: dict[Path, object] = {}
                for p, c in d.terms.items():
                    ln = u.length + p.length + v.length
                    if ln >= power:
                        continue
                    word = u.arrows + p.arrows + v.arrows
                    newp = Path(word, ell, u.head if word else ell)
                    terms[newp] = terms.get(newp, fld.zero) + c
                if terms:
                    head = next(iter(terms)).head
                    vec = truncate_to_vector(terms, head)
                    if any(vec):
                        gens_by_head[head].append(vec)

    dims = {}
    projs = {}
    reps = {}
    for v in q.vertices:
        n = len(by_head[v])
        gens = gens_by_head[v]
        gen_mat = Mat.from_rows(fld, [{c: col[i] for c, col in enumerate(gens)} for i in range(n)], len(gens))
        basis = gen_mat.image_basis()
        _, proj, sec = subspace_package(basis)
        dims[v] = proj.rows
        projs[v] = proj
        reps[v] = sec

    maps = {}
    for a in q.arrows:
        src = by_head[a.tail]
        m = Mat.zero(fld, dims[a.head], dims[a.tail])
        if dims[a.tail] and dims[a.head]:
            cols = []
            for j in range(dims[a.tail]):
                img_terms: dict[Path, object] = {}
                for i, p in enumerate(src):
                    c = reps[a.tail].entry(i, j)
                    if not c or p.length + 1 >= power:
                        continue
                    word = (a.id,) + p.arrows
                    img_terms[Path(word, ell, a.head)] = c
                cols.append(truncate_to_vector(img_terms, a.head))
            m = projs[a.head] @ Mat(fld, cols).T
        maps[a.id] = m
    return DecRep(qp, dims, maps, {v: 0 for v in q.vertices})


def direct_sum(reps: list[DecRep]) -> DecRep:
    qp = reps[0].qp
    fld = qp.field
    dims = {v: sum(r.dims[v] for r in reps) for v in qp.quiver.vertices}
    dec = {v: sum(r.dec_dims[v] for r in reps) for v in qp.quiver.vertices}
    maps = {a.id: block_diag(fld, [r.maps[a.id] for r in reps]) for a in qp.quiver.arrows}
    return DecRep(qp, dims, maps, dec)


def random_invertible(rng: random.Random, fld, n: int) -> Mat:
    while True:
        m = Mat(fld, [[fld.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def base_change(rep: DecRep, rng: random.Random) -> tuple[DecRep, dict[int, Mat]]:
    """Conjugate by a random invertible map at every vertex; returns the new
    module and the conjugating map (an isomorphism old -> new)."""
    fld = rep.field
    g = {v: random_invertible(rng, fld, rep.dims[v]) for v in rep.qp.quiver.vertices}
    ginv = {v: g[v].inverse() for v in g}
    maps = {
        a.id: g[a.head] @ rep.maps[a.id] @ ginv[a.tail]
        for a in rep.qp.quiver.arrows
    }
    return DecRep(rep.qp, dict(rep.dims), maps, dict(rep.dec_dims)), g


def random_quotient(rep: DecRep, rng: random.Random) -> DecRep:
    """Quotient by the submodule generated by a random vector."""
    fld = rep.field
    q = rep.qp.quiver
    verts = [v for v in q.vertices if rep.dims[v] > 0]
    if not verts:
        return rep
    v0 = rng.choice(verts)
    vec = Mat(fld, [[fld.of(rng.randint(-1, 1))] for _ in range(rep.dims[v0])])
    spans = {v: Mat.zero(fld, rep.dims[v], 0) for v in q.vertices}
    spans[v0] = vec.image_basis()
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            img = rep.maps[a.id] @ spans[a.tail]
            combined = hstack(fld, [spans[a.head], img], rows=rep.dims[a.head]).image_basis()
            if combined.cols > spans[a.head].cols:
                spans[a.head] = combined
                changed = True
    dims = {}
    projs = {}
    secs = {}
    for v in q.vertices:
        _, proj, sec = subspace_package(spans[v])
        dims[v] = proj.rows
        projs[v] = proj
        secs[v] = sec
    maps = {
        a.id: projs[a.head] @ (rep.maps[a.id] @ secs[a.tail])
        for a in q.arrows
    }
    return DecRep(rep.qp, dims, maps, dict(rep.dec_dims))


def random_valid_module(
    qp: QP,
    rng: random.Random,
    max_dim: int = 4,
    max_power: int = 3,
) -> DecRep:
    """A random nilpotent module annihilated by the derivative ideal, with
    per-vertex dimensions capped at max_dim and random decorations."""
    for _ in range(60):
        pieces = []
        for _ in range(rng.randint(1, 2)):
            ell = rng.choice(qp.quiver.vertices)
            power = rng.randint(1, max_power)
            pieces.append(truncated_projective(qp, ell, power))
        m = direct_sum(pieces) if len(pieces) > 1 else pieces[0]
        for _ in range(3):
            if all(d <= max_dim for d in m.dims.values()):
                break
            m = random_quotient(m, rng)
        if not all(d <= max_dim for d in m.dims.values()):
            continue
        m, _ = base_change(m, rng)
        return DecRep(m.qp, m.dims, m.maps, {v: rng.randint(0, 2) for v in qp.quiver.vertices})
    raise RuntimeError("failed to generate a module")


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
