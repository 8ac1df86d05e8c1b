"""Seeded generators: random QPs, and valid modules built from truncated
quotients of the path algebra by the derivative ideal.

Both generated modules, the truncated projective and the random quotient,
are quotients of a representation by a generated submodule, built by one
routine; the result depends only on the generated span.  Modules produced
here are nilpotent and annihilated by every cyclic derivative by
construction; tests re-verify this through check_module.
"""

from __future__ import annotations

import random

from .cycles import cyclic_derivative, cyclic_normalize
from .fields import QQ, Field
from .jets import JetSpace
from .linalg import Echelon, Mat, block_diag, subspace_package
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
    by_head: dict[int, list[Path]] = {v: [] for v in q.vertices}
    for p in _enumerate_paths_from(q, ell, power):
        by_head[p.head].append(p)
    pos = {p: i for ps in by_head.values() for i, p in enumerate(ps)}
    dims = {v: len(by_head[v]) for v in q.vertices}

    # each arrow c sends the basis path p to c p, or to 0 at length >= power
    maps = {}
    for c in q.arrows:
        rows: list[dict] = [{} for _ in by_head[c.head]]
        for j, p in enumerate(by_head[c.tail]):
            i = pos.get(Path((c.id,) + p.arrows, ell, c.head))
            if i is not None:
                rows[i] = {j: fld.one}
        maps[c.id] = Mat.from_rows(fld, rows, dims[c.tail])

    # the ideal is generated by dS/dc . v, for the paths v from ell to h(c)
    gens: dict[int, list[dict]] = {v: [] for v in q.vertices}
    for c in q.arrows:
        d = cyclic_derivative(qp.potential, c.id)
        for v in by_head[c.head]:
            col: dict[int, object] = {}
            for p, x in d.terms.items():
                i = pos.get(Path(p.arrows + v.arrows, ell, c.tail))
                if i is not None:
                    col[i] = col.get(i, fld.zero) + x
            gens[c.tail].append(col)
    gen_mats = {v: Mat.from_rows(fld, gens[v], dims[v]) for v in q.vertices}
    return _quotient(qp, dims, maps, gen_mats, {v: 0 for v in q.vertices})


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


def _quotient(qp: QP, dims: dict[int, int], maps: dict[str, Mat], gens: dict[int, Mat],
              dec: dict[int, int]) -> DecRep:
    """The quotient of the representation (dims, maps) by the submodule
    generated by the rows of gens[v] at each vertex v.  The span at each
    vertex is kept as the rows of an echelon, and closed under the arrows by
    mapping each row along each arrow out of its vertex once.  Each arrow
    acts by proj @ (map @ section) through subspace_package of the span,
    which depends only on the span."""
    fld = qp.field
    q = qp.quiver
    spans = {v: Echelon(fld).add(gens[v]) for v in q.vertices}
    tr = {a.id: maps[a.id].T for a in q.arrows}
    done = dict.fromkeys(tr, 0)  # rows of the tail's span mapped along each arrow
    while any(len(spans[a.tail]) > done[a.id] for a in q.arrows):
        for a in q.arrows:
            src = spans[a.tail]
            spans[a.head].add_images(src, tr[a.id], done[a.id])
            done[a.id] = len(src)
    packs = {v: subspace_package(spans[v].span(dims[v]).T)
             for v in q.vertices}
    quotient_maps = {a.id: packs[a.head][0] @ (maps[a.id] @ packs[a.tail][1]) for a in q.arrows}
    return DecRep(qp, {v: packs[v][0].rows for v in q.vertices}, quotient_maps, dict(dec))


def random_quotient(rep: DecRep, rng: random.Random) -> DecRep:
    """Quotient by the submodule generated by a random vector."""
    fld = rep.field
    q = rep.qp.quiver
    verts = [v for v in q.vertices if rep.dims[v] > 0]
    if not verts:
        return rep
    v0 = rng.choice(verts)
    gens = {v: Mat.zero(fld, 0, rep.dims[v]) for v in q.vertices}
    gens[v0] = Mat(fld, [[fld.of(rng.randint(-1, 1)) for _ in range(rep.dims[v0])]])
    return _quotient(rep.qp, rep.dims, rep.maps, gens, rep.dec_dims)


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
