"""Seeded inputs, the three workloads and their output gates.

Every workload's content is pinned: the Markov walk reads the fixture and the
two corpora are rebuilt from the acceptance-suite recipes with their fixed
corpus seeds, so the output digests in ``pinned.json`` hold for every run.
The benchmark's ``--seed`` chooses the order in which corpus items are
visited.  Varying the corpus content instead would move the cost by far more
than the benchmark's bounds: one heavy item (QP #85, module #46) is about half
of each corpus's time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from qpmut import docio, homs, mutation, qp as qpmod, reps
from qpmut.cycles import cyclic_normalize
from qpmut.fields import QQ
from qpmut.generate import random_qp, random_valid_module
from qpmut.jets import JetSpace
from qpmut.linalg import Mat
from qpmut.quiver import Arrow, Quiver

MARKOV_FIXTURE = "fixtures/markov_rep.json"
WALK = (3, 1, 2, 3, 1, 2)
WALK_DIMS = (
    {1: 0, 2: 2, 3: 5},
    {1: 11, 2: 2, 3: 5},
    {1: 11, 2: 21, 3: 5},
    {1: 11, 2: 21, 3: 37},
    {1: 63, 2: 21, 3: 37},
    {1: 63, 2: 105, 3: 37},
)
# Criterion 2: 200 QPs from seed 20240001.  Criterion 4: 100 modules from
# seed 20240003 with max_dim=3, every third over the Markov QP.
REDUCE_CORPUS_SEED = 20240001
REDUCE_CORPUS_SIZE = 200
ISO_CORPUS_SEED = 20240003
ISO_CORPUS_SIZE = 100
SPLIT_CHECKS = {
    "reduced part has zero degree-2 component": True,
    "trivial part is trivial": True,
    "arrow sets split the quiver": True,
    "splitting carries the split potential to the input": True,
}
ISO_PAIRS = tuple(
    (k1, k2)
    for i, k1 in enumerate(mutation.CONSTRUCTIONS)
    for k2 in mutation.CONSTRUCTIONS[i + 1:]
)

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


def _sha(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


# -- inputs ----------------------------------------------------------------

def visit_order(n: int, seed: int) -> list[int]:
    """Item order for one run: corpus order for seed 0, else a seeded shuffle."""
    order = list(range(n))
    if seed:
        random.Random(seed).shuffle(order)
    return order


def markov_qp(order: int = 12):
    q = Quiver(
        (1, 2, 3),
        (
            Arrow("a1", 1, 3), Arrow("a2", 1, 3),
            Arrow("b1", 3, 2), Arrow("b2", 3, 2),
            Arrow("c1", 2, 1), Arrow("c2", 2, 1),
        ),
    )
    space = JetSpace(q, order, QQ)
    jet = space.path(("c1", "b1", "a1")) + space.path(("c2", "b2", "a2"))
    return qpmod.QP(q, cyclic_normalize(jet))


def reduce_corpus(corpus_seed: int = REDUCE_CORPUS_SEED, count: int = REDUCE_CORPUS_SIZE):
    """Criterion 2's reduction corpus."""
    rng = random.Random(corpus_seed)
    return [
        random_qp(rng, max_vertices=5, max_arrows=10, max_terms=8, max_len=5, order=12)
        for _ in range(count)
    ]


def iso_corpus(corpus_seed: int = ISO_CORPUS_SEED, count: int = ISO_CORPUS_SIZE, max_dim: int = 3):
    """Criterion 4's module corpus: (module, admissible mutation vertex) pairs."""
    rng = random.Random(corpus_seed)
    markov = markov_qp()
    out = []
    while len(out) < count:
        if len(out) % 3 == 0:
            qp = markov
        else:
            qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, order=12)
        admissible = [k for k in qp.quiver.vertices if not qp.quiver.has_two_cycle_at(k)]
        if not admissible:
            continue
        k = rng.choice(admissible)
        try:
            m = random_valid_module(qp, rng, max_dim=max_dim)
        except RuntimeError:
            continue
        out.append((m, k))
    return out


# -- passes ----------------------------------------------------------------

class CheckFailed(Exception):
    """An item's output failed one of the workload's checks."""


@dataclass
class PassResult:
    """One pass: times, failures, and each output's digest and largest
    coefficient size; the outputs themselves are dropped once recorded."""

    wall_s: float = 0.0
    item_s: dict[int, float] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)
    max_bits: int = 0


class ItemClock:
    """Times each item; a tracer, when given, also opens an item span."""

    def __init__(self, result: PassResult, tracer=None):
        self.result = result
        self.tracer = tracer

    def run(self, idx: int, fn):
        """Run one item; an exception is recorded as that item's failure."""
        if self.tracer:
            self.tracer.begin_item(idx)
        t0 = perf_counter()
        try:
            return fn()
        except Exception as e:  # one failed item must not stop the run
            self.result.failures[idx] = f"{type(e).__name__}: {e}"
            return None
        finally:
            self.result.item_s[idx] = perf_counter() - t0
            if self.tracer:
                self.tracer.end_item()


def _emit_mat(m: Mat) -> list[list[str]]:
    return [[m.field.to_str(x) for x in row] for row in m.data]


class Workload:
    """A workload builds its inputs, runs passes over its items, and gates
    their outputs.  Subclasses provide ``item_name``, ``item_size``,
    ``input_digest``, ``run_pass``, ``digest`` (of one item's output) and
    ``output_values`` (every scalar in one item's output)."""

    name: str

    def record(self, res: PassResult, idx: int, out, tracer=None) -> None:
        """Keep one output's digest and largest numerator or denominator
        size; untimed, and not traced, since the gate is no workload call."""
        with tracer.paused() if tracer else nullcontext():
            res.digests[idx] = self.digest(idx, out)
            for x in self.output_values(out):
                res.max_bits = max(res.max_bits, abs(x.numerator).bit_length(), x.denominator.bit_length())

    def gate(self, res: PassResult) -> dict[int, str]:
        """Failed items of one pass: exceptions, failed checks, and digests
        that differ from the pinned ones."""
        failures = dict(res.failures)
        pinned = PINNED[self.name]
        for idx, d in res.digests.items():
            if idx not in failures and d != pinned[idx]:
                failures[idx] = "output digest differs from the pinned digest"
        return failures


class MarkovWalk(Workload):
    """Items are the six mutation steps; the pass also loads the fixture and
    emits the result.  The walk has one input, so the seed is not used."""

    name = "markov_walk"
    n_items = len(WALK)

    def __init__(self, root: Path, seed: int):
        self.fixture = str(root / MARKOV_FIXTURE)
        self.start = docio.load_path(self.fixture)

    def item_name(self, idx):
        return f"step{idx + 1}:mu{WALK[idx]}"

    def item_size(self, idx):
        return sum(WALK_DIMS[idx].values())

    def input_digest(self):
        return _sha(docio.dumps(docio.emit_decrep(self.start)), repr(WALK))

    def run_pass(self, tracer=None):
        res = PassResult()
        clock = ItemClock(res, tracer)
        steps = {}
        t0 = perf_counter()
        rep = docio.load_path(self.fixture)
        for idx, k in enumerate(WALK):
            if rep is None:
                res.failures[idx] = "an earlier step failed"
                continue
            rep = clock.run(idx, lambda r=rep, k=k: mutation.mutate_rep(r, k))
            if rep is not None:
                steps[idx] = rep
                if dict(rep.dims) != WALK_DIMS[idx]:
                    res.failures[idx] = f"dimension vector {dict(rep.dims)}"
        last = len(WALK) - 1
        if rep is not None:
            text = docio.dumps(docio.emit_decrep(rep))
            if not reps.check_module(rep).ok:
                res.failures[last] = "check_module fails on the result"
            elif docio.dumps(docio.emit_decrep(docio.loads(text))) != text:
                res.failures[last] = "emitted document does not round-trip"
        res.wall_s = perf_counter() - t0
        for idx, out in steps.items():
            self.record(res, idx, out, tracer)
        return res

    def digest(self, idx, rep):
        return _sha(docio.dumps(docio.emit_decrep(rep)))

    def output_values(self, rep):
        for m in rep.maps.values():
            for row in m.data:
                yield from row


class CorpusWorkload(Workload):
    """Items are independent corpus entries, visited in the seeded order.
    Subclasses provide ``build`` (the corpus) and ``item`` (run one entry,
    raising ``CheckFailed`` when a certificate check fails)."""

    def __init__(self, root: Path, seed: int):
        self.corpus = self.build()
        self.n_items = len(self.corpus)
        self.order = visit_order(self.n_items, seed)

    def run_pass(self, tracer=None):
        """Every item starts from an emptied collector and leaves only its
        output's digest behind, so an item's time does not depend on where
        the seeded order puts it.  ``wall_s`` is the sum of the item times:
        the collections and digests between items are the benchmark's work."""
        res = PassResult()
        clock = ItemClock(res, tracer)
        for idx in self.order:
            gc.collect()
            out = clock.run(idx, lambda i=idx: self.item(i))
            if out is not None:
                self.record(res, idx, out, tracer)
        res.wall_s = sum(res.item_s.values())
        return res


class ReduceCorpus(CorpusWorkload):
    """Each item splits and reduces one QP, with its certificate."""

    name = "reduce_corpus"

    @staticmethod
    def build():
        return reduce_corpus()

    def item_name(self, idx):
        return f"qp#{idx}"

    def item_size(self, idx):
        return len(self.corpus[idx].potential.terms())

    def input_digest(self):
        return _sha(*(docio.dumps(docio.emit_qp(q)) for q in self.corpus), repr(self.order))

    def item(self, idx):
        sr = qpmod.split_reduce(self.corpus[idx])
        if dict(sr.certificate.checks) != SPLIT_CHECKS:
            raise CheckFailed(f"certificate checks {sr.certificate.checks}")
        return sr

    def digest(self, idx, sr):
        return _sha(
            docio.dumps(docio.emit_qp(sr.reduced)),
            docio.dumps(docio.emit_qp(sr.trivial)),
            docio.dumps(docio.emit_substitution(sr.splitting)),
        )

    def output_values(self, sr):
        yield from sr.reduced.potential.terms().values()
        yield from sr.trivial.potential.terms().values()
        for jet in sr.splitting.images.values():
            yield from jet.terms.values()


class IsoCorpus(CorpusWorkload):
    """Each item builds the four constructions of one module with their
    explicit isomorphisms, then runs the certified isomorphism test on all six
    pairs."""

    name = "iso_corpus"

    @staticmethod
    def build():
        return iso_corpus()

    def item_name(self, idx):
        return f"module#{idx}"

    def item_size(self, idx):
        return self.corpus[idx][0].total_dim()

    def input_digest(self):
        return _sha(
            *(docio.dumps(docio.emit_decrep(m)) + str(k) for m, k in self.corpus),
            repr(self.order),
        )

    def item(self, idx):
        m, k = self.corpus[idx]
        agree = mutation.constructions_agree(m, k)
        if not agree.ok:
            raise CheckFailed(f"constructions disagree: {agree.failures}")
        pms = {
            kind: mutation.premutate_rep(m, k, kind, require_valid=False)
            for kind in mutation.CONSTRUCTIONS
        }
        results = [homs.is_isomorphic(pms[a].rep, pms[b].rep, seed=1) for a, b in ISO_PAIRS]
        bad = [f"{a}~{b}: {r.verdict}" for (a, b), r in zip(ISO_PAIRS, results) if r.verdict != homs.YES]
        if bad:
            raise CheckFailed(", ".join(bad))
        return pms, results

    def digest(self, idx, out):
        pms, results = out
        texts = [docio.dumps(docio.emit_decrep(pms[kind].rep)) for kind in mutation.CONSTRUCTIONS]
        for r in results:
            cert = {str(v): _emit_mat(g) for v, g in sorted(r.certificate.items())}
            texts.append(json.dumps([r.verdict, cert], sort_keys=True))
        return _sha(*texts)

    def output_values(self, out):
        pms, results = out
        for pm in pms.values():
            for m in pm.rep.maps.values():
                for row in m.data:
                    yield from row
        for r in results:
            for g in r.certificate.values():
                for row in g.data:
                    yield from row


WORKLOADS = {w.name: w for w in (MarkovWalk, ReduceCorpus, IsoCorpus)}
