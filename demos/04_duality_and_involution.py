"""Duality, involutivity, and nondegeneracy probing.

Mutation commutes with vector-space duality through an explicit invertible
comparison map, mutating twice brings a module back to itself after the
sign-twisted pullback, and random mutation walks probe whether a potential
ever produces a 2-cycle it cannot remove.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpmut import duality_witness, is_isomorphic, probe_nondegeneracy
from qpmut.generate import random_valid_module
from qpmut.mutation import involution_pullback

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from conftest import markov_qp

qp = markov_qp()
rng = random.Random(12)
m = random_valid_module(qp, rng, max_dim=3)

rpt = duality_witness(m, 3).require()
print("duality witness verified; comparison block at the mutation vertex is")
print(" ", rpt.witness["delta_k"])

w = involution_pullback(m, 3)
res = is_isomorphic(w, m, seed=2)
print("\nmutating twice and pulling back along the sign-twisted embedding:")
print("  isomorphic to the original:", res.verdict)

probe = probe_nondegeneracy(qp, depth=4, trials=8, seed=5)
print("\nnondegeneracy probe: depth", probe.depth, "trials", probe.trials)
print("  witnesses found:", probe.witnesses if probe.degenerate else "none")
