"""Mutating decorated representations.

A valid module is nilpotent and annihilated by every cyclic derivative of
the potential.  Mutation at a vertex rebuilds the space there from the
kernel/cokernel data of the incoming and outgoing actions; the four
available constructions of that space give isomorphic answers, and a simple
module at the mutation vertex trades places with a pure decoration.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpmut import (
    CONSTRUCTIONS,
    check_beta_alpha,
    check_module,
    constructions_agree,
    docio,
    is_isomorphic,
    mutate_rep,
    negative_simple_rep,
    premutate_rep,
)
from qpmut.generate import random_valid_module

qp = docio.load_path(os.path.join(os.path.dirname(__file__), "..", "fixtures", "markov.json"))
rng = random.Random(7)
m = random_valid_module(qp, rng, max_dim=3)
print("module dims:", m.dims, "decorations:", m.dec_dims)
print("valid:", check_module(m).ok)

pm = premutate_rep(m, 3)
print("\npremutation at 3:")
print("  new dims:", pm.rep.dims, "new decorations:", pm.rep.dec_dims)
print("  reversed-arrow composition equals minus the derivative matrix:",
      check_beta_alpha(pm).ok)

print("\nall four constructions, pairwise isomorphic:")
report = constructions_agree(m, 3)
print(" ", "ok" if report.ok else report.failures)
for kind in CONSTRUCTIONS:
    alt = premutate_rep(m, 3, kind)
    print(f"  {kind:12s} -> dim at 3 = {alt.rep.dims[3]}")

out = mutate_rep(m, 3)
print("\nfull mutation lives over the mutated QP and is valid:",
      check_module(out).ok)

# A decoration at the mutation vertex is exchanged with a simple module.
neg = negative_simple_rep(qp, 3)
s = mutate_rep(neg, 3)
print("\nnegative simple at 3 mutates to dims", s.dims, "decorations", s.dec_dims)
back = mutate_rep(s, 3)
print("and back to dims", back.dims, "decorations", back.dec_dims)

# Mutation preserves the isomorphism class of its input.
from qpmut.generate import base_change

n, g = base_change(m, rng)
print("\nbase-changed copy isomorphic to the original:",
      is_isomorphic(m, n, seed=1).verdict)
print("their mutations are isomorphic too:",
      is_isomorphic(mutate_rep(m, 3), mutate_rep(n, 3), seed=1).verdict)
