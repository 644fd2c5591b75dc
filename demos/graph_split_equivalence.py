#!/usr/bin/env python3
# Vertex splitting on graphs: split the wheel's hub, print the result,
# and confirm on random multigraphs that the cycle matroid of the split
# graph coincides with the matroid-level split.

import random
import sys
from pathlib import Path

from essplit import n_line_split, verify_equivalence
from essplit.showcase import showcase_graph, showcase_split_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from instances import random_connected_multigraph, random_split_spec  # noqa: E402

graph = showcase_graph()
spec = showcase_split_spec()
print(f"splitting hub {spec.split_vertex}: anchor {spec.anchor_edge}, "
      f"left {sorted(spec.left_edges)}, right {sorted(spec.right_edges)}")

h = n_line_split(graph, spec, ("u1", "u2", "a", "gamma"))
print("split graph edges:")
for label, u, v in h.edges:
    print(f"  {label}: {u} -- {v}")

print()
print("wheel equivalence check:", verify_equivalence(graph, spec))

rng = random.Random(4)
trials = 0
agreements = 0
while trials < 40:
    g = random_connected_multigraph(rng)
    s = random_split_spec(rng, g)
    if s is None:
        continue
    trials += 1
    agreements += verify_equivalence(g, s)
print(f"random multigraphs: {agreements}/{trials} agree")
