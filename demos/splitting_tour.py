#!/usr/bin/env python3
# A first tour: build the wheel fixture, split it, and compare the
# predicted circuit family with the brute-force oracle.

from essplit import format_matrix, predict_circuits, split_matroid, build_split_matrix
from essplit.showcase import showcase_context, showcase_graph

graph = showcase_graph()
print("wheel graph edges:")
for label, u, v in graph.edges:
    print(f"  {label}: {u} -- {v}")

ctx = showcase_context()
print()
print("base representation (vertex-by-edge incidence):")
print(format_matrix(ctx.base.matrix))

print("split at X = {x, y}, marked element e = y:")
print(format_matrix(build_split_matrix(ctx)))

base_circuits = ctx.base.circuits()
print(f"the base matroid has {len(base_circuits)} circuits:")
for c in base_circuits:
    print("  ", ctx.sort_set(c))

family = predict_circuits(ctx)
print()
print("predicted split circuits, by class:")
for name, circuits in zip(
    (
        "even-overlap survivors (c0)",
        "disjoint odd pairs (c1)",
        "odd circuits plus a (c2)",
        "gamma rewrites (c3)",
    ),
    family.classes,
):
    print(f"  {name}:")
    for c in circuits:
        print("    ", tuple(ctx.sorted_labels(c)))
print("  triangle (delta):", tuple(ctx.sorted_labels(family.delta_mask)))

oracle = split_matroid(ctx)
predicted = set(map(ctx.labels_of, family.minimal))
print()
print(f"oracle circuit count: {len(oracle.circuits())}")
print(f"prediction matches oracle exactly: {predicted == set(oracle.circuits())}")
