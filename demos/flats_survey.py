#!/usr/bin/env python3
# Survey the flats of the wheel matroid and its split: confirm the
# bundled lists against the oracle, show what the lists miss, and
# measure how much of the split's flat lattice the six sufficient
# conditions certify.

from essplit import predict_is_flat, split_matroid
from essplit.errors import BaseNotFlat
from essplit.showcase import (
    BASE_FLATS_LISTED,
    SPLIT_FLATS_LISTED,
    showcase_context,
)

ctx = showcase_context()
oracle = split_matroid(ctx)


def fmt(labels):
    return "{" + ",".join(ctx.sort_set(labels)) + "}"


for name, matroid, listed in (
    ("base", ctx.base, BASE_FLATS_LISTED),
    ("split", oracle, SPLIT_FLATS_LISTED),
):
    flats = [f for f in matroid.flats() if f]
    confirmed = [entry for entry in listed if matroid.is_flat(entry)]
    print(f"{name}: {len(listed)} listed, {len(confirmed)} confirmed, "
          f"{len(flats)} oracle flats in total")
    for entry in listed:
        if not matroid.is_flat(entry):
            print(f"  NOT a flat: {fmt(entry)} "
                  f"(closure {fmt(matroid.closure_of(entry))})")
    unlisted = [f for f in flats if f not in {frozenset(e) for e in listed}]
    print(f"  flats absent from the list: {len(unlisted)}, e.g. "
          + ", ".join(fmt(f) for f in unlisted[:5]))
    print()

# How many split flats do the sufficient conditions actually certify?
certified = 0
uncovered = []
for flat in oracle.flats():
    try:
        condition = predict_is_flat(ctx, flat)
    except BaseNotFlat:
        condition = None
    if condition is None:
        uncovered.append(flat)
    else:
        certified += 1

total = len(oracle.flats())
print(f"sufficient conditions certify {certified} of {total} split flats;")
print(f"{len(uncovered)} need the oracle fallback, e.g. "
      + ", ".join(fmt(f) for f in uncovered[:5] if f))
