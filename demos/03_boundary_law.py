"""Entropic boundary law on a k=12 torus.

Disk regions cut out by dual loops have entropy fixed by their boundary
statistics alone: S = sigma_AB - 1 = L - n2 - 2*n3 - 1, sandwiched
between L/3 - 1 and 7L/6 - 1.  The sweep below checks random convex
rectangles (where S = L - 1 exactly) and random notched blobs against
the exact rank engine.
"""

import random
from collections import Counter

from flipent import (
    boundary_bounds_check,
    build_torus,
    entropy_equal_superposition,
    geometric_entropy,
    random_rectangle_region,
    random_simple_region,
    star_group,
)

K = 12
lat = build_torus(K)
stars = star_group(lat)
rng = random.Random(2024)

print("convex rectangles: S should equal L - 1")
for _ in range(5):
    part, st, _ = random_rectangle_region(lat, rng)
    s = entropy_equal_superposition(stars, part).s_bits
    print(
        f"  |A|={part.size_a:3d}  L={st.boundary_length:2d}  "
        f"S={s:2d}  L-1={st.boundary_length - 1:2d}"
    )

print()
print("random blobs: S = L - n2 - 2*n3 - 1, within the linear bounds")
slack = Counter()
for _ in range(300):
    part, st, loop = random_simple_region(lat, rng)
    s = entropy_equal_superposition(stars, part).s_bits
    assert st.boundary_length == loop.bit_count()  # L is the loop's length
    assert s == geometric_entropy(st)
    assert boundary_bounds_check(st, s)
    # distance from the upper bound in units of L
    slack[round((7 * st.boundary_length / 6 - 1 - s) / st.boundary_length, 1)] += 1

for key in sorted(slack):
    print(f"  upper-bound slack ~{key:.1f} L: {slack[key]:3d} regions")
print("all 300 regions obeyed both the exact law and the bounds")
